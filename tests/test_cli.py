import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rydkit.cli import cli, main
from rydkit.report import ReproductionReport, ReproEntry

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestBudgetCommands:
    def test_vacuum_lifetime(self, runner):
        out = run_json(runner, [
            "budget", "vacuum-lifetime", "--n-code", "20",
            "--t-qec-ms", "2", "--epsilon", "1e-4",
        ])
        assert out["tau_vac_s"] == 400.0

    def test_vacuum_lifetime_default_cycle_time(self, runner):
        out = run_json(runner, [
            "budget", "vacuum-lifetime", "--n-code", "20", "--epsilon", "1e-4",
        ])
        assert out["t_qec_ms"] == pytest.approx(2.0, rel=1e-12)
        assert out["tau_vac_s"] == pytest.approx(400.0, rel=1e-12)

    def test_reload_rate(self, runner):
        out = run_json(runner, [
            "budget", "reload-rate", "--n-phys", "2000",
            "--tau-vac-s", "400", "--epsilon", "1e-4",
        ])
        assert out["r_load_per_s"] == 5e4

    def test_simulate_reports_trials_estimate_stderr(self, runner):
        out = run_json(runner, [
            "budget", "simulate", "--n-code", "20", "--tau-vac-s", "400",
            "--t-ms", "2", "--trials", "5000", "--seed", "42",
        ])
        assert out["trials"] == 5000
        assert 0.0 <= out["estimate"] <= 1.0
        assert out["standard_error"] >= 0.0

    def test_simulate_requires_seed(self):
        code = main([
            "budget", "simulate", "--n-code", "20", "--tau-vac-s", "400", "--t-ms", "2",
        ])
        assert code == 1

    def test_crosstalk(self, runner):
        out = run_json(runner, [
            "budget", "crosstalk", "--wavelength-nm", "852", "--spacing-um", "4.26",
            "--numerical-aperture", "0.5", "--efficiency", "0.5",
        ])
        assert out["eta_abs"] == pytest.approx(1.5198e-3, rel=1e-4)
        assert out["eta_det"] == pytest.approx(3.3494e-2, rel=1e-4)
        assert out["ratio"] == pytest.approx(4.5376e-2, rel=1e-4)


class TestGateErrorCommands:
    def test_blockade(self, runner):
        out = run_json(runner, [
            "gate-error", "blockade", "--blockade-mhz", "500", "--tau-us", "320",
        ])
        assert out["rabi_opt_mhz"] == pytest.approx(13.9836, rel=1e-4)
        assert out["error_min"] == pytest.approx(2.9331e-4, rel=1e-4)
        assert out["entanglement_bound"] == pytest.approx(1.9894e-6, rel=1e-4)

    def test_floors(self, runner):
        out = run_json(runner, ["gate-error", "floors"])
        assert out["blockade_floor"] == pytest.approx(1.76313e-5, rel=1e-4)
        assert out["dressing_floor"] == pytest.approx(1.21399e-3, rel=1e-4)

    def test_interaction(self, runner):
        out = run_json(runner, [
            "gate-error", "interaction", "--interaction-mhz", "1",
            "--tau-us", "320", "--qubit-ghz", "9.19",
        ])
        assert out["error"] == pytest.approx(1.8766e-3, rel=1e-4)
        assert out["error_min"] == pytest.approx(1.4012e-3, rel=1e-4)

    def test_stark(self, runner):
        out = run_json(runner, [
            "gate-error", "stark", "--rabi-mhz", "20", "--epsilon", "1e-5",
            "--alpha0-ghz-cm2-v2", "205",
        ])
        assert out["detuning_limit_khz"] == pytest.approx(63.25, rel=1e-3)

    def test_spontaneous(self, runner):
        out = run_json(runner, [
            "gate-error", "spontaneous", "--t-pi-ns", "25", "--epsilon", "1e-4",
        ])
        assert out["tau_min_us"] == pytest.approx(437.5, rel=1e-12)


class TestDopplerCommand:
    def test_point_value(self, runner):
        out = run_json(runner, ["doppler", "--temperature-uk", "5", "--time-ns", "100"])
        assert out["infidelity"] == pytest.approx(3.033e-4, rel=1e-3)
        assert out["fidelity"] == pytest.approx(1 - 3.033e-4, rel=1e-6)

    def test_requires_point_without_scan(self):
        assert main(["doppler", "--temperature-uk", "5"]) == 1

    def test_scan_matches_golden_file(self, runner):
        result = runner.invoke(cli, [
            "doppler", "--scan", "--temp-min-uk", "1", "--temp-max-uk", "100",
            "--temp-points", "5", "--time-min-ns", "10", "--time-max-ns", "1000",
            "--time-points", "4",
        ], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "doppler_grid.csv").read_text()

    def test_scan_deterministic(self, runner):
        args = ["doppler", "--scan", "--temp-points", "3", "--time-points", "3"]
        first = runner.invoke(cli, args, catch_exceptions=False).output
        second = runner.invoke(cli, args, catch_exceptions=False).output
        assert first == second


class TestLifetimeCommand:
    def test_species_default(self, runner):
        out = run_json(runner, ["lifetime", "--n", "100", "--temperature-k", "0"])
        assert out["lifetime_s"] == pytest.approx(3.3e-3, rel=1e-9)

    def test_tau0_override(self, runner):
        out = run_json(runner, [
            "lifetime", "--n", "100", "--temperature-k", "0", "--tau0-ns", "6.6",
        ])
        assert out["lifetime_s"] == pytest.approx(6.6e-3, rel=1e-9)

    def test_domain_error_exit_code(self):
        assert main(["lifetime", "--n", "5", "--temperature-k", "300"]) == 2

    def test_config_file_overrides_builtin(self, runner, tmp_path):
        config = tmp_path / "species.json"
        config.write_text(json.dumps({"species": [{
            "name": "Cs", "mass_kg": 2.2069e-25, "tau0_ns": 6.6,
            "qubit_freq_ghz": 9.1926,
            "schemes": [{"label": "one-photon", "wavelengths_nm": [319.0], "signs": [1]}],
        }]}))
        out = run_json(runner, [
            "lifetime", "--n", "100", "--temperature-k", "0", "--config", str(config),
        ])
        assert out["lifetime_s"] == pytest.approx(6.6e-3, rel=1e-9)
        # explicit flag still wins over the config value
        out = run_json(runner, [
            "lifetime", "--n", "100", "--temperature-k", "0",
            "--config", str(config), "--tau0-ns", "3.3",
        ])
        assert out["lifetime_s"] == pytest.approx(3.3e-3, rel=1e-9)


class TestDressingCommands:
    def test_fom_worked_example(self, runner):
        out = run_json(runner, [
            "dressing", "fom", "--rabi-mhz", "20", "--detuning-mhz", "-100",
            "--defect-mhz", "-200", "--rc-um", "8.1", "--tau-us", "320",
            "--spacing-um", "1",
        ])
        assert out["depth_khz"] == pytest.approx(20.0, rel=1e-9)
        assert out["tau_dr_ms"] == pytest.approx(16.0, rel=1e-9)
        assert out["operations_per_atom"] == pytest.approx(320.0, rel=1e-9)
        assert out["f_prime"] == pytest.approx(640.0, rel=1e-9)
        dims = {r["dimension"]: r for r in out["records"]}
        assert [dims[d]["n_atoms_floored"] for d in (1, 2, 3)] == [6, 35, 160]
        assert dims[3]["f"] == pytest.approx(51409.46, rel=1e-6)

    def test_fom_accepts_c3_instead_of_rc(self, runner):
        out = run_json(runner, [
            "dressing", "fom", "--rabi-mhz", "20", "--detuning-mhz", "-100",
            "--defect-mhz", "-200", "--c3-ghz-um3", "15.341380220420195",
            "--tau-us", "320", "--spacing-um", "1",
        ])
        assert out["rc_um"] == pytest.approx(8.1, rel=1e-9)

    def test_curve_matches_golden_file(self, runner):
        result = runner.invoke(cli, [
            "dressing", "curve", "--rabi-mhz", "1", "--detuning-mhz", "10",
            "--defect-mhz", "20", "--rc-um", "1.5", "--r-min-um", "0.25",
            "--r-max-um", "5", "--points", "9",
        ], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "dressing_curve.csv").read_text()

    def test_sign_mismatch_exit_code(self):
        code = main([
            "dressing", "fom", "--rabi-mhz", "20", "--detuning-mhz", "100",
            "--defect-mhz", "-200", "--rc-um", "8.1", "--tau-us", "320",
            "--spacing-um", "1",
        ])
        assert code == 2


class TestScanCommand:
    def test_tau_vac_grid(self, runner):
        result = runner.invoke(cli, [
            "scan", "--quantity", "tau-vac",
            "--x-min", "4", "--x-max", "100", "--x-points", "13",
            "--y-min", "1e-5", "--y-max", "1e-2", "--y-points", "4", "--y-scale", "log",
        ], catch_exceptions=False)
        assert result.exit_code == 0
        from rydkit.grid import ScanGrid

        grid = ScanGrid.from_csv(result.output)
        assert grid.x_axis.values[2] == 20.0
        assert grid.cell(2, 1) == pytest.approx(400.0, rel=1e-9)

    def test_set_overrides(self, runner):
        result = runner.invoke(cli, [
            "scan", "--quantity", "tau-vac",
            "--x-min", "20", "--x-max", "20", "--x-points", "1",
            "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1",
            "--set", "t_qec_ms=4",
        ], catch_exceptions=False)
        from rydkit.grid import ScanGrid

        assert ScanGrid.from_csv(result.output).cell(0, 0) == pytest.approx(800.0, rel=1e-9)

    def test_bad_set_syntax(self):
        assert main([
            "scan", "--quantity", "tau-vac",
            "--x-min", "20", "--x-max", "20", "--x-points", "1",
            "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1",
            "--set", "oops",
        ]) == 1

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "grid.csv"
        result = runner.invoke(cli, [
            "scan", "--quantity", "lifetime",
            "--x-min", "50", "--x-max", "150", "--x-points", "3",
            "--y-min", "4", "--y-max", "300", "--y-points", "2", "--y-scale", "log",
            "--out", str(target),
        ], catch_exceptions=False)
        assert result.exit_code == 0
        assert target.read_text().startswith("# quantity: lifetime")


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_success(self):
        assert main(["gate-error", "floors"]) == 0

    def test_reproduce_success_exit_code(self, capsys):
        assert main(["reproduce", "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    @pytest.mark.parametrize("args", [
        ["budget", "loss", "--n-code", "5", "--t-ms", "nan", "--tau-vac-s", "400"],
        ["doppler", "--temperature-uk", "nan", "--time-ns", "100"],
        ["budget", "vacuum-lifetime", "--n-code", "10", "--t-qec-ms", "1e307",
         "--epsilon", "1e-300"],
        ["scan", "--quantity", "tau-vac", "--x-min", "20", "--x-max", "20", "--x-points", "1",
         "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1", "--set", "t_qec_ms=abc"],
    ])
    def test_non_finite_input_or_result_is_domain_error(self, args, capsys):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")

    @pytest.mark.parametrize("command, config, named", [
        (["lifetime", "--n", "100", "--temperature-k", "0"], "{not json", "species.json"),
        (["lifetime", "--n", "100", "--temperature-k", "0", "--species", "x"],
         [{"name": "X", "mass_kg": "abc", "tau0_ns": 3.3, "qubit_freq_ghz": 9.0}], "'X'"),
        (["doppler", "--temperature-uk", "5", "--time-ns", "100", "--species", "y"],
         [{"name": "Y", "mass_kg": 2.2e-25, "tau0_ns": 3.3, "qubit_freq_ghz": 9.0}],
         "Y has no excitation scheme"),
        *((["lifetime", "--n", "100", "--temperature-k", "300", "--species", "x"],
           {"species": [{"name": "X", "mass_kg": 2.2e-25, "tau0_ns": 3.3, **entry}]},
           "species.json: species 'X': int too large to convert to float\n")
          for entry in ({"mass_kg": 10**400}, {"tau0_ns": 10**400},
                        {"schemes": [{"label": "uv", "wavelengths_nm": [10**400],
                                      "signs": [1]}]})),
    ])
    def test_bad_species_config_is_domain_error(self, command, config, named, tmp_path,
                                                capsys):
        path = tmp_path / "species.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        assert main(command + ["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")
        assert named in captured.err

    def test_non_finite_json_value_is_domain_error(self, monkeypatch, capsys):
        import rydkit.cli as cli_mod

        monkeypatch.setattr(cli_mod.core, "rydberg_lifetime", lambda *args: float("inf"))
        assert main(["lifetime", "--n", "100", "--temperature-k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")

    def test_reproduction_failure_maps_to_3(self, monkeypatch, capsys):
        failing = ReproductionReport(entries=(
            ReproEntry("synthetic", 1.0, 2.0, -0.5, -0.1, 0.1, False),
        ))
        import rydkit.cli as cli_mod

        monkeypatch.setattr(cli_mod.report, "reproduce", lambda trials: failing)
        assert main(["reproduce"]) == 3
        assert "FAIL" in capsys.readouterr().out


def _command_flags(group, prefix=()):
    """Each leaf command path of the CLI, mapped to its sorted flag names."""
    flags = {}
    for name, command in group.commands.items():
        path = prefix + (name,)
        if hasattr(command, "commands"):
            flags.update(_command_flags(command, path))
        else:
            flags[" ".join(path)] = sorted(
                opt for p in command.params for opt in p.opts + p.secondary_opts
            )
    return flags


def _readme_json_examples():
    """The README's CLI examples that print JSON: no --out file, no grid."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(cmd)[1:] for cmd in block.replace("\\\n", " ").splitlines()
                if cmd.startswith("rydkit ")]
    return [argv for argv in examples if "--out" not in argv and argv[0] != "scan"]


class TestContract:
    """Every flag name and every output byte of the documented examples is fixed."""

    contract = json.loads((GOLDEN / "cli_contract.json").read_text())

    def test_flag_names_of_every_command(self):
        assert _command_flags(cli) == self.contract["flags"]

    def test_readme_examples_are_the_golden_examples(self):
        examples = _readme_json_examples()
        assert len(examples) == 14
        assert examples == [ex["argv"] for ex in self.contract["examples"]]

    @pytest.mark.parametrize("example", contract["examples"],
                             ids=lambda ex: " ".join(ex["argv"][:2]))
    def test_readme_example_stdout(self, runner, example):
        result = runner.invoke(cli, example["argv"], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.output == example["stdout"]


# Run in a fresh interpreter: in this process earlier tests have already imported scipy.
_LAZY_SCIPY = """
import contextlib, io, sys
import rydkit, rydkit.cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rydkit.cli.main(argv) == 0, argv

run(["budget", "loss", "--n-code", "20", "--t-ms", "2", "--tau-vac-s", "400"])
loaded = [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
assert not loaded, f"closed-form command loaded {sorted(loaded)[:5]}"
run(["gate-error", "stark", "--rabi-mhz", "20", "--epsilon", "1e-5",
     "--alpha0-ghz-cm2-v2", "205"])
assert "scipy.optimize" in sys.modules, "gate-error stark ran without scipy.optimize"
"""


def test_scipy_is_imported_by_its_solvers_only():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
