import argparse
import ast
import contextlib
import errno
import inspect
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rydkit.cli
from rydkit.cli import main
from rydkit.errors import ModelValidityWarning
from rydkit.report import ReproductionReport, ReproEntry

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def invoke(args) -> str:
    """The stdout of ``main(args)``, run in-process, which must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(args) == 0, args
    return out.getvalue()


def run_json(args):
    return json.loads(invoke(args))


class TestBudgetCommands:
    def test_vacuum_lifetime(self):
        out = run_json([
            "budget", "vacuum-lifetime", "--n-code", "20",
            "--t-qec-ms", "2", "--epsilon", "1e-4",
        ])
        assert out["tau_vac_s"] == 400.0

    def test_vacuum_lifetime_default_cycle_time(self):
        out = run_json([
            "budget", "vacuum-lifetime", "--n-code", "20", "--epsilon", "1e-4",
        ])
        assert out["t_qec_ms"] == pytest.approx(2.0, rel=1e-12)
        assert out["tau_vac_s"] == pytest.approx(400.0, rel=1e-12)

    def test_reload_rate(self):
        out = run_json([
            "budget", "reload-rate", "--n-phys", "2000",
            "--tau-vac-s", "400", "--epsilon", "1e-4",
        ])
        assert out["r_load_per_s"] == 5e4

    def test_simulate_reports_trials_estimate_stderr(self):
        out = run_json([
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

    def test_crosstalk(self):
        out = run_json([
            "budget", "crosstalk", "--wavelength-nm", "852", "--spacing-um", "4.26",
            "--numerical-aperture", "0.5", "--efficiency", "0.5",
        ])
        assert out["eta_abs"] == pytest.approx(1.5198e-3, rel=1e-4)
        assert out["eta_det"] == pytest.approx(3.3494e-2, rel=1e-4)
        assert out["ratio"] == pytest.approx(4.5376e-2, rel=1e-4)


class TestGateErrorCommands:
    def test_blockade(self):
        out = run_json([
            "gate-error", "blockade", "--blockade-mhz", "500", "--tau-us", "320",
        ])
        assert out["rabi_opt_mhz"] == pytest.approx(13.9836, rel=1e-4)
        assert out["error_min"] == pytest.approx(2.9331e-4, rel=1e-4)
        assert out["entanglement_bound"] == pytest.approx(1.9894e-6, rel=1e-4)

    def test_blockade_total_above_one_is_flagged(self):
        # B tau = 6e4 keeps blockade_gate_error quiet; the spontaneous part alone is 8.75
        with pytest.warns(ModelValidityWarning, match="total error = 8.75 > 1") as record:
            out = run_json([
                "gate-error", "blockade", "--blockade-mhz", "100", "--tau-us", "100",
                "--rabi-mhz", "0.001",
            ])
        assert len(record) == 1
        assert out["error_at_rabi"] == out["spontaneous"] + out["blockade_leakage"]

    def test_floors(self):
        out = run_json(["gate-error", "floors"])
        assert out["blockade_floor"] == pytest.approx(1.76313e-5, rel=1e-4)
        assert out["dressing_floor"] == pytest.approx(1.21399e-3, rel=1e-4)

    def test_interaction(self):
        out = run_json([
            "gate-error", "interaction", "--interaction-mhz", "1",
            "--tau-us", "320", "--qubit-ghz", "9.19",
        ])
        assert out["error"] == pytest.approx(1.8766e-3, rel=1e-4)
        assert out["error_min"] == pytest.approx(1.4012e-3, rel=1e-4)

    def test_stark(self):
        out = run_json([
            "gate-error", "stark", "--rabi-mhz", "20", "--epsilon", "1e-5",
            "--alpha0-ghz-cm2-v2", "205",
        ])
        assert out["detuning_limit_khz"] == pytest.approx(63.25, rel=1e-3)

    def test_spontaneous(self):
        out = run_json([
            "gate-error", "spontaneous", "--t-pi-ns", "25", "--epsilon", "1e-4",
        ])
        assert out["tau_min_us"] == pytest.approx(437.5, rel=1e-12)


class TestDopplerCommand:
    def test_point_value(self):
        out = run_json(["doppler", "--temperature-uk", "5", "--time-ns", "100"])
        assert out["infidelity"] == pytest.approx(3.033e-4, rel=1e-3)
        assert out["fidelity"] == pytest.approx(1 - 3.033e-4, rel=1e-6)

    def test_requires_point_without_scan(self):
        assert main(["doppler", "--temperature-uk", "5"]) == 1

    def test_scan_matches_golden_file(self):
        output = invoke([
            "doppler", "--scan", "--temp-min-uk", "1", "--temp-max-uk", "100",
            "--temp-points", "5", "--time-min-ns", "10", "--time-max-ns", "1000",
            "--time-points", "4",
        ])
        assert output == (GOLDEN / "doppler_grid.csv").read_text()

    def test_scan_deterministic(self):
        args = ["doppler", "--scan", "--temp-points", "3", "--time-points", "3"]
        first = invoke(args)
        second = invoke(args)
        assert first == second


class TestLifetimeCommand:
    def test_species_default(self):
        out = run_json(["lifetime", "--n", "100", "--temperature-k", "0"])
        assert out["lifetime_s"] == pytest.approx(3.3e-3, rel=1e-9)

    def test_tau0_override(self):
        out = run_json([
            "lifetime", "--n", "100", "--temperature-k", "0", "--tau0-ns", "6.6",
        ])
        assert out["lifetime_s"] == pytest.approx(6.6e-3, rel=1e-9)

    def test_domain_error_exit_code(self):
        assert main(["lifetime", "--n", "5", "--temperature-k", "300"]) == 2

    def test_config_file_overrides_builtin(self, tmp_path):
        config = tmp_path / "species.json"
        config.write_text(json.dumps({"species": [{
            "name": "Cs", "mass_kg": 2.2069e-25, "tau0_ns": 6.6,
            "qubit_freq_ghz": 9.1926,
            "schemes": [{"label": "one-photon", "wavelengths_nm": [319.0], "signs": [1]}],
        }]}))
        out = run_json([
            "lifetime", "--n", "100", "--temperature-k", "0", "--config", str(config),
        ])
        assert out["lifetime_s"] == pytest.approx(6.6e-3, rel=1e-9)
        # explicit flag still wins over the config value
        out = run_json([
            "lifetime", "--n", "100", "--temperature-k", "0",
            "--config", str(config), "--tau0-ns", "3.3",
        ])
        assert out["lifetime_s"] == pytest.approx(3.3e-3, rel=1e-9)


class TestDressingCommands:
    def test_fom_worked_example(self):
        out = run_json([
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

    def test_fom_accepts_c3_instead_of_rc(self):
        out = run_json([
            "dressing", "fom", "--rabi-mhz", "20", "--detuning-mhz", "-100",
            "--defect-mhz", "-200", "--c3-ghz-um3", "15.341380220420195",
            "--tau-us", "320", "--spacing-um", "1",
        ])
        assert out["rc_um"] == pytest.approx(8.1, rel=1e-9)

    def test_curve_matches_golden_file(self):
        output = invoke([
            "dressing", "curve", "--rabi-mhz", "1", "--detuning-mhz", "10",
            "--defect-mhz", "20", "--rc-um", "1.5", "--r-min-um", "0.25",
            "--r-max-um", "5", "--points", "9",
        ])
        assert output == (GOLDEN / "dressing_curve.csv").read_text()

    @pytest.mark.parametrize("points, r_max", [("-1", "20"), ("0", "20"), ("1", "20")])
    def test_curve_without_a_valid_separation_axis_is_domain_error(self, points, r_max, capsys):
        code = main([
            "dressing", "curve", "--rabi-mhz", "1", "--detuning-mhz", "10",
            "--defect-mhz", "20", "--rc-um", "1.5", "--r-min-um", "1",
            "--r-max-um", r_max, "--points", points,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:") and captured.err.count("\n") == 1

    def test_sign_mismatch_exit_code(self, capsys):
        code = main([
            "dressing", "fom", "--rabi-mhz", "20", "--detuning-mhz", "100",
            "--defect-mhz", "-200", "--rc-um", "8.1", "--tau-us", "320",
            "--spacing-um", "1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:") and captured.err.count("\n") == 1


class TestScanCommand:
    def test_tau_vac_grid(self):
        output = invoke([
            "scan", "--quantity", "tau-vac",
            "--x-min", "4", "--x-max", "100", "--x-points", "13",
            "--y-min", "1e-5", "--y-max", "1e-2", "--y-points", "4", "--y-scale", "log",
        ])
        from rydkit.grid import ScanGrid

        grid = ScanGrid.from_csv(output)
        assert grid.x_axis.values[2] == 20.0
        assert grid.cell(2, 1) == pytest.approx(400.0, rel=1e-9)

    def test_set_overrides(self):
        output = invoke([
            "scan", "--quantity", "tau-vac",
            "--x-min", "20", "--x-max", "20", "--x-points", "1",
            "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1",
            "--set", "t_qec_ms=4",
        ])
        from rydkit.grid import ScanGrid

        assert ScanGrid.from_csv(output).cell(0, 0) == pytest.approx(800.0, rel=1e-9)

    def test_bad_set_syntax(self):
        assert main([
            "scan", "--quantity", "tau-vac",
            "--x-min", "20", "--x-max", "20", "--x-points", "1",
            "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1",
            "--set", "oops",
        ]) == 1

    def test_out_file(self, tmp_path):
        target = tmp_path / "grid.csv"
        invoke([
            "scan", "--quantity", "lifetime",
            "--x-min", "50", "--x-max", "150", "--x-points", "3",
            "--y-min", "4", "--y-max", "300", "--y-points", "2", "--y-scale", "log",
            "--out", str(target),
        ])
        assert target.read_text().startswith("# quantity: lifetime")

    def test_quantity_choices_are_the_scan_registry(self):
        from rydkit.grid import SCAN_QUANTITIES

        (quantity,) = [a for a in dict(_walk(ROOT))[("scan",)]._actions if a.dest == "quantity"]
        assert list(quantity.choices) == sorted(SCAN_QUANTITIES)

    def test_unknown_quantity_is_a_usage_error(self, capsys):
        assert main(["scan", "--quantity", "nope", "--x-min", "1", "--x-max", "2",
                     "--x-points", "2", "--y-min", "1", "--y-max", "2", "--y-points", "2"]) == 1
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        # the root imports no command module, yet suggests from every command name
        for name, error in [
            ("frobnicate", "Error: No such command 'frobnicate'.\n"),
            ("gate-eror", "Error: No such command 'gate-eror'. Did you mean 'gate-error'?\n"),
        ]:
            assert main([name]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith("\n\n" + error)

    def test_success(self):
        assert main(["gate-error", "floors"]) == 0

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: rydkit")

    def test_interrupted_command_exits_one_with_empty_stdout(self, monkeypatch, capsys):
        def interrupted(tau0):
            raise KeyboardInterrupt

        monkeypatch.setattr("rydkit.gate_error.asymptotic_dressing_floor", interrupted)
        assert main(["gate-error", "floors"]) == 1
        assert capsys.readouterr().out == ""

    def test_reproduce_success_exit_code(self, capsys):
        assert main(["reproduce", "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_reproduce_with_too_few_trials_is_domain_error(self, capsys):
        assert main(["reproduce", "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "domain error: trials must be finite and in [1000, inf), got 10\n"
        )

    def test_reproduce_json_out_writes_the_golden_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["reproduce", "--json-out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / "reproduce.json").read_bytes()

    def test_reproduce_json_out_with_a_nan_is_domain_error(self, monkeypatch, tmp_path, capsys):
        nan = float("nan")
        failing = ReproductionReport(entries=(ReproEntry("nan", nan, 1.0, nan, 0.0, 0.0, False),))
        monkeypatch.setattr("rydkit.report.reproduce", lambda trials: failing)
        target = tmp_path / "report.json"
        assert main(["reproduce", "--json-out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("domain error: output holds a NaN")
        assert not target.exists()

    @pytest.mark.parametrize("args", [
        ["budget", "loss", "--n-code", "5", "--t-ms", "nan", "--tau-vac-s", "400"],
        ["doppler", "--temperature-uk", "nan", "--time-ns", "100"],
        ["budget", "vacuum-lifetime", "--n-code", "10", "--t-qec-ms", "1e307",
         "--epsilon", "1e-300"],
        ["scan", "--quantity", "tau-vac", "--x-min", "20", "--x-max", "20", "--x-points", "1",
         "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1", "--set", "t_qec_ms=abc"],
        ["scan", "--quantity", "tau-vac", "--x-min", "20", "--x-max", "20", "--x-points", "1",
         "--y-min", "1e-4", "--y-max", "1e-4", "--y-points", "1", "--set", "bogus=1"],
    ])
    def test_non_finite_input_or_result_is_domain_error(self, args, capsys):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:") and captured.err.count("\n") == 1

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

    def test_overflow_is_named_by_its_expression(self, capsys):
        assert main(["dressing", "curve", "--rabi-mhz", "1e300", "--detuning-mhz", "10",
                     "--defect-mhz", "10", "--rc-um", "5", "--r-min-um", "1", "--r-max-um", "2",
                     "--points", "3"]) == 2
        assert capsys.readouterr().err == (
            "domain error: Delta^2 + Omega^2 must be finite and in [0, inf), got inf\n")

    def test_non_finite_json_value_is_domain_error(self, monkeypatch, capsys):
        monkeypatch.setattr("rydkit.core.rydberg_lifetime", lambda *args: float("inf"))
        assert main(["lifetime", "--n", "100", "--temperature-k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")

    def test_reproduction_failure_maps_to_3(self, monkeypatch, capsys):
        failing = ReproductionReport(entries=(
            ReproEntry("synthetic", 1.0, 2.0, -0.5, -0.1, 0.1, False),
        ))
        monkeypatch.setattr("rydkit.report.reproduce", lambda trials: failing)
        assert main(["reproduce"]) == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["doppler", "--scan", "--temp-points", "2", "--time-points", "2", "--out", "DIR"],
        ["scan", "--quantity", "tau-vac", "--x-min", "4", "--x-max", "8", "--x-points", "2",
         "--y-min", "1e-4", "--y-max", "1e-3", "--y-points", "2", "--out", "MISSING"],
        ["reproduce", "--trials", "2000", "--json-out", "DIR"],
    ], ids=lambda argv: argv[0])
    def test_failed_output_write_is_one_error_line(self, argv, tmp_path, capsys):
        paths = {"DIR": str(tmp_path), "MISSING": str(tmp_path / "missing" / "x.csv")}
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"Error: Could not open file '[^\n]+': [^\n]+\n", captured.err)

    @pytest.mark.parametrize("command", [
        ["lifetime", "--n", "100", "--temperature-k", "300"],
        ["doppler", "--temperature-uk", "10", "--time-ns", "1000"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("path", ["DIR", "MISSING"])
    def test_config_that_cannot_be_opened_is_one_usage_error_line(self, command, path, tmp_path,
                                                                  capsys):
        path = str(tmp_path if path == "DIR" else tmp_path / "missing.json")
        assert main([*command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"Error: Invalid value for '--config': {re.escape(repr(path))}: "
                            r"[^\n]+\n", captured.err)

    @pytest.mark.parametrize("argv", [
        ["gate-error", "blockade", "--blockade", "10", "--tau-us", "100"],
        ["gate-error", "blockade", "--blockade-mhz=10", "--tau-us", "100", "--rabi", "1"],
        ["gate-error", "blockade", "--blockade-mhz", "10", "--tau-us", "100", "-h"],
    ], ids=["abbreviated", "abbreviated-optional", "short-help"])
    def test_abbreviated_or_short_flag_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # an unknown flag is the error of the command that does not know it, with its usage
        assert captured.err.startswith("usage: rydkit gate-error blockade [--help] ")
        assert captured.err.count("\nError: ") == 1

    def test_unrecognized_word_is_reported_with_its_command_usage(self, capsys):
        assert main(["gate-error", "floors", "--tau0-ns", "3", "extra"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rydkit gate-error floors [--help] ")
        assert err.endswith("\nError: unrecognized arguments: extra\n")
        assert err.count("usage: ") == 1

    @pytest.mark.parametrize("value, code", [("-1e3", 0), ("-2.5E+2", 0), ("-inf", 2),
                                             ("-nan", 2), ("-Infinity", 2)])
    def test_negative_value_in_any_float_spelling_is_a_value(self, value, code, capsys):
        # detuning and defect share a sign; a value that is not finite is a domain error
        assert main(["dressing", "curve", "--rabi-mhz", "1", "--detuning-mhz", value,
                     "--defect-mhz", "-2e3", "--rc-um", "5", "--r-min-um", "1",
                     "--r-max-um", "2", "--points", "3"]) == code
        assert capsys.readouterr().err.startswith("domain error: " if code else "")


# The root parser as --help builds it: with every command.
ROOT = rydkit.cli._parser("--help")


def _walk(parser, prefix=()):
    """(path, parser) of every command under ``parser``, from its declared actions."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, command in action.choices.items():
                yield prefix + (name,), command
                yield from _walk(command, prefix + (name,))


def _command_flags(root):
    """Each leaf command path of the CLI, mapped to its sorted flag names but --help."""
    return {
        " ".join(path): sorted(opt for action in command._actions if action.dest != "help"
                               for opt in action.option_strings)
        for path, command in _walk(root) if command.get_default("run")
    }


def test_every_command_is_reachable_with_help(capsys):
    """Each listed name has a command module, and each module a listed name."""
    modules = {m.name for m in pkgutil.iter_modules(rydkit.cli.__path__)
               if not m.name.startswith("_")}
    listed = [path[0] for path, _ in _walk(ROOT) if len(path) == 1]
    assert listed == list(rydkit.cli._COMMANDS)
    assert {name.replace("-", "_") for name in listed} == modules
    for path in [(), *(path for path, _ in _walk(ROOT))]:
        assert main([*path, "--help"]) == 0, path
        assert capsys.readouterr().out.startswith(" ".join(("usage: rydkit", *path)))


def _default(path, dest):
    """The default of the option ``dest`` of the command at ``path``."""
    (action,) = [a for a in dict(_walk(ROOT))[path]._actions if a.dest == dest]
    return action.default


# The copies that stay literals, since --help and the lazily loading grid import no model
# module: each, as its reader uses it, equals its home.
@pytest.mark.parametrize("copy, home", [
    pytest.param(lambda: _default(("gate-error", "floors"), "tau0_ns") * 1e-9,
                 lambda: rydkit.species.CESIUM.tau0, id="gate-error floors --tau0-ns"),
    pytest.param(lambda: rydkit.grid.SCAN_QUANTITIES["lifetime"].defaults["tau0_ns"] * 1e-9,
                 lambda: rydkit.species.CESIUM.tau0, id="scan lifetime tau0_ns"),
    *(pytest.param(lambda leaf=leaf: _default(("dressing", leaf), "d_kl"),
                   lambda: rydkit.dressing._D_KL, id=f"dressing {leaf} --d-kl")
      for leaf in ("curve", "fom")),
    pytest.param(lambda: _default(("reproduce",), "trials"),
                 lambda: inspect.signature(rydkit.report.reproduce).parameters["trials"].default,
                 id="reproduce --trials"),
    pytest.param(lambda: rydkit.cli.scan._SCAN_QUANTITIES,
                 lambda: tuple(sorted(rydkit.grid.SCAN_QUANTITIES)), id="scan --quantity"),
])
def test_literal_copy_is_its_home(copy, home):
    assert copy() == home()


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
        assert _command_flags(ROOT) == self.contract["flags"]

    def test_readme_examples_are_the_golden_examples(self):
        examples = _readme_json_examples()
        assert len(examples) == 14
        assert examples == [ex["argv"] for ex in self.contract["examples"]]

    @pytest.mark.parametrize("example", contract["examples"],
                             ids=lambda ex: " ".join(ex["argv"][:2]))
    def test_readme_example_stdout(self, example):
        assert invoke(example["argv"]) == example["stdout"]


def readme_commands() -> list[list[str]]:
    """The argv of every ``rydkit ...`` line in README's ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("rydkit ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --out and --json-out write here
    assert main(argv[1:]) == 0


# A fresh interpreter in which any import of scipy fails.
_NO_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None
import rydkit, rydkit.cli

for argv in (
    ["gate-error", "stark", "--rabi-mhz", "20", "--epsilon", "1e-5",
     "--alpha0-ghz-cm2-v2", "205"],
    ["reproduce"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rydkit.cli.main(argv) == 0, argv
"""


def test_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# A fresh interpreter in which any import of numpy fails; argv holds the examples' argv.
_NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import rydkit.cli

outputs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert rydkit.cli.main(argv) == 0, argv
    outputs.append(out.getvalue())
print(json.dumps(outputs))
"""


def test_scalar_examples_run_without_numpy():
    examples = [ex for ex in TestContract.contract["examples"]
                if ex["argv"][:2] != ["budget", "simulate"]]  # its RNG is numpy's
    assert len(examples) == 13
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = json.dumps([ex["argv"] for ex in examples])
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [ex["stdout"] for ex in examples]


# The two ways a process runs the CLI: as the console script does, and as a module.
_ENTRY = "import sys; from rydkit.cli import main; sys.exit(main())"
_SCRIPT = [sys.executable, "-c", _ENTRY]
_MODULE = [sys.executable, "-m", "rydkit.cli"]


def _process(cmd, argv, stdout=subprocess.PIPE, **env):
    """A fresh interpreter running ``cmd + argv`` with ``src`` on its path.

    ``env`` adds to the environment; a variable given as None is removed.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "COLUMNS": "80", **env}  # COLUMNS: the help's line width
    return subprocess.run(cmd + argv, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
                          env={k: v for k, v in env.items() if v is not None})


def _process_cases():
    """One golden example per command module, the help, a usage error and a domain error."""
    examples = {}
    for ex in TestContract.contract["examples"]:
        examples.setdefault(ex["argv"][0], ex["argv"])
    return [pytest.param(argv, id=name) for name, argv in examples.items()] + [
        pytest.param(["--help"], id="help"),
        pytest.param(["lifetime", "--n", "100"], id="usage-error"),  # no --temperature-k
        pytest.param(["lifetime", "--n", "5", "--temperature-k", "300"], id="domain-error"),
    ]


@pytest.mark.parametrize("cmd", [_SCRIPT, _MODULE], ids=["script", "module"])
@pytest.mark.parametrize("argv", _process_cases())
def test_process_matches_in_process_main(cmd, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    proc = _process(cmd, argv)
    assert (proc.returncode, proc.stdout) == (code, out.getvalue().encode())


_ATEXIT = "import atexit, sys; atexit.register(print, 'atexit ran'); "


# What stdout holds after the command's JSON: main() ends the process without the
# interpreter's exit, unless a profiler must write its report there; cProfile writes
# its report once main() returns
@pytest.mark.parametrize(("cmd", "after"), [
    pytest.param(["-c", _ATEXIT + _ENTRY], rb"", id="plain"),
    pytest.param(["-c", _ATEXIT + "sys.setprofile(lambda *args: None); " + _ENTRY],
                 rb"atexit ran\n", id="profiled"),
    pytest.param(["-m", "cProfile", "-m", "rydkit.cli"], rb"\s+\d+ function calls .*",
                 id="cprofile"),
])
def test_atexit_handlers_run_only_under_a_profiler(cmd, after):
    proc = _process([sys.executable, *cmd], ["gate-error", "floors"])
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(rb"\{\n[^}]*\}\n" + after, proc.stdout, re.S), proc.stdout[:300]


# A JSON and a CSV command, each writing only to stdout.
_STDOUT_WRITERS = [
    pytest.param(["gate-error", "floors"], id="json"),
    pytest.param(["scan", "--quantity", "tau-vac", "--x-min", "4", "--x-max", "8",
                  "--x-points", "3", "--y-min", "1e-4", "--y-max", "1e-3", "--y-points", "2"],
                 id="csv"),
]


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", _STDOUT_WRITERS + [
    pytest.param(["--help"], id="help"),
    pytest.param(["gate-error", "--help"], id="group-help"),
])
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe fails with EPIPE
    try:
        proc = _process(_MODULE, argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.decode() == (
        f"Error: Could not write to stdout: {os.strerror(errno.EPIPE)}\n")


# The module run with its fd 1 closed before it starts: Python's sys.stdout is then None.
_STDOUT_CLOSED = ["sh", "-c", 'exec "$@" >&-', "sh", *_MODULE]


@pytest.mark.parametrize("argv", _STDOUT_WRITERS + [pytest.param(["--help"], id="help")])
def test_stdout_closed_at_start_is_one_error_line(argv):
    proc = _process(_STDOUT_CLOSED, argv)
    assert proc.returncode == 1
    assert proc.stderr.decode() == (
        f"Error: Could not write to stdout: {os.strerror(errno.EBADF)}\n")


def test_stdout_closed_at_start_is_no_error_for_an_out_file(tmp_path):
    out = tmp_path / "grid.csv"
    proc = _process(_STDOUT_CLOSED, ["doppler", "--scan", "--temp-points", "3",
                                     "--time-points", "2", "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text().count("\n") == 6  # 3 comment lines, the header and 2 rows


# The module run with its fd 2 unwritable from the start: closed, so that Python's
# sys.stderr is None, or open for reading only, so that every write to it fails.
_STDERR_UNWRITABLE = [
    pytest.param('exec "$@" 2>&-', id="closed"),
    pytest.param('exec "$@" 2</dev/null', id="read-only"),
]


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("shell", _STDERR_UNWRITABLE)
@pytest.mark.parametrize(("argv", "code", "stdout"), [
    pytest.param(["lifetime", "--n", "5", "--temperature-k", "300"], 2, "", id="domain-error"),
    pytest.param(["lifetime", "--n", "100"], 1, "", id="usage-error"),  # no --temperature-k
    pytest.param(*[(ex["argv"], 0, ex["stdout"]) for ex in TestContract.contract["examples"]
                   if ex["argv"][:2] == ["gate-error", "floors"]][0], id="json"),
])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, stdout, shell, unbuffered):
    # the error line is dropped; it goes neither to stdout nor into a traceback
    proc = _process(["sh", "-c", shell, "sh", *_MODULE], argv, PYTHONUNBUFFERED=unbuffered)
    assert (proc.returncode, proc.stdout.decode()) == (code, stdout)


def test_only_emit_writes_stdout():
    """In rydkit.cli no code but ``_emit`` names stdout."""
    written = 0
    for path in Path(rydkit.cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        emit = {id(node) for fn in tree.body if getattr(fn, "name", None) == "_emit"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if "stdout" in (getattr(node, "attr", None), getattr(node, "id", None)):
                assert id(node) in emit, (path.name, node.lineno, ast.unparse(node))
                written += 1
    assert written  # _emit itself does


def test_only_note_writes_stderr():
    """In rydkit.cli no code but ``_note`` names stderr, and no code calls print()."""
    written = 0
    for path in Path(rydkit.cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        note = {id(node) for fn in tree.body if getattr(fn, "name", None) == "_note"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if "stderr" in (getattr(node, "attr", None), getattr(node, "id", None)):
                assert id(node) in note, (path.name, node.lineno, ast.unparse(node))
                written += 1
            assert not (isinstance(node, ast.Call) and ast.unparse(node.func) == "print"), (
                path.name, node.lineno)
    assert written  # _note itself does
