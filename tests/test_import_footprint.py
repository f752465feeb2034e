"""Which rydkit modules an import or a CLI command loads, each in a fresh interpreter.

``import rydkit`` is lazy and each command reaches its models through that
namespace, so a one-shot call does not pay for the modules it never uses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_LOADED = 'sorted(m for m in sys.modules if m == "rydkit" or m.startswith("rydkit."))'


def _fresh(code: str):
    """The value the last line of ``code`` prints as JSON, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_rydkit_loads_no_submodule():
    assert _fresh(f"import rydkit\nprint(json.dumps({_LOADED}))") == ["rydkit"]


def test_import_cli_loads_only_errors_and_units():
    assert _fresh(f"import rydkit.cli\nprint(json.dumps({_LOADED}))") == [
        "rydkit", "rydkit.cli", "rydkit.errors", "rydkit.units",
    ]


_EVERY = {path.stem for path in (Path(__file__).parents[1] / "src" / "rydkit").glob("*.py")}
_EVERY.discard("__init__")
_BUDGET = {"budget", "cli", "errors", "units"}
_GATE_ERROR = {"cli", "constants", "errors", "gate_error", "units"}
_DRESSING = {"cli", "dressing", "errors", "units"}
_POINT = ["--rabi-mhz", "20", "--detuning-mhz", "-100", "--defect-mhz", "-200", "--rc-um", "8.1"]

# Every command of the perfbench CLI mix, and reproduce: the rydkit modules it loads.
_FOOTPRINTS = {
    "budget-vacuum-lifetime": (
        ["budget", "vacuum-lifetime", "--n-code", "20", "--epsilon", "1e-4"], _BUDGET),
    "budget-reload-rate": (
        ["budget", "reload-rate", "--n-phys", "2000", "--tau-vac-s", "400", "--epsilon", "1e-4"],
        _BUDGET),
    "budget-loss": (
        ["budget", "loss", "--n-code", "20", "--t-ms", "2", "--tau-vac-s", "400"], _BUDGET),
    "budget-simulate": (
        ["budget", "simulate", "--n-code", "20", "--tau-vac-s", "400", "--t-ms", "2",
         "--trials", "1000", "--seed", "1"], _BUDGET),
    "budget-crosstalk": (
        ["budget", "crosstalk", "--wavelength-nm", "852", "--spacing-um", "4",
         "--numerical-aperture", "0.4", "--efficiency", "0.4"], _BUDGET),
    "gate-error-blockade": (
        ["gate-error", "blockade", "--blockade-mhz", "500", "--tau-us", "320"], _GATE_ERROR),
    "gate-error-interaction": (
        ["gate-error", "interaction", "--interaction-mhz", "1", "--tau-us", "320",
         "--qubit-ghz", "9.2"], _GATE_ERROR),
    "gate-error-dressing": (
        ["gate-error", "dressing", "--detuning-mhz", "100", "--tau-us", "320"], _GATE_ERROR),
    "gate-error-floors": (["gate-error", "floors"], _GATE_ERROR),
    "gate-error-spontaneous": (
        ["gate-error", "spontaneous", "--t-pi-ns", "100", "--epsilon", "1e-3"], _GATE_ERROR),
    "gate-error-stark": (
        ["gate-error", "stark", "--rabi-mhz", "20", "--epsilon", "1e-5",
         "--alpha0-ghz-cm2-v2", "1"], _GATE_ERROR),
    "doppler": (
        ["doppler", "--temperature-uk", "10", "--time-ns", "1000"], _GATE_ERROR | {"species"}),
    "doppler-scan": (
        ["doppler", "--scan", "--temp-points", "2", "--time-points", "2"], _EVERY - {"report"}),
    "lifetime": (
        ["lifetime", "--n", "100", "--temperature-k", "300"],
        {"cli", "constants", "core", "errors", "species", "units"}),
    "dressing-curve": (
        ["dressing", "curve", *_POINT, "--r-min-um", "1", "--r-max-um", "20", "--points", "5"],
        _DRESSING),
    "dressing-fom": (
        ["dressing", "fom", *_POINT, "--tau-us", "320", "--spacing-um", "4"], _DRESSING),
    "scan": (
        ["scan", "--quantity", "tau-vac", "--x-min", "4", "--x-max", "8", "--x-points", "2",
         "--y-min", "1e-4", "--y-max", "1e-3", "--y-points", "2"], _EVERY - {"report"}),
    "reproduce": (["reproduce", "--trials", "2000"], _EVERY),
}


@pytest.mark.parametrize("argv, modules", _FOOTPRINTS.values(), ids=_FOOTPRINTS)
def test_command_loads_only_its_models(argv, modules):
    loaded = _fresh(
        "import contextlib, io\nfrom rydkit.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
        f"print(json.dumps({_LOADED}))"
    )
    assert loaded == ["rydkit", *sorted(f"rydkit.{name}" for name in modules)]


def test_submodule_resolves_on_first_access():
    assert _fresh(
        "import rydkit\nbefore = 'rydkit.grid' in sys.modules\n"
        "print(json.dumps([before, rydkit.grid.__name__, rydkit.grid.scan is rydkit.scan]))"
    ) == [False, "rydkit.grid", True]


def test_unknown_name_raises_attribute_error():
    assert _fresh(
        "import rydkit\ntry:\n    rydkit.no_such_name\nexcept AttributeError as exc:\n"
        f"    print(json.dumps([str(exc), {_LOADED}]))"
    ) == ["module 'rydkit' has no attribute 'no_such_name'", ["rydkit"]]


def test_star_import_binds_exactly_all():
    bound, public = _fresh(
        "import rydkit\nnames = {}\nexec('from rydkit import *', names)\n"
        "print(json.dumps([sorted(set(names) - {'__builtins__'}), sorted(rydkit.__all__)]))"
    )
    assert bound == public
    assert len(public) == len(json.loads(
        (Path(__file__).parent / "golden" / "public_api.json").read_text()
    ))
