"""Which rydkit modules, and whether numpy, click, ``dataclasses`` or ``inspect``, an
import or a CLI command loads, each in a fresh interpreter.

``import rydkit`` is lazy, the CLI imports only the module of the command it runs,
and each command reaches its models through the lazy namespace, so a one-shot call
does not pay for the modules it never uses. The scalar commands also run without
numpy, whose import is most of a cold start, and without ``inspect`` (with ``ast``,
``dis`` and ``tokenize``) and ``dataclasses``, which imports it: rydkit's value types
are plain classes on ``errors._Record``. No call loads click: the CLI parses with the
standard library's argparse.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_WATCHED = ("click", "dataclasses", "inspect", "numpy", "rydkit")
_LOADED = f'sorted(m for m in sys.modules if m in {_WATCHED} or m.startswith("rydkit."))'
# numpy imports inspect itself (and a numpy version may import dataclasses): a command
# that loads numpy is not held to these
_NUMPY_MAY_LOAD = {"dataclasses", "inspect"}


def _fresh(code: str):
    """The value the last line of ``code`` prints as JSON, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_rydkit_loads_no_submodule():
    assert _fresh(f"import rydkit\nprint(json.dumps({_LOADED}))") == ["rydkit"]


def test_import_cli_loads_no_command_module():
    assert _fresh(f"import rydkit.cli\nprint(json.dumps({_LOADED}))") == [
        "rydkit", "rydkit.cli", "rydkit.errors",
    ]


_SRC = Path(__file__).parents[1] / "src" / "rydkit"
# The submodules of rydkit: its modules and the cli package.
_EVERY = {path.stem for path in _SRC.glob("*.py")} - {"__init__"} | {"cli"}
# The command modules of rydkit.cli, one per top-level command.
_COMMANDS = {f"cli.{path.stem}" for path in _SRC.glob("cli/[!_]*.py")}
_BUDGET = {"budget", "cli", "cli.budget", "errors"}
_GATE_ERROR = {"cli", "cli.gate_error", "constants", "errors", "gate_error", "units"}
_DOPPLER = {"cli", "cli.doppler", "constants", "errors", "gate_error", "species", "units"}
_DRESSING = {"cli", "cli.dressing", "dressing", "errors", "units"}
_POINT = ["--rabi-mhz", "20", "--detuning-mhz", "-100", "--defect-mhz", "-200", "--rc-um", "8.1"]

# --help, every command of the perfbench CLI mix, and reproduce: the rydkit modules it
# loads. A command loads its own command module and no other; --help loads all of them
# and no model module.
_FOOTPRINTS = {
    "help": (["--help"], {"cli", "errors", "units"} | _COMMANDS),
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
    "doppler": (["doppler", "--temperature-uk", "10", "--time-ns", "1000"], _DOPPLER),
    "doppler-scan": (
        ["doppler", "--scan", "--temp-points", "2", "--time-points", "2"], _DOPPLER | {"grid"}),
    "lifetime": (
        ["lifetime", "--n", "100", "--temperature-k", "300"],
        {"cli", "cli.lifetime", "constants", "core", "errors", "species", "units"}),
    "dressing-curve": (
        ["dressing", "curve", *_POINT, "--r-min-um", "1", "--r-max-um", "20", "--points", "5"],
        _DRESSING | {"grid"}),
    "dressing-fom": (
        ["dressing", "fom", *_POINT, "--tau-us", "320", "--spacing-um", "4"], _DRESSING),
    "scan": (
        ["scan", "--quantity", "tau-vac", "--x-min", "4", "--x-max", "8", "--x-points", "2",
         "--y-min", "1e-4", "--y-max", "1e-3", "--y-points", "2"],
        {"budget", "cli", "cli.scan", "errors", "grid"}),
    "reproduce": (["reproduce", "--trials", "2000"], _EVERY | {"cli.reproduce"}),
}
# The commands that load numpy; every other one runs without it.
_LOADS_NUMPY = {"budget-simulate", "doppler-scan", "dressing-curve", "scan", "reproduce"}


@pytest.mark.parametrize("command", _FOOTPRINTS)
def test_command_loads_only_its_models(command):
    argv, modules = _FOOTPRINTS[command]
    loaded = _fresh(
        "import contextlib, io\nfrom rydkit.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
        f"print(json.dumps({_LOADED}))"
    )
    numpy = ["numpy"] if command in _LOADS_NUMPY else []
    if numpy:
        loaded = [name for name in loaded if name not in _NUMPY_MAY_LOAD]
    assert loaded == [*numpy, "rydkit", *sorted(f"rydkit.{name}" for name in modules)]


def test_no_module_imports_dataclasses():
    """No module of rydkit imports ``dataclasses``: its records are ``errors._Record``s."""
    for path in _SRC.rglob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "dataclasses" not in imported, path


def test_importtime_logs_the_lazily_loaded_modules():
    """``-X importtime`` sees the command module and the model module a call loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "from rydkit.cli import main; main(['gate-error', 'floors'])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"rydkit.cli.gate_error", "rydkit.gate_error"} <= logged


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


def test_dir_lists_every_name_and_submodule_without_loading_them():
    import rydkit

    listed, loaded = _fresh(f"import rydkit\nprint(json.dumps([dir(rydkit), {_LOADED}]))")
    exported = {name for names in rydkit._EXPORTS.values() for name in names}
    assert exported | _EVERY <= set(listed)
    assert listed == sorted(listed)
    assert loaded == ["rydkit"]


def test_star_import_binds_exactly_all():
    bound, public = _fresh(
        "import rydkit\nnames = {}\nexec('from rydkit import *', names)\n"
        "print(json.dumps([sorted(set(names) - {'__builtins__'}), sorted(rydkit.__all__)]))"
    )
    assert bound == public
    assert len(public) == len(json.loads(
        (Path(__file__).parent / "golden" / "public_api.json").read_text()
    ))


# The model modules imported while numpy is absent, numpy imported after them:
# the array paths look numpy up when called, not when their module was imported.
_NUMPY_LATE = """
import warnings
from rydkit import budget, core, dressing, gate_error
from rydkit.errors import DomainError, _float_range, in_range
assert "numpy" not in sys.modules
import numpy as np
warnings.simplefilter("error", RuntimeWarning)  # as in Tier-1


def message(call):
    try:
        call()
    except DomainError as exc:
        return str(exc)


with _float_range("x"):
    overflowed = (np.array([1e308]) * 10.0).tolist()
print(json.dumps({
    "blockade": gate_error.blockade_gate_error(np.array([1e8, 1e9, 1e10]), 1e-3).tolist(),
    "lifetime": core.rydberg_lifetime(
        np.array([[50.0], [100.0]]), np.array([0.0, 300.0]), 3.3e-9).tolist(),
    "loss": budget.loss_probability(np.array([5.0, 1e4]), 2e-3, 1.0).tolist(),
    "signs": message(lambda: dressing.blockade_radius(np.array([1e9, -1e9]), 2e9, 1e-6)),
    "index": message(lambda: in_range("rabi", np.array([1.0, np.nan, 2.0]))),
    "overflowed": overflowed,
    "array overflow": message(
        lambda: budget.required_vacuum_lifetime(np.array([20.0, 1e300]), 1e10, 1e-3)),
    "scalar overflow": message(lambda: core.rydberg_lifetime(1e200, 300.0, 3.3e-9)),
}))
"""


def test_numpy_imported_after_the_models():
    from rydkit import budget, core, gate_error

    got = _fresh(_NUMPY_LATE)
    assert got["blockade"] == [gate_error.blockade_gate_error(b, 1e-3) for b in (1e8, 1e9, 1e10)]
    assert got["lifetime"] == [
        [core.rydberg_lifetime(n, t, 3.3e-9) for t in (0.0, 300.0)] for n in (50.0, 100.0)
    ]
    assert got["loss"] == [budget.loss_probability(5.0, 2e-3, 1.0), 1.0]
    assert got["signs"].startswith("detuning and Foerster defect have opposite signs")
    assert got["index"] == "rabi must be finite and in (0, inf), got nan at index (1,)"
    assert got["overflowed"] == [float("inf")]
    assert got["array overflow"] == (
        "tau_vac must be finite and in (0, inf), got inf at index (1,)"
    )
    assert got["scalar overflow"] == "lifetime is out of float range"
