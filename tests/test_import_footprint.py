"""Which rydkit modules an import or a CLI command loads, each in a fresh interpreter.

``import rydkit`` is lazy and each command imports only the models it runs, so
a one-shot call does not pay for the modules it never uses.
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


@pytest.mark.parametrize("argv, unused", [
    (["budget", "loss", "--n-code", "20", "--t-ms", "2", "--tau-vac-s", "400"],
     {"dressing", "grid", "gate_error", "report"}),
    (["gate-error", "floors"], {"budget", "dressing", "grid", "report"}),
    (["dressing", "curve", "--rabi-mhz", "20", "--detuning-mhz", "-100", "--defect-mhz",
      "-200", "--rc-um", "8.1", "--r-min-um", "1", "--r-max-um", "20", "--points", "5"],
     {"budget", "core", "gate_error", "grid", "species", "report"}),
], ids=["budget-loss", "gate-error-floors", "dressing-curve"])
def test_command_loads_only_its_models(argv, unused):
    loaded = _fresh(
        "import contextlib, io\nfrom rydkit.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
        f"print(json.dumps({_LOADED}))"
    )
    assert "rydkit.cli" in loaded
    assert not {f"rydkit.{name}" for name in unused} & set(loaded)


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
