"""How a model says that a call left its regime: one warning per call, naming the caller.

Every public function that flags is called outside its regime, as a scalar and
(where it takes one) as an ndarray. Each call gives exactly one warning, of its
category and text, at the line of this file that made the call.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from rydkit import budget, dressing, gate_error
from rydkit.dressing import _dressing_params
from rydkit.errors import BranchResidualWarning, ModelValidityWarning, _flag
from rydkit.units import TWO_PI

A = np.array
D = TWO_PI * 1e8
# near D = 2 Delta the pair state is degenerate with |gg>; only the first point keeps a residue
DET = A([D, -D, D, -D])
SHIFT = 2.0 * DET * A([1 + 1e-12, 1 - 1e-12, 1 + 1e-9, 1 - 1e-6])
SRC = Path(__file__).parents[1] / "src" / "rydkit"

B_TAU = "B tau = {} < 10: outside the strong-blockade regime of the error model"
ABOVE_ONE = "{} > 1: outside the regime of the error model"
LOSS = ("per-block loss probability {} > 1; linearized model left its validity range, "
        "clamping to 1")
RESIDUE = "cubic root kept imaginary residue 8.33e-17 vs value 5e-13 at 1 of {} points"

# (call, category, text); each call stays on one line, the line the warning names.
CALLS = {
    "blockade_gate_error": (
        lambda: gate_error.blockade_gate_error(1.0, 1.0),
        ModelValidityWarning, B_TAU.format(1)),
    "blockade_gate_error[array]": (
        lambda: gate_error.blockade_gate_error(A([1.0, 100.0, 0.5]), 1.0),
        ModelValidityWarning, B_TAU.format(0.5)),
    "entanglement_error_bound": (
        lambda: gate_error.entanglement_error_bound(1.0, 1.0),
        ModelValidityWarning, ABOVE_ONE.format("entanglement error bound = 2")),
    "entanglement_error_bound[array]": (
        lambda: gate_error.entanglement_error_bound(A([[1.0, 0.1], [100.0, 3.0]]), 1.0),
        ModelValidityWarning, ABOVE_ONE.format("entanglement error bound = 20")),
    "interaction_gate_error": (
        lambda: gate_error.interaction_gate_error(1.0, 1.0, 1e10),
        ModelValidityWarning, ABOVE_ONE.format("interaction gate error = 3.14159")),
    "interaction_gate_error[array]": (
        lambda: gate_error.interaction_gate_error(A([1.0, 0.3]), 1.0, 1e10),
        ModelValidityWarning, ABOVE_ONE.format("interaction gate error = 10.472")),
    "minimal_interaction_gate_error": (
        lambda: gate_error.minimal_interaction_gate_error(1.0, 1.0),
        ModelValidityWarning, ABOVE_ONE.format("interaction gate error = 6.02296")),
    "minimal_interaction_gate_error[array]": (
        lambda: gate_error.minimal_interaction_gate_error(A([1.0, 1e9, 0.5]), 1.0),
        ModelValidityWarning, ABOVE_ONE.format("interaction gate error = 8.51774")),
    "dressing_gate_error": (
        lambda: gate_error.dressing_gate_error(1.0, 1.0),
        ModelValidityWarning, ABOVE_ONE.format("dressing gate error = 10.0265")),
    "dressing_gate_error[array]": (
        lambda: gate_error.dressing_gate_error(A([1.0, 0.2]), 1.0),
        ModelValidityWarning, ABOVE_ONE.format("dressing gate error = 22.42")),
    "blockade_error_budget": (
        lambda: gate_error.blockade_error_budget(1.0, 1.0, 1.0),
        ModelValidityWarning, ABOVE_ONE.format("total error = 5.62279")),
    "blockade_error_budget[array]": (
        lambda: gate_error.blockade_error_budget(A([1.0, 2.0]), 1.0, 1.0),
        ModelValidityWarning, ABOVE_ONE.format("total error = 5.62279")),
    "loss_probability": (
        lambda: budget.loss_probability(100, 1.0, 2.0),
        ModelValidityWarning, LOSS.format(39.3)),
    "loss_probability[array]": (
        lambda: budget.loss_probability(A([1.0, 100.0, 50.0]), 1.0, 2.0),
        ModelValidityWarning, LOSS.format(39.3)),
    "figures_of_merit": (
        lambda: dressing.figures_of_merit(_dressing_params(200, 100, 200, rc_um=8.1)),
        ModelValidityWarning,
        "|Omega| = 1.26e+09 >= |Delta| = 6.28e+08: outside the weak-dressing regime of the "
        "figures of merit"),
    "dressed_ground_energy_closed_form": (
        lambda: dressing.dressed_ground_energy_closed_form(0.2 * D, D, 2.0 * D * (1 + 1e-12)),
        BranchResidualWarning, RESIDUE.format(1)),
    "dressed_ground_energy_closed_form[array]": (
        lambda: dressing.dressed_ground_energy_closed_form(0.2 * D, DET, SHIFT),
        BranchResidualWarning, RESIDUE.format(4)),
}


@pytest.mark.parametrize("name", CALLS)
def test_one_warning_per_call_at_the_calling_line(name):
    call, category, text = CALLS[name]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        call()
    assert [(w.category, str(w.message)) for w in record] == [(category, text)]
    assert record[0].filename == __file__
    assert record[0].lineno == call.__code__.co_firstlineno


def test_message_is_built_only_when_the_flag_fires():
    def unbuildable(worst):
        raise AssertionError("message built without a flag")

    value = A([0.5, 2.0])
    assert _flag(value, value > 3.0, unbuildable) is value
    assert _flag(0.5, False, unbuildable) == 0.5


def _calls_to_warnings_warn(tree) -> int:
    return sum(
        isinstance(node, ast.Call) and ast.unparse(node.func) in ("warnings.warn", "warn")
        for node in ast.walk(tree)
    )


def test_validity_warnings_are_issued_only_by_the_errors_module():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert {name for name, tree in trees.items() if _calls_to_warnings_warn(tree)} == {"errors"}
    for name in ("budget", "dressing", "gate_error"):
        imported = set()
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module} | {alias.name for alias in node.names}
        assert not imported & {"warnings", "_is_array"}, name
        assert "stacklevel" not in (SRC / f"{name}.py").read_text(), name
