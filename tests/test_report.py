import collections
import inspect
import json
import math
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rydkit
from rydkit import budget, dressing, gate_error, report
from rydkit.errors import DomainError
from rydkit.report import (
    ReproEntry,
    ReproductionReport,
    _band,
    _entry,
    _minimize_log,
    _minimizer_checks,
)
from rydkit.units import TWO_PI


def test_entry_relative_deviation_convention():
    entry = _entry("x", 1.02, 1.0, -0.05, 0.05)
    assert entry.deviation == pytest.approx(0.02, rel=1e-12)
    assert entry.passed


def test_entry_absolute_convention_for_zero_reference():
    entry = _entry("identity residual", 3e-10, 0.0, 0.0, 1e-9)
    assert entry.deviation == 3e-10
    assert entry.passed
    assert not _entry("identity residual", 3e-9, 0.0, 0.0, 1e-9).passed


def test_band_helper_maps_bounds():
    entry = _band("y", 0.0453, 0.04, 0.040, 0.050)
    assert entry.tol_lo == pytest.approx(0.0, abs=1e-12)
    assert entry.tol_hi == pytest.approx(0.25, rel=1e-12)
    assert entry.passed
    assert not _band("y", 0.051, 0.04, 0.040, 0.050).passed


def test_overall_pass_is_conjunction():
    good = _entry("a", 1.0, 1.0, -0.1, 0.1)
    bad = ReproEntry("b", 2.0, 1.0, 1.0, -0.1, 0.1, False)
    assert ReproductionReport(entries=(good,)).passed
    assert not ReproductionReport(entries=(good, bad)).passed


def test_json_shape_and_lines():
    report = ReproductionReport(entries=(_entry("a", 1.0, 1.0, -0.1, 0.1),))
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["entries"][0]["label"] == "a"
    lines = report.format_lines()
    assert lines[0].startswith("[PASS] a:")
    assert lines[-1] == "overall: PASS"


def test_reproduce_json_matches_golden_file():
    golden = Path(__file__).parent / "golden" / "reproduce.json"
    before = threading.active_count()
    assert rydkit.reproduce().to_dict() == json.loads(golden.read_text())
    assert threading.active_count() == before  # the oracle thread is joined


def test_reproduce_rejects_too_few_trials_on_the_callers_thread(monkeypatch):
    solves = []
    for name in ("dressed_ground_energy_exact", "dressed_ground_energy_closed_form"):
        solve = getattr(dressing, name)
        monkeypatch.setattr(dressing, name,
                            lambda *args, _name=name, _solve=solve: solves.append(_name)
                            or _solve(*args))
    before = threading.active_count()
    with pytest.raises(DomainError, match=r"trials must be finite and in \[1000, inf\), got 10"):
        rydkit.reproduce(trials=10)
    assert threading.active_count() == before
    assert solves == []  # checked before the worker starts: no oracle solve ran


# The eigensolver oracle solves its last block on the worker and the others on the
# caller's thread: an error on either reaches the caller, with the worker joined.
@pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "worker"])
def test_reproduce_reraises_an_error_of_the_eigensolver_oracle(on_caller, monkeypatch):
    caller, solve, raised = threading.get_ident(), dressing.dressed_ground_energy_exact, []

    def exact(*args):
        if (threading.get_ident() == caller) == on_caller:
            raised.append(True)
            raise DomainError("boom")
        return solve(*args)

    monkeypatch.setattr(dressing, "dressed_ground_energy_exact", exact)
    before = threading.active_count()
    with pytest.raises(DomainError, match="^boom$"):
        rydkit.reproduce()
    assert threading.active_count() == before
    assert raised  # the error came from an exact solve on that thread


def test_reproduce_joins_the_worker_before_a_late_error_propagates(monkeypatch):
    # the worker is still drawing when a checkpoint after the oracle's raises
    simulate = budget.simulate_loss

    def slow_simulate(*args):
        time.sleep(0.2)
        return simulate(*args)

    def boom(*args):
        raise DomainError("boom")

    monkeypatch.setattr(budget, "simulate_loss", slow_simulate)
    monkeypatch.setattr(dressing, "scaling_exponent", boom)
    before = threading.active_count()
    with pytest.raises(DomainError, match="^boom$"):
        rydkit.reproduce()
    assert threading.active_count() == before


def test_reproduce_reraises_an_error_of_the_monte_carlo(monkeypatch):
    def boom(*args):
        raise DomainError("boom")

    monkeypatch.setattr("rydkit.report.budget.simulate_loss", boom)
    before = threading.active_count()
    with pytest.raises(DomainError, match="^boom$"):
        rydkit.reproduce()
    assert threading.active_count() == before


def test_reproduce_working_set_is_bounded():
    # The oracle solves its 10,000 points in blocks of 2,500 and the Monte Carlo reuses
    # one buffer, so a call peaks at ~1.7 MiB of traced memory; solving every point at
    # once peaks at ~3.6 MiB. Warm first, so imports and caches do not count.
    rydkit.reproduce()
    tracemalloc.start()
    try:
        rydkit.reproduce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def _scalar_minimize_log(cost, center):
    """Reference for _minimize_log: one scalar golden-section search that stops once its
    bracket is 2^-26 wide, and its step count."""
    step = report._INV_GOLDEN
    a, b = math.log(center) - 8.0, math.log(center) + 8.0
    c, d = b - step * (b - a), a + step * (b - a)
    fc, fd = cost(math.exp(c)), cost(math.exp(d))
    steps = 0
    while b - a > 2.0**-26:
        steps += 1
        if fc < fd:  # the minimum lies in [a, d]
            b, c, d, fd = d, d - step * (d - a), c, fc
            fc = cost(math.exp(c))
        else:  # in [c, b]
            a, c, d, fc = c, d, c + step * (b - c), fd
            fd = cost(math.exp(d))
    return math.exp(0.5 * (a + b)), steps


# The blockade and dressing costs of reproduce(), with their search centres.
COSTS = {
    "blockade": (lambda w, b, tau: 7 * math.pi / (4 * w * tau) + w * w / (8 * b * b),
                 lambda b, tau: (b * b / tau) ** (1 / 3)),
    "dressing": (lambda w, det, tau: 8 * math.pi * det / (w * w * tau) + w * w / (det * det),
                 lambda det, tau: (det**3 / tau) ** 0.25),
}


# Every golden step narrows a bracket by the same factor, so each scalar search of a +-8
# bracket stops by width after 44 steps wherever its minimum lies, and the lockstep
# search, which counts its steps, returns its bits. The mixed case is one search whose
# first half of elements has the blockade cost and whose second half has the dressing
# cost, as in _minimizer_checks.
@pytest.mark.parametrize("gates", [["blockade"], ["dressing"], ["blockade", "dressing"]],
                         ids=["blockade", "dressing", "mixed"])
def test_lockstep_search_returns_the_scalar_search_bits(gates):
    rng = np.random.default_rng(18)
    x, tau = TWO_PI * 10 ** rng.uniform(6, 9, 300), 10 ** rng.uniform(-6, -3, 300)
    shifts = np.exp(rng.uniform(-6.0, 6.0, 300))  # the minimum off the bracket's centre
    parts = [slice(i, i + 300 // len(gates)) for i in range(0, 300, 300 // len(gates))]
    centers, expected, steps = [], [], []
    for gate, s in zip(gates, parts):
        cost, center = COSTS[gate]
        for v, t, shift in zip(x[s].tolist(), tau[s].tolist(), shifts[s].tolist()):
            centers.append(center(v, t) * shift)
            w, n = _scalar_minimize_log(lambda w: cost(w, v, t), centers[-1])
            expected.append(w)
            steps.append(n)

    def costs(w):
        return np.concatenate([COSTS[gate][0](w[s], x[s], tau[s])
                               for gate, s in zip(gates, parts)])

    got = _minimize_log(costs, np.array(centers))
    assert got.tolist() == expected
    assert set(steps) == {report._SEARCH_STEPS} == {44}


def test_gate_cost_has_the_bits_of_each_gates_own_cost():
    # the blockade and dressing elements interleaved, w over each search's bracket
    rng = np.random.default_rng(36)
    x, tau = TWO_PI * 10 ** rng.uniform(6, 9, 400), 10 ** rng.uniform(-6, -3, 400)
    blockade = rng.random(400) < 0.5
    gates = ["blockade" if flag else "dressing" for flag in blockade.tolist()]
    w = np.array([COSTS[gate][1](v, t) for gate, v, t in zip(gates, x.tolist(), tau.tolist())])
    w *= np.exp(rng.uniform(-8.0, 8.0, 400))
    expected = [COSTS[gate][0](*args) for gate, *args in zip(gates, w.tolist(), x.tolist(),
                                                               tau.tolist())]
    assert report._gate_cost(x, tau, blockade)(w).tolist() == expected


@pytest.mark.parametrize("points", [10, 100])
def test_minimizer_checks_run_one_search_over_both_gates(points, monkeypatch):
    searches = []

    def recorded(cost, centers):
        searches.append(centers.shape)
        return _minimize_log(cost, centers)

    monkeypatch.setattr(report, "_minimize_log", recorded)
    _minimizer_checks(np.random.default_rng(1), points)
    assert searches == [(2 * points,)]


def test_minimizer_checks_call_each_gate_error_function_a_fixed_number_of_times(monkeypatch):
    calls = collections.Counter()
    for name, fn in vars(gate_error).items():
        if inspect.isfunction(fn) and fn.__module__ == gate_error.__name__ and name[0] != "_":
            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(gate_error, name, counted)
    counts = []
    for points in (10, 100):
        calls.clear()
        _minimizer_checks(np.random.default_rng(1), points)
        counts.append(dict(calls))
    assert counts[0] == counts[1]  # not once per point
    assert {"optimal_rabi", "blockade_gate_error", "dressing_gate_error"} <= set(counts[0])
    assert max(counts[0].values()) <= 2
