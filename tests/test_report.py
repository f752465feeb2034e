import json
import threading
from pathlib import Path

import pytest

import rydkit
from rydkit.errors import DomainError
from rydkit.report import ReproEntry, ReproductionReport, _band, _entry


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
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert payload["entries"][0]["label"] == "a"
    lines = report.format_lines()
    assert lines[0].startswith("[PASS] a:")
    assert lines[-1] == "overall: PASS"


def test_json_rejects_a_nan_value():
    nan = float("nan")
    report = ReproductionReport(entries=(ReproEntry("nan", nan, 1.0, nan, 0.0, 0.0, False),))
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()


def test_reproduce_json_matches_golden_file():
    golden = Path(__file__).parent / "golden" / "reproduce.json"
    before = threading.active_count()
    assert rydkit.reproduce().to_json() == golden.read_text()
    assert threading.active_count() == before  # the oracle thread is joined


def test_reproduce_rejects_too_few_trials_on_the_callers_thread():
    before = threading.active_count()
    with pytest.raises(DomainError, match=r"trials must be finite and in \[1000, inf\), got 10"):
        rydkit.reproduce(trials=10)
    assert threading.active_count() == before


def test_reproduce_reraises_an_error_of_the_eigensolver_oracle(monkeypatch):
    def boom(rng):
        raise DomainError("boom")

    monkeypatch.setattr("rydkit.report._closed_vs_eigensolver", boom)
    before = threading.active_count()
    with pytest.raises(DomainError, match="^boom$"):
        rydkit.reproduce()
    assert threading.active_count() == before
