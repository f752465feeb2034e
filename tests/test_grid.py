import math

import pytest

from rydkit import Axis, DomainError, ScanGrid, axis, scan
from rydkit import required_vacuum_lifetime, rydberg_lifetime


class TestAxis:
    def test_linear_builder(self):
        ax = axis("n_code", "qubits", 4.0, 100.0, 13, "linear")
        assert ax.values[0] == 4.0 and ax.values[-1] == 100.0
        assert ax.values[2] == pytest.approx(20.0, rel=1e-15)

    def test_log_builder(self):
        ax = axis("epsilon", "", 1e-5, 1e-2, 4, "log")
        assert ax.values[1] == pytest.approx(1e-4, rel=1e-12)

    def test_single_point(self):
        ax = axis("x", "", 5.0, 5.0, 1)
        assert ax.values == (5.0,)
        with pytest.raises(DomainError):
            axis("x", "", 4.0, 5.0, 1)

    def test_monotonicity_enforced(self):
        Axis("ok-down", "", (3.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            Axis("dup", "", (1.0, 1.0, 2.0))
        with pytest.raises(DomainError):
            Axis("zigzag", "", (1.0, 3.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError, match="axis 'x' values must be finite"):
            Axis("x", "", (bad,))
        with pytest.raises(DomainError, match="finite"):
            Axis("x", "", (1.0, 2.0, bad))

    def test_overflowing_span_rejected(self):
        with pytest.raises(DomainError, match="span hi - lo of axis 'x'"):
            axis("x", "", -1e308, 1e308, 3)


class TestCsvRoundTrip:
    def test_exact_round_trip(self):
        grid = ScanGrid(
            quantity="demo",
            x_axis=Axis("x", "um", (0.1, 1.0 / 3.0, 7.25), "linear"),
            y_axis=Axis("y", "K", (1e-300, 2.5e17), "log"),
            cells=(
                (1.0 / 3.0, -2.718281828459045e-5, 6.02214076e23),
                (math.pi, -0.0, 1.7976931348623157e308),
            ),
        )
        back = ScanGrid.from_csv(grid.to_csv())
        assert back.quantity == grid.quantity
        assert back.x_axis == grid.x_axis
        assert back.y_axis == grid.y_axis
        assert back.cells == grid.cells

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_rejected(self, bad):
        x_axis, y_axis = Axis("x", "um", (1.0, 2.0)), Axis("y", "K", (3.0, 4.0))
        with pytest.raises(DomainError, match=r"demo cell \(1, 0\) at x = 2.0, y = 3.0"):
            ScanGrid("demo", x_axis, y_axis, ((1.0, bad), (0.5, 0.25)))
        text = ScanGrid("demo", x_axis, y_axis, ((1.0, 2.0), (0.5, 0.25))).to_csv()
        with pytest.raises(DomainError, match="cells must be finite"):
            ScanGrid.from_csv(text.replace("0.25", repr(bad)))

    def test_header_layout(self):
        grid = scan(
            "tau-vac",
            Axis("n_code", "qubits", (4.0, 20.0)),
            Axis("epsilon", "", (1e-4, 1e-3)),
        )
        lines = grid.to_csv().splitlines()
        assert lines[0] == "# quantity: tau-vac"
        assert lines[3].startswith("n_code,4,20")
        assert lines[4].startswith("0.0001,")


class TestScan:
    def test_tau_vac_reference_cell(self):
        grid = scan(
            "tau-vac",
            Axis("n_code", "qubits", (4.0, 12.0, 20.0, 28.0)),
            Axis("epsilon", "", (1e-5, 1e-4, 1e-3, 1e-2), "log"),
        )
        assert grid.cell(2, 1) == 400.0

    def test_tau_vac_fixed_cycle_time(self):
        grid = scan(
            "tau-vac",
            Axis("n_code", "qubits", (20.0,)),
            Axis("epsilon", "", (1e-4,)),
            {"t_qec_ms": 2.0},
        )
        assert grid.cell(0, 0) == required_vacuum_lifetime(20, 2e-3, 1e-4)

    def test_one_by_one_grid_reduces_to_scalar(self):
        grid = scan(
            "tau-vac", Axis("n_code", "qubits", (20.0,)), Axis("epsilon", "", (1e-4,))
        )
        assert grid.cells == ((400.0,),)

    def test_doppler_reference_cell(self):
        grid = scan(
            "doppler-infidelity",
            Axis("temperature", "uK", (5.0,)),
            Axis("rydberg_time", "ns", (100.0,)),
        )
        assert grid.cell(0, 0) == pytest.approx(math.log10(3.033e-4), abs=0.01)
        assert grid.cell(0, 0) == pytest.approx(-3.5, abs=0.05)

    def test_doppler_cell_without_dephasing_is_rejected(self):
        # zero temperature: the infidelity is exactly 0 and its log10 is -inf
        with pytest.raises(DomainError, match="doppler-infidelity cell \\(0, 0\\)"):
            scan(
                "doppler-infidelity",
                Axis("temperature", "uK", (0.0, 5.0)),
                Axis("rydberg_time", "ns", (100.0,)),
            )

    def test_lifetime_quantity_matches_core(self):
        grid = scan(
            "lifetime",
            Axis("n", "", (50.0, 100.0)),
            Axis("temperature", "K", (4.0, 300.0)),
        )
        assert grid.cell(1, 1) == rydberg_lifetime(100, 300.0, 3.3e-9)

    def test_dressing_quantity_smoke(self):
        grid = scan(
            "dressing-potential",
            Axis("separation", "um", (0.015, 1.5, 150.0), "log"),
            Axis("rabi", "MHz", (1.0,)),
        )
        assert grid.cell(0, 0) == pytest.approx(-1.0, abs=1e-3)
        assert abs(grid.cell(2, 0)) < 1e-6

    def test_unknown_quantity(self):
        with pytest.raises(DomainError):
            scan("nope", Axis("x", "", (1.0,)), Axis("y", "", (1.0,)))

    def test_unknown_fixed_parameter(self):
        with pytest.raises(DomainError):
            scan(
                "tau-vac",
                Axis("n_code", "qubits", (20.0,)),
                Axis("epsilon", "", (1e-4,)),
                {"typo": 1.0},
            )
