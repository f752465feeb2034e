import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydkit import Axis, DomainError, DressingParams, Frequency, PairInteraction, ScanGrid
from rydkit import axis, get_species, scan
from rydkit import doppler_infidelity, normalized_potential, required_vacuum_lifetime
from rydkit import rydberg_lifetime
from rydkit import budget, core, dressing, gate_error
from rydkit.errors import ModelValidityWarning, _per_element

GOLDEN = Path(__file__).parent / "golden"
# hypothesis draws -0.0, subnormals and +-1.7976931348623157e308 among these
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CAST_RULE = "dtype('float64') according to the rule 'same_kind'"  # numpy's failed-cast text
# a 2x2 grid's cells of another shape, and cells nested to unequal lengths
SHAPE = r"demo cells have shape {}, not \(2, 2\): one row per y value, one column per x value"
RAGGED = "demo cells must be numbers in a rectangular array"
# a text field mixing the CSV delimiters, line breaks and whitespace into arbitrary text,
# and fields of letters, digits, punctuation and symbols: no whitespace, rarely a delimiter
FIELD_TEXT = st.text(st.sampled_from(",[]#: \t\n\r\x0b\x1c\x85\u2028ab") | st.characters(),
                     max_size=4)
PLAIN_FIELDS = st.lists(st.text(st.characters(categories=("L", "N", "P", "S")), max_size=3),
                        min_size=7, max_size=7)


@st.composite
def finite_grids(draw):
    """A ScanGrid of up to 5x5 arbitrary finite cells on arbitrary increasing axes."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def values(n):
        return sorted(draw(st.lists(FINITE, min_size=n, max_size=n, unique=True)))

    cells = draw(st.lists(st.lists(FINITE, min_size=nx, max_size=nx), min_size=ny, max_size=ny))
    return ScanGrid("demo", Axis("x", "um", values(nx)), Axis("y", "K", values(ny)), cells)


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
        assert back.cells.tobytes() == grid.cells.tobytes()  # the sign of -0.0 too

    @settings(deadline=None)
    @given(finite_grids())
    @example(ScanGrid(
        "demo", Axis("x", "um", (-1.7976931348623157e308, -0.0, 5e-324)), Axis("y", "K", (0.0,)),
        ((-0.0, 5e-324, -2.2250738585072009e-308),),
    ))
    @example(ScanGrid(
        "demo", Axis("x", "um", (1.0,)), Axis("y", "K", (-5e-324, 1.7976931348623157e308)),
        ((1.7976931348623157e308,), (-1.7976931348623157e308,)),
    ))
    @example(ScanGrid(  # neighbours whose difference overflows: no warning
        "demo", Axis("x", "um", (-1.7976931348623157e308, 1.7976931348623157e308)),
        Axis("y", "K", (1.7976931348623157e308, -1.7976931348623157e308)), ((0.0, 1.0), (2.0, 3.0)),
    ))
    def test_every_finite_grid_round_trips_bit_for_bit(self, grid):
        back = ScanGrid.from_csv(grid.to_csv())
        assert back == grid
        assert back.cells.tobytes() == grid.cells.tobytes()
        for axis_back, axis_grid in ((back.x_axis, grid.x_axis), (back.y_axis, grid.y_axis)):
            assert np.array(axis_back.values).tobytes() == np.array(axis_grid.values).tobytes()

    @settings(deadline=None)
    @given(PLAIN_FIELDS, st.integers(0, 6), FIELD_TEXT)
    def test_every_grid_that_builds_reads_back_from_its_csv(self, fields, index, text):
        fields[index] = text  # one field of arbitrary text, so that about half the grids build
        quantity, x_name, x_unit, x_spacing, y_name, y_unit, y_spacing = fields
        try:
            grid = ScanGrid(
                quantity, Axis(x_name, x_unit, (1.0, 2.0), x_spacing),
                Axis(y_name, y_unit, (3.0,), y_spacing), ((0.5, 0.25),),
            )
        except DomainError:  # a field the CSV could not give back is refused when built
            return
        assert ScanGrid.from_csv(grid.to_csv()) == grid

    def test_blank_line_between_data_rows_is_skipped(self):
        grid = ScanGrid(
            "demo", Axis("x", "um", (1.0, 2.0)), Axis("y", "K", (3.0, 4.0)),
            ((1.0, 2.0), (0.5, 0.25)),
        )
        text = grid.to_csv()
        assert "\n4,0.5,0.25\n" in text
        assert ScanGrid.from_csv(text.replace("\n4,", "\n  \n\n4,")) == grid

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


class TestCellArray:
    """Cells are a read-only float64 copy; grids compare by value and are not hashable."""

    X_AXIS, Y_AXIS = Axis("x", "um", (1.0, 2.0)), Axis("y", "K", (3.0, 4.0))

    def grid(self, cells=((1.0, 2.0), (0.5, 0.25)), quantity="demo"):
        return ScanGrid(quantity, self.X_AXIS, self.Y_AXIS, cells)

    def test_cells_are_a_read_only_float64_array(self):
        grid = self.grid([[1, 2], [True, 4]])
        assert grid.cells.dtype == np.float64 and grid.cells.shape == (2, 2)
        assert grid.cells.tolist() == [[1.0, 2.0], [1.0, 4.0]]
        with pytest.raises(ValueError, match="read-only"):
            grid.cells[0, 0] = 5.0

    def test_changing_the_callers_array_does_not_change_the_grid(self):
        source = np.array([[1.0, 2.0], [0.5, 0.25]])
        grid = self.grid(source)
        source[0, 0] = 9.0
        assert grid.cell(0, 0) == 1.0

    def test_cell_is_a_python_float(self):
        value = self.grid().cell(1, 1)
        assert type(value) is float and value == 0.25

    def test_equality_compares_cell_values(self):
        grid = self.grid()
        assert grid == self.grid(np.array([[1.0, 2.0], [0.5, 0.25]]))
        assert not grid != self.grid(np.array([[1.0, 2.0], [0.5, 0.25]]))
        assert grid != self.grid(((1.0, 2.0), (0.5, 0.5)))
        assert not grid == self.grid(((1.0, 2.0), (0.5, 0.5)))
        assert grid != self.grid(quantity="other")

    @pytest.mark.parametrize("other", [None, 0.25, "demo", [[1.0, 2.0], [0.5, 0.25]]])
    def test_a_grid_is_not_equal_to_a_non_grid(self, other):
        assert self.grid() != other
        assert not self.grid() == other

    def test_grids_are_not_hashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(self.grid())


class TestMalformedInputRaisesDomainError:
    """Malformed axis values, cells and CSV text name the axis, the row or the line."""

    CSV = ScanGrid(
        "demo", Axis("x", "um", (1.0, 2.0)), Axis("y", "K", (3.0, 4.0)), ((1.0, 2.0), (0.5, 0.25))
    ).to_csv()

    def test_csv_without_axis_headers(self):
        with pytest.raises(DomainError, match=r"'# x: name \[unit\] spacing' line, got None"):
            ScanGrid.from_csv("1,2\n3,4\n")

    def test_axis_header_without_unit(self):
        with pytest.raises(DomainError, match=r"'# y: name .* got 'y explicit'"):
            ScanGrid.from_csv(self.CSV.replace("# y: y [K]", "# y: y"))

    @pytest.mark.parametrize("old, new, line", [("0.25", "abc", 6), ("x,1,2", "x,1,abc", 4)])
    def test_csv_value_that_is_not_a_number(self, old, new, line):
        with pytest.raises(DomainError, match=f"CSV line {line}: .*'abc'"):
            ScanGrid.from_csv(self.CSV.replace(old, new))

    @pytest.mark.parametrize("field", ["abc", "", "0.5#1", "1+2j", "0x1p-2"])
    def test_bad_field_names_its_line_when_every_other_line_parses(self, field):
        text = ScanGrid(
            "demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0, 5.0, 6.0)),
            ((1.0, 2.0), (0.5, 0.25), (7.0, 8.0), (9.0, 10.0)),
        ).to_csv()
        assert text.splitlines()[5] == "4,0.5,0.25"
        with pytest.raises(DomainError, match=f"^CSV line 6: .*'{re.escape(field)}'$"):
            ScanGrid.from_csv(text.replace("4,0.5,0.25", f"4,0.5,{field}"))

    @pytest.mark.parametrize("rows, message", [
        (("3,1,2", "4,0.5"), "CSV line 6: 2 fields, the header has 3"),
        (("3,1,2", "4,0.5,0.25,1"), "CSV line 6: 4 fields, the header has 3"),
        (("3,1", "4,0.5"), "CSV line 5: 2 fields, the header has 3"),
    ], ids=["short-row", "long-row", "every-row-short"])
    def test_ragged_csv_data_row(self, rows, message):
        assert "\n3,1,2\n4,0.5,0.25\n" in self.CSV
        text = self.CSV.replace("\n3,1,2\n4,0.5,0.25\n", "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DomainError, match=f"^{message}$"):
            ScanGrid.from_csv(text)

    @settings(deadline=None)
    @given(finite_grids(), st.data())
    def test_a_data_row_with_one_field_too_few_or_too_many_names_its_line(self, grid, data):
        lines = grid.to_csv().splitlines(keepends=True)
        index = data.draw(st.integers(4, len(lines) - 1), "data line")  # after the header
        fields = lines[index].rstrip("\n").split(",")
        if data.draw(st.booleans(), "remove a field"):
            del fields[data.draw(st.integers(0, len(fields) - 1), "removed")]
        else:
            added = "%.17g" % data.draw(FINITE, "added")
            fields.insert(data.draw(st.integers(0, len(fields)), "at"), added)
        lines[index] = ",".join(fields) + "\n"
        with pytest.raises(DomainError, match=f"^CSV line {index + 1}: "):
            ScanGrid.from_csv("".join(lines))

    @pytest.mark.parametrize("values", [np.array([1 + 2j, 2 + 0j]), (1.0, np.complex128(2.0))],
                             ids=["array", "scalar"])
    def test_complex_axis_values(self, values):
        message = r"^axis 'x' values must be numbers: \w+ is not a real number$"
        with pytest.raises(DomainError, match=message):
            Axis("x", "", values)

    @pytest.mark.parametrize("cells", [
        np.array([[1 + 9j, 2]]), np.array([[1.0, 2.0]], dtype=complex),
        [[1.0, np.complex64(2.0)]], [np.array([1.0, 2.0], dtype=np.clongdouble)],
    ], ids=["array", "zero-imaginary-array", "scalar", "clongdouble-row"])
    def test_complex_grid_cells(self, cells):
        message = r"^demo cells must be numbers: \w+ is not a real number$"
        with pytest.raises(DomainError, match=message):
            ScanGrid("demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0,)), cells)

    @pytest.mark.parametrize("cells", [[[Fraction(1, 2), 2.0]], [["0.5", "2"]]],
                             ids=["object", "text"])
    def test_cells_that_are_not_a_numeric_array(self, cells):
        with pytest.raises(DomainError, match="^demo cells must be numbers: Cannot cast array"):
            ScanGrid("demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0,)), cells)

    # text and objects fail as they do in cells: one numeric-array rule for both
    @pytest.mark.parametrize("values", [("a",), ((1.0, 2.0),), ("1.5", "2"), (Fraction(1, 2), 2.0),
                                        (1.0, (2.0, 3.0))])
    def test_axis_values_that_are_not_numbers(self, values):
        with pytest.raises(DomainError, match="axis 'x' values must be numbers"):
            Axis("x", "", values)

    def test_grid_cell_that_is_not_a_number(self):
        x_axis, y_axis = Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0))
        message = "demo cells must be numbers: Cannot cast array data from dtype('<U32') to "
        with pytest.raises(DomainError, match=f"^{re.escape(message + CAST_RULE)}$"):
            ScanGrid("demo", x_axis, y_axis, ((1.0, 2.0), (0.5, "a")))

    def test_none_as_cells(self):
        message = r"^demo cells must be numbers: Cannot cast scalar from dtype\('O'\)"
        with pytest.raises(DomainError, match=message):
            ScanGrid("demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0,)), None)

    @pytest.mark.parametrize("values", ["12", b"12"], ids=["str", "bytes"])
    def test_axis_values_that_are_text(self, values):
        with pytest.raises(DomainError, match="axis 'x' values must be numbers, not a"):
            Axis("x", "", values)

    @pytest.mark.parametrize("row", ["12", b"12"], ids=["str", "bytes"])
    def test_grid_row_that_is_text(self, row):
        x_axis, y_axis = Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0))
        with pytest.raises(DomainError, match=f"^{RAGGED}$"):
            ScanGrid("demo", x_axis, y_axis, ((1.0, 2.0), row))

    def test_grid_row_that_nests_a_sequence(self):
        x_axis, y_axis = Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0))
        with pytest.raises(DomainError, match=f"^{RAGGED}$"):
            ScanGrid("demo", x_axis, y_axis, ((1.0, (2.0, 3.0)), (0.5, 0.25)))

    @pytest.mark.parametrize("exponent", [400, 5000])  # 10**5000 is too long to print
    def test_int_beyond_the_float_range(self, exponent):
        big = 10**exponent
        message = "axis 'x' values must be numbers: Cannot cast array data from dtype('O') to "
        with pytest.raises(DomainError, match=f"^{re.escape(message + CAST_RULE)}$"):
            Axis("x", "", (1.0, big))
        x_axis, y_axis = Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0))
        message = "demo cells must be numbers: Cannot cast array data from dtype('O') to "
        with pytest.raises(DomainError, match=f"^{re.escape(message + CAST_RULE)}$"):
            ScanGrid("demo", x_axis, y_axis, ((1.0, big), (0.5, 0.25)))

    @pytest.mark.parametrize("build, message", [
        (lambda: Axis("x", "", ()), "axis 'x' has no values"),
        (lambda: axis("x", "", 1.0, 2.0, 3, "cubic"),
         r"unknown spacing 'cubic' \(choose from linear, log\)"),
        (lambda: axis("x", "", -1.0, -1.0, 1, "log"), "log-spaced axes need positive bounds"),
        (lambda: ScanGrid("demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0)),
                          ((1.0, 2.0),)), SHAPE.format(r"\(1, 2\)")),
        (lambda: ScanGrid("demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0)),
                          ((1.0, 2.0), (0.5,))), RAGGED),
        (lambda: ScanGrid("demo", Axis("x", "", (1.0, 2.0)), Axis("y", "", (3.0, 4.0)), 5.0),
         SHAPE.format(r"\(\)")),
        (lambda: ScanGrid.from_csv("# quantity: demo\n# x: x [um] explicit\n"),
         "no data rows in CSV"),
        (lambda: ScanGrid.from_csv("# x: x [um] explicit\n# y: y [K] explicit\nx,1,2\n"),
         "axis 'y' has no values"),
    ], ids=["empty-axis", "spacing", "single-point-log", "rows", "columns", "scalar-cells",
            "header-only-csv", "x-row-only-csv"])
    def test_shape_and_spacing_errors(self, build, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Axis("a[b", "", (1.0,)), r"axis name 'a\[b' must not hold '\['"),
        (lambda: Axis("x", "u]m", (1.0,)), r"axis 'x' unit 'u\]m' must not hold '\]'"),
        (lambda: Axis("y[1]", "", (1.0,)), r"axis name 'y\[1\]' must not hold '\['"),
        (lambda: Axis(" x ", "", (1.0,)), "axis name ' x ' must not start or end with ' '"),
        (lambda: Axis("x", "", (1.0,), "log "),
         "axis 'x' spacing 'log ' must not start or end with ' '"),
        (lambda: Axis("a,b", "", (1.0,)), "axis name 'a,b' must not hold ','"),
        (lambda: Axis("#x", "", (1.0,)), "axis name '#x' must not hold '#'"),
        (lambda: Axis("x", "\u2028", (1.0,)), r"axis 'x' unit '\\u2028' must not hold '\\u2028'"),
        (lambda: Axis(5, "", (1.0,)), "axis name must be a str, not int"),
        (lambda: ScanGrid("a\nb", Axis("x", "", (1.0,)), Axis("y", "", (1.0,)), ((1.0,),)),
         r"grid quantity 'a\\nb' must not hold '\\n'"),
    ], ids=["open-bracket-name", "close-bracket-unit", "y-name", "padded-name",
            "padded-spacing", "comma-name", "hash-name", "line-separator-unit", "int-name",
            "newline-quantity"])
    def test_text_field_the_csv_cannot_give_back(self, build, message):
        # each of these grids was once written and read back as another grid, or refused
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()

    def test_axis_takes_an_ndarray_of_values(self):
        assert Axis("x", "", np.array([1.0, 2.0])) == Axis("x", "", (1.0, 2.0))


def _traced_peak(fn) -> int:
    """Peak traced memory of one call of ``fn``, after a warm call: caches do not count."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """A 200x200 grid is read as Python floats one element or row at a time, not all at once."""

    def test_per_element_holds_only_its_result(self):
        # The elements are read one at a time through a memoryview. Copying the array into
        # a list of Python floats first (x.ravel().tolist()) peaks at ~1,560 KiB here, five
        # times the 312.5 KiB of the result array alone.
        x = np.linspace(-1.0, 1.0, 40_000).reshape(200, 200)
        assert _traced_peak(lambda: _per_element(math.expm1, x)) <= x.nbytes + 64 * 1024

    def test_flag_quotes_the_worst_element_without_listing_them(self):
        # 20 (1 - e^(-t/10)) passes 1 in almost every cell, so the flag fires. Its worst
        # element is read through a memoryview: ~665 KiB here, the result and its clamped
        # copy. Listing every element as a Python float first peaks at ~1,600 KiB.
        t = np.linspace(1.0, 100.0, 40_000).reshape(200, 200)
        with pytest.warns(ModelValidityWarning, match="^per-block loss probability 20 > 1;"):
            budget.loss_probability(20, t, 10.0)

        def flagged():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ModelValidityWarning)
                budget.loss_probability(20, t, 10.0)

        assert _traced_peak(flagged) <= 1024 * 1024

    def test_to_csv_peaks_near_its_text(self):
        # The rows are formatted, then joined: ~2.0x the text. Converting every cell to a
        # Python float before the first row is formatted peaks at ~2.43x.
        grid = scan("lifetime", axis("n", "", 40.0, 140.0, 200),
                    axis("temperature", "K", 1.0, 300.0, 200))
        assert _traced_peak(grid.to_csv) <= 2.2 * len(grid.to_csv())

    def test_doppler_scan_peaks_under_one_and_a_half_mib(self):
        # ~0.92 MiB: a few 312.5 KiB arrays of the cells. Listing every element as a Python
        # float in each per-element step (expm1, then log10) peaks at ~2.14 MiB.
        x_axis = axis("temperature", "uK", 1.0, 100.0, 200)
        y_axis = axis("rydberg_time", "ns", 10.0, 1e4, 200)
        assert _traced_peak(lambda: scan("doppler-infidelity", x_axis, y_axis)) < 1.5 * 2**20


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
        assert grid.cells.tolist() == [[400.0]]

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

    def test_doppler_grid_with_some_zero_cells_names_the_first(self):
        # the last column is at zero temperature; the cells before it are finite
        with pytest.raises(DomainError, match="^doppler-infidelity cell \\(2, 0\\) at "
                           "temperature = 0.0, rydberg_time = 100.0 is -inf: cells must "
                           "be finite$"):
            scan(
                "doppler-infidelity",
                Axis("temperature", "uK", (25.0, 5.0, 0.0)),
                Axis("rydberg_time", "ns", (100.0, 1000.0)),
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

    def test_fixed_values_are_typed_by_the_registry(self):
        x, y = Axis("n_code", "qubits", (20.0, 40.0)), Axis("epsilon", "", (1e-4,))
        assert scan("tau-vac", x, y, {"t_qec_ms": "4"}) == scan("tau-vac", x, y, {"t_qec_ms": 4})
        assert scan("tau-vac", x, y, {"t_qec_ms": None}) == scan("tau-vac", x, y)
        t, tr = Axis("temperature", "uK", (5.0,)), Axis("rydberg_time", "ns", (100.0,))
        rb = scan("doppler-infidelity", t, tr, {"species": "rb", "scheme": ""})
        assert rb == scan("doppler-infidelity", t, tr, {"species": "rb", "scheme": None})
        assert not np.array_equal(rb.cells, scan("doppler-infidelity", t, tr).cells)
        with pytest.raises(DomainError, match="t_qec_ms"):
            scan("tau-vac", x, y, {"t_qec_ms": "abc"})
        with pytest.raises(DomainError, match="k_per_m"):
            scan("doppler-infidelity", t, tr, {"k_per_m": "abc"})

    @pytest.mark.parametrize("key", ["d_kl", "tau_us", "spacing_um"])
    def test_dressing_keys_that_reach_no_formula_are_rejected(self, key):
        with pytest.raises(DomainError, match=f"unknown fixed parameter '{key}'"):
            scan("dressing-potential", Axis("separation", "um", (1.0,)),
                 Axis("rabi", "MHz", (1.0,)), {key: 1.0})

    def test_dressing_grid_builds_one_pair(self, monkeypatch):
        built = []
        pair = dressing.PairInteraction
        monkeypatch.setattr(dressing, "PairInteraction",
                            lambda *a, **k: built.append(1) or pair(*a, **k))
        scan("dressing-potential", Axis("separation", "um", (1.0, 2.0)),
             Axis("rabi", "MHz", (1.0, 2.0, 3.0)))
        assert len(built) == 1


def _cells(fn, x_axis, y_axis) -> np.ndarray:
    return np.array([[fn(x, y) for x in x_axis.values] for y in y_axis.values])


class TestScanEqualsScalarCalls:
    """Each quantity runs once on broadcast axes; every cell is the scalar call."""

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_tau_vac(self, spacing):
        rng = np.random.default_rng(61)
        x = axis("n_code", "qubits", rng.uniform(1, 10), rng.uniform(50, 200), 23, spacing)
        y = axis("epsilon", "", rng.uniform(1e-6, 1e-5), rng.uniform(1e-3, 1e-2), 17, spacing)
        grid = scan("tau-vac", x, y)
        assert np.array_equal(grid.cells, _cells(
            lambda n, eps: required_vacuum_lifetime(n, budget.default_t_qec(n), eps), x, y
        ))
        grid = scan("tau-vac", x, y, {"t_qec_ms": 2.5})
        assert np.array_equal(grid.cells, _cells(
            lambda n, eps: required_vacuum_lifetime(n, 2.5 * 1e-3, eps), x, y
        ))

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("species", ["cs", "rb"])
    def test_doppler_infidelity(self, species, spacing):
        rng = np.random.default_rng(62)
        x = axis("temperature", "uK", rng.uniform(0.5, 2), rng.uniform(50, 200), 19, spacing)
        y = axis("rydberg_time", "ns", rng.uniform(5, 20), rng.uniform(5e3, 2e4), 21, spacing)
        sp = get_species(species)
        k = sp.schemes[0].effective_k
        grid = scan("doppler-infidelity", x, y, {"species": species})
        assert np.array_equal(grid.cells, _cells(
            lambda temp, t: math.log10(doppler_infidelity(k, temp * 1e-6, t * 1e-9, sp.mass)),
            x, y,
        ))

    @pytest.mark.parametrize("kind", ["full", "vdw", "single_term"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_dressing_potential(self, sign, kind):
        rng = np.random.default_rng(63)
        fixed = {"detuning_mhz": sign * rng.uniform(8, 15), "defect_mhz": sign * rng.uniform(15, 30),
                 "rc_um": rng.uniform(1, 2), "kind": kind}
        x = axis("separation", "um", rng.uniform(0.1, 0.5), rng.uniform(3, 8), 15, "linear")
        y = axis("rabi", "MHz", rng.uniform(0.5, 1), rng.uniform(2, 5), 7, "log")
        pair = PairInteraction(
            defect=Frequency.from_hz(fixed["defect_mhz"] * 1e6), r_c=fixed["rc_um"] * 1e-6
        )

        def cell(r_um, rabi_mhz):
            params = DressingParams(
                rabi=Frequency.from_hz(rabi_mhz * 1e6),
                detuning=Frequency.from_hz(fixed["detuning_mhz"] * 1e6),
                pair=pair,
                lifetime=320e-6,
                spacing=1e-6,
            )
            return normalized_potential(r_um * 1e-6, params, kind)

        assert np.array_equal(scan("dressing-potential", x, y, fixed).cells, _cells(cell, x, y))

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_lifetime_with_a_zero_temperature_row(self, spacing):
        rng = np.random.default_rng(64)
        x = axis("n", "", rng.uniform(20, 40), rng.uniform(150, 300), 25, spacing)
        temps = axis("temperature", "K", rng.uniform(1, 10), rng.uniform(300, 400), 9, spacing)
        y = Axis("temperature", "K", (0.0,) + temps.values, spacing)
        tau0_ns = rng.uniform(2.5, 3.5)
        grid = scan("lifetime", x, y, {"tau0_ns": tau0_ns})
        assert np.array_equal(
            grid.cells, _cells(lambda n, t: rydberg_lifetime(n, t, tau0_ns * 1e-9), x, y)
        )
        assert grid.cells[0].tolist() == [tau0_ns * 1e-9 * n**3 for n in x.values]

    def test_each_model_function_runs_once_per_grid(self, monkeypatch):
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

        for module, name in ((budget, "required_vacuum_lifetime"), (core, "rydberg_lifetime"),
                             (gate_error, "doppler_infidelity"), (dressing, "normalized_potential")):
            counted(module, name)
        x, y = Axis("x", "", (1.0, 2.0, 3.0)), Axis("y", "", (10.0, 20.0))
        scan("tau-vac", x, Axis("epsilon", "", (1e-4, 1e-3)))
        scan("doppler-infidelity", x, y)
        scan("lifetime", Axis("n", "", (50.0, 60.0, 70.0)), y)
        scan("dressing-potential", x, y)
        assert calls == ["required_vacuum_lifetime", "doppler_infidelity", "rydberg_lifetime",
                         "normalized_potential"]


# Small grids of the quantities at their default fixed values, and the two other
# dressing kinds; the lifetime grid has a T = 0 row. doppler-infidelity has its
# own golden file through the CLI. Keys are the golden file names.
_DRESSING_AXES = (
    axis("separation", "um", 0.2, 5, 7, "linear"), axis("rabi", "MHz", 0.5, 5, 5, "log")
)
GOLDEN_SCANS = {
    "tau-vac": (
        "tau-vac", axis("n_code", "qubits", 4, 100, 7, "log"),
        axis("epsilon", "", 1e-5, 1e-2, 5, "log"), {},
    ),
    "lifetime": (
        "lifetime", axis("n", "", 30, 300, 7, "log"),
        axis("temperature", "K", 0, 300, 5, "linear"), {},
    ),
    "dressing-potential": ("dressing-potential", *_DRESSING_AXES, {}),
    "dressing-potential_vdw": ("dressing-potential", *_DRESSING_AXES, {"kind": "vdw"}),
    "dressing-potential_single_term": (
        "dressing-potential", *_DRESSING_AXES, {"kind": "single_term"}
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_matches_golden_file(name):
    quantity, x, y, fixed = GOLDEN_SCANS[name]
    assert scan(quantity, x, y, fixed).to_csv() == (GOLDEN / f"scan_{name}.csv").read_text()


@pytest.mark.parametrize(
    "file_name", [f"scan_{name}.csv" for name in sorted(GOLDEN_SCANS)] + ["doppler_grid.csv"]
)
def test_golden_file_survives_from_csv(file_name):
    text = (GOLDEN / file_name).read_text()
    assert ScanGrid.from_csv(text).to_csv() == text
