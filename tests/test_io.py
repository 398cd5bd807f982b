import os
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chirpspace import (
    OperatorKernel,
    PhaseGrid,
    SampledField,
    hermite_functions,
    make_axis,
    read_field_csv,
    read_operator_csv,
    validate_density,
    write_field_csv,
    write_operator_csv,
)
from chirpspace import fields_io
from chirpspace.fields_io import CsvFormatError

from conftest import gaussian_poly_field, naive_field_csv, square_grid


class TestFieldCsv:
    def test_round_trip_is_exact(self, tmp_path, rng):
        h = gaussian_poly_field(square_grid(3, 12), rng)
        path = tmp_path / "field.csv"
        write_field_csv(h, path)
        back = read_field_csv(path)
        assert back.grid == h.grid
        assert np.array_equal(back.values, h.values)

    def test_header_and_precision(self, tmp_path):
        grid = square_grid(1, 2)
        vals = np.full(grid.shape, 1.0 / 3.0 + 1j / 7.0)
        from chirpspace import SampledField
        write_field_csv(SampledField(grid, vals), tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "p,q,re,im"
        # 17 significant digits round-trip doubles exactly
        assert "0.33333333333333331" in lines[1]
        assert float(lines[1].split(",")[2]) == 1.0 / 3.0

    @given(n_p=st.integers(2, 6), n_q=st.integers(2, 6), seed=st.integers(0, 10_000))
    def test_round_trip_random_grids(self, n_p, n_q, seed):
        import tempfile
        from pathlib import Path

        from chirpspace import PhaseGrid, SampledField
        r = np.random.default_rng(seed)
        grid = PhaseGrid(make_axis(-2.5, 1.5, n_p), make_axis(0.25, 4.0, n_q))
        h = SampledField(grid, r.standard_normal(grid.shape)
                         + 1j * r.standard_normal(grid.shape))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            write_field_csv(h, path)
            back = read_field_csv(path)
        assert back.grid == h.grid
        assert np.array_equal(back.values, h.values)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty file"):
            read_field_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,re,im\n0,0,1,0\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_field_csv(path)

    def test_bad_float_reports_line(self, tmp_path, rng):
        h = gaussian_poly_field(square_grid(2, 3), rng)
        path = tmp_path / "f.csv"
        write_field_csv(h, path)
        lines = path.read_text().splitlines()
        lines[4] = lines[4].replace(lines[4].split(",")[2], "oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            read_field_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n0,0,1\n")
        with pytest.raises(CsvFormatError, match="line 2.*4 columns"):
            read_field_csv(path)

    def test_non_grid_coordinates(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n1,2,1,0\n")
        with pytest.raises(CsvFormatError, match="tensor grid"):
            read_field_csv(path)

    @pytest.mark.parametrize("rows", [((0, 0), (0, 1), (0, 2), (1, 0), (1, 0.5), (1, 2)),
                                      ((0, 0), (0, 1), (1, 0), (0.5, 1))],
                             ids=["inner-below", "outer-below"])
    def test_coordinate_below_its_axis_value(self, tmp_path, rows):
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n" + "".join(f"{p},{q},1,0\n" for p, q in rows))
        with pytest.raises(CsvFormatError, match="tensor grid"):
            read_field_csv(path)

    def test_uneven_inner_coordinates(self, tmp_path):
        # a 2x3 tensor grid whose inner axis q = 0, 1, 3 has two step sizes
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n" + "".join(
            f"{p},{q},1,0\n" for p in (0, 1) for q in (0, 1, 3)))
        with pytest.raises(CsvFormatError, match="inner coordinates are not uniformly increasing"):
            read_field_csv(path)

    def test_decreasing_outer_coordinates(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n" + "".join(
            f"{p},{q},1,0\n" for p in (2, 1, 0) for q in (0, 1)))
        with pytest.raises(CsvFormatError, match="outer coordinates are not uniformly increasing"):
            read_field_csv(path)


class TestOperatorCsv:
    def kernel(self):
        ax = make_axis(-6, 6, 49)
        psi = hermite_functions(0, ax.values)[0]
        return OperatorKernel(ax, np.outer(psi, psi).astype(complex))

    def test_round_trip(self, tmp_path):
        K = self.kernel()
        path = tmp_path / "op.csv"
        write_operator_csv(K, path)
        back = read_operator_csv(path)
        assert back.axis == K.axis
        assert np.array_equal(back.values, K.values)
        assert path.read_text().splitlines()[0] == "q1,q2,re,im"

    def test_density_validation_on_load(self, tmp_path):
        K = self.kernel()
        path = tmp_path / "rho.csv"
        write_operator_csv(K, path)
        validate_density(read_operator_csv(path))  # projector: valid density

    def test_density_validation_rejects_scaled(self, tmp_path):
        K = self.kernel()
        bad = OperatorKernel(K.axis, 2.0 * K.values)
        path = tmp_path / "rho.csv"
        write_operator_csv(bad, path)
        back = read_operator_csv(path)  # reading checks no density invariant
        with pytest.raises(ValueError, match="trace"):
            validate_density(back)

    def test_rejects_two_axes(self, tmp_path):
        # a 3x4 q1,q2 lattice: an operator kernel lives on one axis
        rows = "".join(f"{q1},{q2},1,0\n" for q1 in (0, 1, 2) for q2 in (0, 1, 2, 3))
        path = tmp_path / "op.csv"
        path.write_text("q1,q2,re,im\n" + rows)
        with pytest.raises(CsvFormatError, match="different axes"):
            read_operator_csv(path)


@st.composite
def offset_axes(draw):
    """2 to 40 points, anywhere in [-1e6, 1e6], so some ranges are negative."""
    lo = draw(st.floats(-1e6, 1e6))
    return make_axis(lo, lo + draw(st.floats(0.5, 1e3)), draw(st.integers(2, 40)))


# signed zeros, the smallest subnormal and values near the top of the range
EDGE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
                        st.floats(allow_nan=False, allow_infinity=False))


class TestWriterAgainstPerRowOracle:
    @given(data=st.data())
    def test_bytes_match_and_read_back_bit_exactly(self, data):
        ax1, ax2 = data.draw(offset_axes()), data.draw(offset_axes())

        def draw_values(shape):
            values = np.empty(shape, complex)
            values.real = data.draw(arrays(float, shape, elements=EDGE_VALUES))
            values.imag = data.draw(arrays(float, shape, elements=EDGE_VALUES))
            return values

        # a field on (ax1, ax2); an operator kernel on its one axis ax1
        values, op_values = draw_values((ax1.n, ax2.n)), draw_values((ax1.n, ax1.n))
        with tempfile.TemporaryDirectory() as tmp:
            field_path, op_path = Path(tmp) / "f.csv", Path(tmp) / "op.csv"
            write_field_csv(SampledField(PhaseGrid(ax1, ax2), values), field_path)
            write_operator_csv(OperatorKernel(ax1, op_values), op_path)
            assert field_path.read_bytes() == naive_field_csv(
                "p,q,re,im", ax1.values, ax2.values, values)
            assert op_path.read_bytes() == naive_field_csv(
                "q1,q2,re,im", ax1.values, ax1.values, op_values)
            field, kernel = read_field_csv(field_path), read_operator_csv(op_path)
        assert field.grid == PhaseGrid(ax1, ax2)
        assert kernel.axis == ax1
        assert field.values.tobytes() == values.tobytes()
        assert kernel.values.tobytes() == op_values.tobytes()


def write_text(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


GRID_2x2 = PhaseGrid(make_axis(0.0, 1.0, 2), make_axis(-0.5, 0.25, 2))
ROWS_2x2 = "0,-0.5,1,2\n0,0.25,3,4\n1,-0.5,5,6\n1,0.25,7,8\n"
ARBITRARY_BODIES = (
    st.text(max_size=60)
    | st.text(st.sampled_from("0123456789.,-+eE_ \t\r\n\"#infa\x00"), max_size=80)
    | st.lists(st.lists(st.sampled_from(["0", "1", "-0.5", "0.25", "nan", "1e400", "x",
                                         "", " 1", "1_0", '"1"']), max_size=5)
               .map(",".join), max_size=6).map("\n".join))


class TestCsvReaderEdgeCases:
    """Cells are unquoted numbers and blank lines are skipped; a malformed
    body raises CsvFormatError naming its first bad line where it can."""

    @pytest.mark.filterwarnings("error")
    def test_header_only_is_no_data_rows_without_warning(self, tmp_path):
        for body in ("", "\r\n\r\n"):
            path = write_text(tmp_path / "f.csv", "p,q,re,im\r\n" + body)
            with pytest.raises(CsvFormatError, match="no data rows"):
                read_field_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        text = "p,q,re,im\r\n0,-0.5,1,2\r\n\r\n0,0.25,3,4\n\n1,-0.5,5,6\n1,0.25,7,8\n\n\n"
        h = read_field_csv(write_text(tmp_path / "f.csv", text))
        assert h.grid == GRID_2x2
        assert np.array_equal(h.values, [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])

    @pytest.mark.parametrize("body, error", [
        ("0,-0.5,1\n0,0.25,3\n1,-0.5,5\n1,0.25,7\n", "line 2: expected 4 columns, got 3"),
        ("0,-0.5,1\n0,0.25,3,4\n1,-0.5,5,6\n1,0.25,7,8\n", "line 2: expected 4 columns, got 3"),
        ("0,-0.5,1,2\n0,0.25,3,4\n1,-0.5,5,6,0\n1,0.25,7,8\n",
         "line 4: expected 4 columns, got 5"),
        # with no comment character, numpy reads a "#" line as one cell
        ("# a comment is a 1-column row\n" + ROWS_2x2,
         "line 2: could not convert string '# a comment is a 1-column row' to float64"),
    ], ids=["all-3-columns", "first-row-3-columns", "line-4-5-columns", "comment-line"])
    def test_wrong_column_count_names_line(self, tmp_path, body, error):
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + body)
        with pytest.raises(CsvFormatError, match=f"{error}$"):
            read_field_csv(path)

    def test_underscore_cell_names_line(self, tmp_path):
        # float("1_0") == 10.0 but numpy rejects it: one parse names the line
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + ROWS_2x2.replace("5,6", "1_0,6"))
        with pytest.raises(CsvFormatError,
                           match="line 4: could not convert string '1_0' to float64$"):
            read_field_csv(path)

    @pytest.mark.parametrize("bad, error", [
        ("2,1,1,2,0", "line 102: expected 4 columns, got 5"),
        ("2,1_0,1,2", "line 102: could not convert string '1_0' to float64"),
    ], ids=["columns", "underscore"])
    def test_first_bad_line_of_a_block_wins(self, tmp_path, bad, error):
        # lines 102 and 107 share a block of the 1200-line body: its lines are
        # checked by the block's own rules, the column count and numpy's parse
        # (Python's float accepts "1_0")
        body = grid_body(edits=[(100, bad), (105, "2,6.25,x,2")])
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + body)
        with pytest.raises(CsvFormatError, match=f"{error}$"):
            read_field_csv(path)

    def test_quoted_cell_names_line(self, tmp_path):
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + ROWS_2x2.replace("7,8", '"7",8'))
        with pytest.raises(CsvFormatError, match="line 5"):
            read_field_csv(path)

    def test_bad_last_cell_is_named_within_the_file_size(self, tmp_path, rng):
        # the error scan goes over the rejected block alone, one line at a time
        path = tmp_path / "f.csv"
        write_field_csv(gaussian_poly_field(square_grid(3, 201), rng), path)
        good = path.read_bytes()
        path.write_bytes(good[:good.rindex(b",") + 1] + b"oops\r\n")
        tracemalloc.start()
        try:
            with pytest.raises(CsvFormatError, match=f"line {201**2 + 1}: could not convert"):
                read_field_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_exact_bytes_of_a_2x2_write(self, tmp_path):
        vals = np.array([[1 / 3, -2.5 + 1e-20j], [0.1 - 0.2j, 1e300]])
        path = tmp_path / "f.csv"
        write_field_csv(SampledField(GRID_2x2, vals), path)
        assert path.read_bytes() == (
            b"p,q,re,im\r\n"
            b"0,-0.5,0.33333333333333331,0\r\n"
            b"0,0.25,-2.5,9.9999999999999995e-21\r\n"
            b"1,-0.5,0.10000000000000001,-0.20000000000000001\r\n"
            b"1,0.25,1.0000000000000001e+300,0\r\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("old, new, line", [
        ("1,-0.5,5,6", "inf,-0.5,5,6", 4),
        ("0,0.25,3,4", "0,1e400,3,4", 3),
        ("1,0.25,7,8", "1,nan,7,8", 5),
    ], ids=["p-inf", "q-overflow", "q-nan"])
    def test_nonfinite_coordinate_names_line(self, tmp_path, old, new, line):
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + ROWS_2x2.replace(old, new))
        with pytest.raises(CsvFormatError, match=f"line {line}: coordinates must be finite"):
            read_field_csv(path)

    def test_operator_bad_value_names_line(self, tmp_path):
        body = ROWS_2x2.replace("3,4", "3,four")
        path = write_text(tmp_path / "op.csv", "q1,q2,re,im\n" + body)
        with pytest.raises(CsvFormatError, match="line 3: could not convert"):
            read_operator_csv(path)

    @given(body=ARBITRARY_BODIES)
    def test_arbitrary_body_reads_or_raises_value_error(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_text(Path(tmp) / "f.csv", "p,q,re,im\n" + body)
            try:
                read_field_csv(path)
            except ValueError:
                pass


def read_in_parts(path, parts):
    """(grid, value bytes) of a field read in this many parts, or (error
    type, text) of the ValueError it raises."""
    with mock.patch.object(fields_io, "_part_count", lambda body_bytes: parts):
        try:
            h = read_field_csv(path)
        except ValueError as err:
            return type(err), str(err)
    return h.grid, h.values.tobytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def exit_codes(monkeypatch):
    """The exit codes of the child processes reaped, in order."""
    codes, waitpid = [], os.waitpid

    def recording_waitpid(pid, options):
        pid, status = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return codes


def grid_body(ends="\n", edits=()):
    """A 30x40 field body, line i ending in ends[i % len(ends)] (a string or
    a list of line ends), with (row index, text) edits applied."""
    rows = [f"{p},{q / 4!r},{p - q / 3!r},-0" for p in range(30) for q in range(40)]
    for i, text in edits:
        rows[i] = text
    return "".join(row + ends[i % len(ends)] for i, row in enumerate(rows))


EDGE_BODIES = {
    "lf": ROWS_2x2,
    "crlf": ROWS_2x2.replace("\n", "\r\n"),
    "lone-cr": ROWS_2x2.replace("\n", "\r"),
    "blank-lines": "0,-0.5,1,2\r\n\r\n0,0.25,3,4\n\n1,-0.5,5,6\n1,0.25,7,8\n\n\n",
    "signed-zeros": ROWS_2x2.replace("1,2", "-0,-0").replace("7,8", "-0,0"),
    "all-3-columns": "0,-0.5,1\n0,0.25,3\n1,-0.5,5\n1,0.25,7\n",
    "line-4-5-columns": ROWS_2x2.replace("5,6", "5,6,0"),
    "comment-line": "# a comment is a 1-column row\n" + ROWS_2x2,
    "p-inf": ROWS_2x2.replace("1,-0.5,5,6", "inf,-0.5,5,6"),
    "q-nan": ROWS_2x2.replace("1,0.25,7,8", "1,nan,7,8"),
    "bad-cell": ROWS_2x2.replace("5,6", "5,oops"),
    "quoted-cell": ROWS_2x2.replace("7,8", '"7",8'),
    "underscore-cell": ROWS_2x2.replace("5,6", "1_0,6"),
    "no-rows": "\r\n\n\r",
    "one-row": "0,0,1,2",
}

# (body, the error a one-pass scan names, or None for a good read)
LARGE_BODIES = {
    "lf": (grid_body(), None),
    "crlf": (grid_body("\r\n"), None),
    "lone-cr": (grid_body("\r"), None),
    "mixed-and-blank-lines": (grid_body(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n\r"]), None),
    "no-last-line-end": (grid_body()[:-1], None),
    "bad-last-cell": (grid_body(edits=[(1199, "29,9.75,1,oops")]), "line 1201: could not"),
    "wrong-columns": (grid_body(edits=[(1000, "25,0,1,2,3")]), "line 1002: expected 4 columns"),
    # the first bad line wins, wherever the later one lies
    "nan-then-bad-cell": (grid_body(edits=[(500, "12,nan,1,2"), (900, "22,1,x,2")]),
                          "line 502: coordinates must be finite"),
    # a cell that Python's float accepts and numpy rejects is named too
    "underscore-then-bad-cell": (grid_body(edits=[(100, "2,1_0,1,2"), (900, "22,1,x,2")]),
                                 "line 102: could not convert"),
    "underscore-only": (grid_body(edits=[(700, "17,1_0,1,2")]), "line 702: could not convert"),
}


class TestSplitRead:
    """A body read in 1, 2 or 3 parts gives the same values bit for bit, or
    the same CsvFormatError text, and leaves no child process behind."""

    @given(body=ARBITRARY_BODIES)
    def test_arbitrary_body_reads_alike_in_parts(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_text(Path(tmp) / "f.csv", "p,q,re,im\n" + body)
            one = read_in_parts(path, 1)
            assert read_in_parts(path, 2) == one
            assert read_in_parts(path, 3) == one

    @pytest.mark.parametrize("parts", [2, 3, 8])
    @pytest.mark.parametrize("name", EDGE_BODIES)
    def test_edge_case_reads_alike_in_parts(self, tmp_path, name, parts):
        # the 2x2 bodies have fewer lines than 8 parts
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + EDGE_BODIES[name])
        assert read_in_parts(path, parts) == read_in_parts(path, 1)

    @pytest.mark.parametrize("name", LARGE_BODIES)
    def test_large_body_reads_alike_in_parts(self, tmp_path, name):
        body, error = LARGE_BODIES[name]
        path = write_text(tmp_path / "f.csv", "p,q,re,im\r\n" + body)
        one = read_in_parts(path, 1)
        if error is None:
            assert one[0] == PhaseGrid(make_axis(0, 29, 30), make_axis(0, 9.75, 40))
            assert np.frombuffer(one[1], complex).imag.tobytes() == np.full(1200, -0.0).tobytes()
        else:
            assert one[0] is CsvFormatError and error in one[1]
        assert read_in_parts(path, 2) == one
        assert read_in_parts(path, 3) == one
        assert_no_child_left()

    def test_children_of_a_good_read_exit_0(self, tmp_path, exit_codes):
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + grid_body())
        read_in_parts(path, 3)
        assert exit_codes == [0, 0]

    @pytest.mark.parametrize("name", ["lf", "bad-last-cell", "nan-then-bad-cell"])
    def test_a_child_that_exits_nonzero_leaves_its_part_to_the_parent(
            self, tmp_path, monkeypatch, exit_codes, name):
        body, _ = LARGE_BODIES[name]
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + body)
        one = read_in_parts(path, 1)
        parent, parse = os.getpid(), fields_io._parse

        def parse_or_exit(*args):
            if os.getpid() != parent:
                os._exit(3)
            return parse(*args)

        monkeypatch.setattr(fields_io, "_parse", parse_or_exit)
        assert read_in_parts(path, 3) == one
        # the first child's exit is read; the second may be killed before its own
        assert len(exit_codes) == 2 and exit_codes[0] == 3
        assert exit_codes[1] in (3, -signal.SIGKILL)
        assert_no_child_left()

    def test_a_bad_first_part_stops_the_children(self, tmp_path, monkeypatch, exit_codes):
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + grid_body(edits=[(10, "0,x,1,2")]))
        parent, parse = os.getpid(), fields_io._parse

        def slow_in_a_child(*args):
            if os.getpid() != parent:
                time.sleep(20)
            return parse(*args)

        monkeypatch.setattr(fields_io, "_parse", slow_in_a_child)
        t0 = time.perf_counter()
        assert read_in_parts(path, 3) == (CsvFormatError, f"{path}: line 12: could not "
                                          "convert string 'x' to float64")
        assert time.perf_counter() - t0 < 10
        assert exit_codes == [-signal.SIGKILL] * 2

    @pytest.mark.parametrize("parts", [1, 2])
    def test_read_peaks_within_2_5x_the_values(self, tmp_path, rng, parts):
        # the result's coordinates and values, 2x, and the parser's blocks
        path = tmp_path / "f.csv"
        write_field_csv(gaussian_poly_field(square_grid(3, 201), rng), path)
        with mock.patch.object(fields_io, "_part_count", lambda body_bytes: parts):
            tracemalloc.start()
            try:
                h = read_field_csv(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2.5 * h.values.nbytes

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_reads_in_one_part(self, tmp_path):
        r, w = os.pipe()
        os.write(w, ("p,q,re,im\r\n" + grid_body("\r\n")).encode())
        os.close(w)
        try:
            got = read_in_parts(f"/dev/fd/{r}", 3)
        finally:
            os.close(r)
        path = write_text(tmp_path / "f.csv", "p,q,re,im\r\n" + grid_body("\r\n"))
        assert got == read_in_parts(path, 1)
