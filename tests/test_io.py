import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import gaussian_poly_field, naive_field_csv, package_env, square_grid


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

    # a header padded to 4096 characters is read no further, so it is no header
    @pytest.mark.parametrize("header", ["x,y,re,im", "p,q,re,im" + " " * 4087])
    def test_wrong_header(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n0,0,1,0\n")
        with pytest.raises(CsvFormatError, match=": line 1: expected header"):
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

    @pytest.mark.parametrize("scale", [1e-11, 1.0, 1e6])
    @pytest.mark.parametrize("rows, error", [
        ([(p, q) for p in (0, 1, 5) for q in (0, 1)],
         "outer coordinates are not uniformly increasing"),
        ([(0, 0), (0, 1), (1, 0), (1, 1.05)], "tensor grid"),
        ([(p, q) for p in (0, 1) for q in (0, 1, 3)],
         "inner coordinates are not uniformly increasing"),
    ], ids=["outer-steps-1-and-4", "inner-1.05-against-1", "inner-steps-1-and-2"])
    def test_deviating_grid_is_rejected_at_every_scale(self, tmp_path, scale, rows, error):
        # the tolerances scale with the axis, so no absolute floor lets a
        # small-scale grid through
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n" + "".join(f"{p * scale!r},{q * scale!r},1,0\n"
                                                for p, q in rows))
        with pytest.raises(CsvFormatError, match=error):
            read_field_csv(path)

    @pytest.mark.parametrize("lo, hi, n", [(1e6, 1e6 + 1, 1001), (1e15, 1e15 + 64, 65),
                                           (0, 1e-10, 11), (-1e-300, 1e-300, 5)])
    @pytest.mark.parametrize("outer", [True, False], ids=["p-axis", "q-axis"])
    def test_written_axis_reads_back_exactly_at_any_scale_or_offset(
            self, tmp_path, lo, hi, n, outer):
        axes = (make_axis(lo, hi, n), make_axis(-1, 1, 3))
        grid = PhaseGrid(*(axes if outer else axes[::-1]))
        h = SampledField(grid, np.arange(n * 3).reshape(grid.shape) * (1 - 0.5j))
        write_field_csv(h, tmp_path / "f.csv")
        back = read_field_csv(tmp_path / "f.csv")
        assert back.grid == grid
        assert back.values.tobytes() == h.values.tobytes()

    @pytest.mark.parametrize("rows, error", [
        ([(-1e308, 0), (-1e308, 1), (1e308, 0), (1e308, 1)],
         "outer coordinates span more than the float range"),
        ([(0, -1e308), (0, 1e308), (1, -1e308), (1, 1e308)],
         "inner coordinates span more than the float range"),
        # p spans 1e308, but one row's p cells differ by 2e308
        ([(-1e308, 0), (1e308, 1), (0, 0), (0, 1)],
         "coordinates do not form a row-major tensor grid"),
    ], ids=["outer-span", "inner-span", "row-deviation"])
    def test_coordinates_past_the_float_range_are_named(self, tmp_path, rows, error):
        # the check warns of no overflow (a RuntimeWarning fails the test)
        path = tmp_path / "f.csv"
        path.write_text("p,q,re,im\n" + "".join(f"{p!r},{q!r},1,0\n" for p, q in rows))
        with pytest.raises(CsvFormatError) as err:
            read_field_csv(path)
        assert str(err.value) == f"{path}: {error}"


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


# a file object collected unclosed warns in its __del__, which pytest reports
# as an unraisable exception
UNCLOSED_FILE_FAILS = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


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

    @UNCLOSED_FILE_FAILS
    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("n1, n2", [(6, 4), (7, 5), (2, 3)],
                             ids=["n1-6", "n1-7", "n1-2"])
    def test_bytes_match_the_one_part_writer_at_any_part_count(self, tmp_path, n1, n2, parts):
        # 7 outer rows do not split evenly in 2 or 3 parts, and 2 are fewer than 3
        ax1, ax2 = make_axis(-1.5, 2.0, n1), make_axis(0.1, 0.7, n2)
        values = np.arange(n1 * n2).reshape(n1, n2) / 7 - 0.5j
        values[::2, 1] = complex(-0.0, -0.0)
        op_values = np.outer(np.arange(n1) / 3, np.ones(n1)) * (1 + 0j)
        op_values[0] = complex(0.0, -0.0)
        for write, obj, header, oracle_args in (
                (write_field_csv, SampledField(PhaseGrid(ax1, ax2), values), "p,q,re,im",
                 (ax1.values, ax2.values, values)),
                (write_operator_csv, OperatorKernel(ax1, op_values), "q1,q2,re,im",
                 (ax1.values, ax1.values, op_values))):
            path = tmp_path / f"{header}.csv"
            write_in_parts(write, obj, path, 1)
            one = path.read_bytes()
            assert one == naive_field_csv(header, *oracle_args)
            write_in_parts(write, obj, path, parts)
            assert path.read_bytes() == one

    @UNCLOSED_FILE_FAILS
    @pytest.mark.parametrize("how", ["exit-1", "killed"])
    def test_a_failed_child_leaves_its_part_to_the_caller(
            self, tmp_path, monkeypatch, exit_codes, how):
        h = gaussian_poly_field(square_grid(2, 9), np.random.default_rng(1))
        write_in_parts(write_field_csv, h, tmp_path / "one.csv", 1)
        parent, text = os.getpid(), fields_io._text

        def failing_text(*args):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("a child's failure")
            return text(*args)

        monkeypatch.setattr(fields_io, "_text", failing_text)
        write_in_parts(write_field_csv, h, tmp_path / "parts.csv", 3)
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert exit_codes == [1 if how == "exit-1" else -signal.SIGKILL] * 2

    @UNCLOSED_FILE_FAILS
    def test_a_failed_fork_leaves_every_part_to_the_caller(self, tmp_path, monkeypatch):
        h = gaussian_poly_field(square_grid(2, 9), np.random.default_rng(2))
        write_in_parts(write_field_csv, h, tmp_path / "one.csv", 1)

        def no_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        write_in_parts(write_field_csv, h, tmp_path / "parts.csv", 3)
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    @UNCLOSED_FILE_FAILS
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("parts", [1, 3])
    def test_a_fifo_gets_the_bytes_of_a_file(self, tmp_path, parts):
        # a 9x9 field's text fits in the FIFO's buffer, so it is read after the write
        h = gaussian_poly_field(square_grid(2, 9), np.random.default_rng(3))
        write_in_parts(write_field_csv, h, tmp_path / "one.csv", 1)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        r = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_in_parts(write_field_csv, h, fifo, parts)
            got = os.read(r, 1 << 20)
        finally:
            os.close(r)
        assert got == (tmp_path / "one.csv").read_bytes()

    @UNCLOSED_FILE_FAILS
    def test_a_copy_that_raises_leaves_no_child(self, tmp_path, monkeypatch):
        h = gaussian_poly_field(square_grid(2, 9), np.random.default_rng(4))

        def no_memory(src, dst):
            raise MemoryError

        monkeypatch.setattr(fields_io.shutil, "copyfileobj", no_memory)
        assert_raises_leaving_nothing(MemoryError, write_in_parts,
                                      write_field_csv, h, tmp_path / "f.csv", 3)

    def test_the_caller_holds_no_childs_part(self, tmp_path):
        # a 401^2 field's text is about 13 MB; the child's half is copied in chunks
        h = gaussian_poly_field(square_grid(6, 401), np.random.default_rng(5))
        with mock.patch.object(fields_io, "_part_count", lambda estimate: 2):
            tracemalloc.start()
            try:
                write_field_csv(h, tmp_path / "f.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1e6
        assert_no_child_left()


def write_in_parts(write, obj, path, parts):
    """Write obj in this many parts, and check that no child process and
    no file descriptor of the write is left."""
    fds = set(os.listdir("/dev/fd"))
    with mock.patch.object(fields_io, "_part_count", lambda estimate: parts):
        write(obj, path)
    assert set(os.listdir("/dev/fd")) == fds
    assert_no_child_left()


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("row", ["7.0,5.0,nan,-0", "7.0,5.0,1,inf", "7.0,5.0,1e999,-0"],
                             ids=["re-nan", "im-inf", "re-overflow"])
    @pytest.mark.parametrize("header, read", [("p,q,re,im", read_field_csv),
                                              ("q1,q2,re,im", read_operator_csv)],
                             ids=["field", "operator"])
    def test_nonfinite_value_names_line(self, tmp_path, header, read, row, parts):
        # a 35x35 body on one axis; line 1002 lies in the last of 2 or 3 parts
        rows = [f"{a / 4!r},{b / 4!r},{(a == b) / 8.75!r},-0" for a in range(35)
                for b in range(35)]
        rows[1000] = row
        path = write_text(tmp_path / "f.csv", header + "\n" + "\n".join(rows) + "\n")
        with mock.patch.object(fields_io, "_part_count", lambda body_bytes: parts):
            with pytest.raises(CsvFormatError) as err:
                read(path)
        assert str(err.value) == f"{path}: line 1002: values must be finite"
        assert_no_child_left()

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


def assert_raises_leaving_nothing(error, call, *args):
    """call(*args) raises error, and leaves no child process and no file descriptor."""
    fds = set(os.listdir("/dev/fd"))
    with pytest.raises(error):
        call(*args)
    assert set(os.listdir("/dev/fd")) == fds
    assert_no_child_left()


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

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_part_count_is_one_per_usable_core(self, monkeypatch):
        # every other test sets the part count; this one checks how it is chosen
        m = fields_io.MIN_PART_BYTES
        assert [fields_io._part_count(n) for n in (0, m - 1, m, 2 * m - 1)] == [1] * 4
        assert fields_io._part_count(1 << 30) == len(os.sched_getaffinity(0))
        # a process pinned to one core reads and writes in one part, whatever
        # the machine's core count
        cpu = min(os.sched_getaffinity(0))
        pinned = subprocess.run(
            [sys.executable, "-c", f"import os; os.sched_setaffinity(0, [{cpu}]); "
             "from chirpspace import fields_io; print(fields_io._part_count(1 << 30))"],
            capture_output=True, text=True, timeout=120, env=package_env())
        assert pinned.stdout == "1\n", pinned.stderr
        monkeypatch.delattr(os, "memfd_create")
        assert fields_io._part_count(1 << 30) == 1

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

    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"])
    @pytest.mark.parametrize("name", [name for name, (_, error) in LARGE_BODIES.items() if error])
    def test_bad_body_names_its_line_alike_with_any_line_end(self, tmp_path, name, ends):
        # numpy gets each line with its own end
        body, _ = LARGE_BODIES[name]
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + body)
        lf = read_in_parts(path, 1)
        write_text(path, "p,q,re,im" + ends + body.replace("\n", ends))
        for parts in (1, 2, 3):
            assert read_in_parts(path, parts) == lf
        assert_no_child_left()

    @pytest.mark.parametrize("folder", [b"csv", b"csv\xff"], ids=["ascii", "not-utf-8"])
    def test_a_bad_line_in_a_childs_part_is_parsed_once(
            self, tmp_path, monkeypatch, exit_codes, folder):
        # the bad line 1201 lies in the third part: its child names it, sends
        # the text and exits 0, so the calling process parses part 0 alone
        body, _ = LARGE_BODIES["bad-last-cell"]
        try:
            (tmp_path / os.fsdecode(folder)).mkdir()
        except OSError:
            pytest.skip("the file system takes only UTF-8 names")
        path = write_text(tmp_path / os.fsdecode(folder) / "f.csv", "p,q,re,im\n" + body)
        firsts, parse = [], fields_io._parse

        def recording_parse(*args):
            firsts.append(args[5])  # a child's append goes to its own copy
            return parse(*args)

        monkeypatch.setattr(fields_io, "_parse", recording_parse)
        assert read_in_parts(path, 3) == (CsvFormatError, f"{path}: line 1201: could not "
                                          "convert string 'oops' to float64")
        assert firsts == [2]
        assert exit_codes == [0, 0]
        assert_no_child_left()

    def test_an_error_text_from_a_failed_child_is_not_trusted(
            self, tmp_path, monkeypatch, exit_codes):
        # each child exits 5 after it writes its rows or its error text: a
        # part's result counts on exit 0 alone, so both parts are parsed here
        body, _ = LARGE_BODIES["bad-last-cell"]
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + body)
        one = read_in_parts(path, 1)
        parent, firsts, parse, real_exit = os.getpid(), [], fields_io._parse, os._exit

        def recording_parse(*args):
            firsts.append(args[5])
            return parse(*args)

        monkeypatch.setattr(fields_io, "_parse", recording_parse)
        monkeypatch.setattr(os, "_exit",
                            lambda status: real_exit(5 if os.getpid() != parent else status))
        assert read_in_parts(path, 3) == one
        assert firsts == [2, 412, 811]
        assert exit_codes == [5, 5]
        assert_no_child_left()

    @UNCLOSED_FILE_FAILS
    def test_a_receive_that_raises_leaves_no_child(self, tmp_path, monkeypatch):
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + grid_body())

        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(fields_io, "_receive", no_memory)
        assert_raises_leaving_nothing(MemoryError, read_in_parts, path, 3)

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

    def test_a_failed_child_leaves_the_later_children_running(
            self, tmp_path, monkeypatch, exit_codes):
        # the first child exits at once and the second is still parsing: the
        # first part is parsed here, and the second child's rows are read
        path = write_text(tmp_path / "f.csv", "p,q,re,im\n" + grid_body())
        one = read_in_parts(path, 1)
        parent, parse, fork = os.getpid(), fields_io._parse, fields_io._fork
        forked = []

        def counting_fork(*args):
            forked.append(args)
            return fork(*args)

        def exit_or_sleep(*args):
            if os.getpid() != parent:
                if len(forked) == 1:  # a child's copy of the list holds its own fork
                    os._exit(3)
                time.sleep(1)
            return parse(*args)

        monkeypatch.setattr(fields_io, "_fork", counting_fork)
        monkeypatch.setattr(fields_io, "_parse", exit_or_sleep)
        assert read_in_parts(path, 3) == one
        assert exit_codes == [3, 0]
        assert_no_child_left()

    @pytest.mark.parametrize("row", [3, 10], ids=["first-block", "second-block"])
    def test_a_bad_line_in_part_0_is_named_after_every_fork(self, tmp_path, monkeypatch, row):
        # part 0 of 3 holds lines 2 to 401, parsed in blocks of 7 lines; the
        # other parts' children are forked before it is parsed
        path = write_text(tmp_path / "f.csv",
                          "p,q,re,im\n" + grid_body(edits=[(row, "0,1_0,1,2")]))
        fork = mock.Mock(side_effect=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        assert read_in_parts(path, 3) == (CsvFormatError, f"{path}: line {row + 2}: could not "
                                          "convert string '1_0' to float64")
        assert fork.call_count == 2
        assert_no_child_left()

    @pytest.mark.parametrize("parts", [2, 3])
    def test_an_input_replaced_during_the_read_is_read_as_opened(
            self, tmp_path, monkeypatch, parts):
        # v2 has v1's byte layout, with im 5 for 0 on the first and last data
        # lines, and replaces v1 at its path just before the children fork
        def version(im):
            return "p,q,re,im\n" + grid_body(edits=[(0, f"0,0.0,0.0,{im}"),
                                                     (1199, f"29,9.75,16.0,{im}")])

        path, v2 = tmp_path / "f.csv", tmp_path / "v2.csv"
        v1 = read_in_parts(write_text(path, version(0)), 1)
        write_text(v2, version(5))
        fork_parts = fields_io._fork_parts

        def replace_then_fork(*args):
            os.replace(v2, path)
            fork_parts(*args)

        monkeypatch.setattr(fields_io, "_fork_parts", replace_then_fork)
        assert read_in_parts(path, parts) == v1
        assert path.read_text() == version(5)
        assert_no_child_left()

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_undecodable_byte_names_its_line(self, tmp_path, parts):
        path = tmp_path / "f.csv"
        body = "p,q,re,im\n" + grid_body(edits=[(699, "17,@0,1,2")])
        path.write_bytes(body.encode().replace(b"@", b"\xff"))
        assert read_in_parts(path, parts) == (
            CsvFormatError, f"{path}: line 701: could not convert string '\ufffd0' to float64")
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

    @settings(max_examples=200)
    @given(body=st.lists(st.sampled_from([b"a", b"\r", b"\n"]), max_size=40).map(b"".join))
    def test_line_count_at_every_chunk_boundary(self, body):
        # a "\r" that ends one chunk pairs with a "\n" that starts the next
        lines = len(io.TextIOWrapper(io.BytesIO(body), "ascii", newline="").readlines())
        for size in range(1, 8):
            with mock.patch.object(fields_io, "_COUNT_BYTES", size):
                assert fields_io._count_lines(io.BytesIO(body), 0, len(body)) == lines

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
    @pytest.mark.parametrize("parts", [1, 3])
    def test_a_pipe_reads_in_parts_and_the_caller_holds_none_of_its_bytes(
            self, tmp_path, rng, exit_codes, parts):
        # the pipe's bytes go into an in-memory file, which each part reads as a
        # file's, so the read peaks as a file's does
        path = tmp_path / "f.csv"
        write_in_parts(write_field_csv, gaussian_poly_field(square_grid(3, 201), rng), path, 1)
        fds, data, (r, w) = set(os.listdir("/dev/fd")), path.read_bytes(), os.pipe()

        def feed():  # a pipe holds 64 KiB, so another thread writes it
            with open(w, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with mock.patch.object(fields_io, "_part_count", lambda body_bytes: parts):
                tracemalloc.start()
                try:
                    h = read_field_csv(f"/dev/fd/{r}")
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        finally:
            os.close(r)
            writer.join(60)
        assert not writer.is_alive()
        assert set(os.listdir("/dev/fd")) == fds  # the in-memory file is closed too
        assert exit_codes == [0] * (parts - 1)
        assert (h.grid, h.values.tobytes()) == read_in_parts(path, 1)
        assert peak <= 2.5 * h.values.nbytes

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_whose_line_1_fails_is_not_copied(self):
        # line 1 is read from the pipe's first 4096 bytes, so 8 MiB of NUL bytes
        # are rejected after about 4 KiB and the 64 KiB the pipe holds are taken
        r, w = os.pipe()
        taken = []

        def feed():
            try:
                for _ in range(2048):
                    taken.append(os.write(w, bytes(4096)))
            except BrokenPipeError:  # the reader closed its end
                pass
            finally:
                os.close(w)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(CsvFormatError, match=f"^/dev/fd/{r}: line 1: expected header"):
                read_field_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)
            writer.join(60)
        assert not writer.is_alive()
        assert 4096 <= sum(taken) < 1 << 20

    @UNCLOSED_FILE_FAILS
    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_copy_that_raises_leaves_nothing(self, monkeypatch):
        r, w = os.pipe()
        os.write(w, ("p,q,re,im\n" + ROWS_2x2).encode())
        os.close(w)

        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(fields_io.shutil, "copyfileobj", no_memory)
        try:
            assert_raises_leaving_nothing(MemoryError, read_in_parts, f"/dev/fd/{r}", 3)
        finally:
            os.close(r)
