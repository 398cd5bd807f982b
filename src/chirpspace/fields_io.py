"""CSV serialization of sampled fields and operator kernels.

Field files: header ``p,q,re,im``, one row per grid point in storage order
(p outer, q inner), floats written with 17 significant digits so that a
write/read round trip is bit-exact.  Operator kernels use ``q1,q2,re,im``
with the same layout; their q1 and q2 columns must give one axis (whether the
kernel is a density operator is ``quantum.validate_density``'s check).  Axes
are reconstructed from the coordinate columns and validated for uniformity.
The writer formats each coordinate once: the inner coordinates go into a row
template with two ``%.17g`` value slots per point, and each outer row is
filled by one ``%`` over its interleaved (re, im) values.

The reader splits the body into parts of whole lines, one per usable core
(``os.sched_getaffinity``) and each of at least ``MIN_PART_BYTES``, so a
small file is one part; a cut always follows a ``\\n`` byte, so the lines
are those of one pass in text mode.  The calling process parses part 0;
each other part is parsed by a child made with ``os.fork``, which opens the
file itself, sends its rows back through a pipe straight into their slice
of the result, and leaves by ``os._exit``.  Every child is reaped before
the read returns or raises.  A pipe is read into memory as one part.  Each
part goes to ``np.loadtxt`` in blocks of lines, and cells are plain numbers;
in a block it rejects, the same parse, line by line, finds the first bad line.
Python 3.12 and later warn that a ``fork`` in a process with threads
(OpenBLAS starts some) may deadlock the child; the child here runs no BLAS,
loads no module and runs no atexit handler.
"""
from __future__ import annotations

import io
import itertools
import os
import signal
import warnings

import numpy as np

from .grid import Axis, PhaseGrid, SampledField
from .quantum import OperatorKernel

__all__ = ["write_field_csv", "read_field_csv", "write_operator_csv", "read_operator_csv"]

# the least body a part is forked for: a fork and reap takes about 5 ms,
# which numpy's parser spends on about a third of a megabyte
MIN_PART_BYTES = 1 << 20
# a part is parsed in blocks of about 1/_BLOCKS of its lines, so the parser's
# own arrays stay small beside the result
_BLOCKS = 64
# bytes read at a time when counting lines
_COUNT_BYTES = 1 << 18


class CsvFormatError(ValueError):
    """Malformed field/operator CSV; message carries the 1-based line number."""


def _write(path, header: str, ax1: Axis, ax2: Axis, values: np.ndarray) -> None:
    # joined by an outer coordinate, these are the template of one outer row:
    # "p,q,%.17g,%.17g\r\n" per inner coordinate q
    pieces = [""] + [",%.17g,%%.17g,%%.17g\r\n" % q for q in ax2.values.tolist()]
    # re, im, re, im, ... along each outer row: a view of the (C-contiguous,
    # complex) values that SampledField and OperatorKernel hold
    cells = values.view(float)
    # newline="" keeps the \r\n line ends untranslated on every platform
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for outer, row in zip(ax1.values.tolist(), cells):
            fh.write(("%.17g" % outer).join(pieces) % tuple(row.tolist()))


def write_field_csv(field: SampledField, path) -> None:
    _write(path, "p,q,re,im", field.grid.p_axis, field.grid.q_axis, field.values)


def write_operator_csv(kernel: OperatorKernel, path) -> None:
    _write(path, "q1,q2,re,im", kernel.axis, kernel.axis, kernel.values)


def _read(path, header: str) -> tuple[Axis, Axis, np.ndarray]:
    """(outer axis, inner axis, complex values) of a CSV with this header."""
    with open(path) as fh:
        seekable = fh.seekable()
        if not seekable:  # a pipe: its bytes in memory, parsed in one part
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), fh.encoding)
        first = fh.readline()
        if not first:
            raise CsvFormatError(f"{path}: empty file (line 1: expected header {header})")
        if [c.strip() for c in first.split(",")] != header.split(","):
            raise CsvFormatError(
                f"{path}: line 1: expected header {header!r}, got {first.strip()!r}")
        start, end = _body_start(fh, first), fh.buffer.seek(0, os.SEEK_END)
        parts = _part_count(end - start) if seekable else 1
        bounds = _bounds(fh.buffer, start, end, parts)
        counts = [_count_lines(fh.buffer, a, b) for a, b in zip(bounds, bounds[1:])]
        # a row per line: blank lines leave unused rows at the end
        coords, values = np.empty((sum(counts), 2)), np.empty(sum(counts), complex)
        try:
            rows = _parse_parts(path, fh, bounds, counts, coords, values)
        except _BadBlock as bad:
            _reject(path, *bad.args)
    if rows == 0:
        raise CsvFormatError(f"{path}: no data rows")
    ax1, ax2 = _axes_from_columns(coords[:rows, 0], coords[:rows, 1], path)
    return ax1, ax2, values[:rows].reshape(ax1.n, ax2.n)


def _part_count(body_bytes: int) -> int:
    """One part per usable core, each of at least MIN_PART_BYTES; one part
    where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), body_bytes // MIN_PART_BYTES))


def _body_start(fh, first: str) -> int:
    """Byte offset of line 2: past the header and its line end, which text
    mode read as "\\n" from "\\r\\n", "\\r" or "\\n"."""
    text = first[:-1] if first.endswith("\n") else first
    at = len(text.encode(fh.encoding))
    fh.buffer.seek(at)
    line_end = fh.buffer.read(2)
    return at + (2 if line_end == b"\r\n" else len(line_end[:1]))


def _bounds(fb, start: int, end: int, parts: int) -> list[int]:
    """start, at most parts - 1 cuts, end: a cut is the first byte after the
    first "\\n" at or past k/parts of the body.  Fewer cuts where lines are
    long, none in a body of one line."""
    cuts = [start]
    for k in range(1, parts):
        fb.seek(max(cuts[-1], start + 1, start + (end - start) * k // parts) - 1)
        fb.readline()
        if cuts[-1] < fb.tell() < end:
            cuts.append(fb.tell())
    return cuts + [end]


def _count_lines(fb, start: int, stop: int) -> int:
    """Lines in bytes [start, stop) of a binary file, split as text mode
    splits them: at "\\n", "\\r\\n" and a lone "\\r".  stop is the end of the
    file or follows a "\\n"."""
    lines = 0
    for at in range(start, stop, _COUNT_BYTES):
        n = min(_COUNT_BYTES, stop - at)
        fb.seek(at)
        raw = fb.read(n + 1)  # and the next byte, which a last "\r" may pair with
        chunk = np.frombuffer(raw, np.uint8)
        lines += np.count_nonzero(chunk[:n] == ord("\n"))
        if b"\r" in raw[:n]:
            cr = np.flatnonzero(chunk[:n] == ord("\r"))
            paired = chunk[cr[cr + 1 < len(chunk)] + 1] == ord("\n")
            lines += len(cr) - np.count_nonzero(paired)
    if stop > start:
        fb.seek(stop - 1)
        lines += fb.read(1) not in b"\r\n"  # a last line with no line end
    return int(lines)


class _BadBlock(Exception):
    """(number of its first line, its lines): a block that ``_rows`` rejects."""


def _rows(lines) -> np.ndarray:
    """The rows of these lines as ``np.loadtxt`` parses them, four cells each
    with finite coordinates, or a ValueError that says what is wrong.  A blank
    line gives no row (only blank lines: a UserWarning, which callers filter)."""
    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if len(data) and data.shape[1] != 4:
        raise ValueError(f"expected 4 columns, got {data.shape[1]}")
    # np.all, not ndarray.all: the method looks up a numpy module on its
    # first call in a process, which may be a forked child
    if not np.all(np.isfinite(data[:, :2])):
        raise ValueError("coordinates must be finite")
    return data


def _parse(lines, count: int, coords: np.ndarray, values: np.ndarray, lineno: int) -> int:
    """Parse the next ``count`` lines of ``lines``, the first of which is
    line ``lineno``, into the leading rows of coords and values, and return
    the row count.  ``_rows`` takes them in blocks of count/_BLOCKS."""
    # (re, im) pairs: re + 1j*im would turn a -0.0 into +0.0
    pairs = values.view(float).reshape(-1, 2)
    size, rows = count // _BLOCKS + 1, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines
        for first in range(0, count, size):
            block = list(itertools.islice(lines, min(size, count - first)))
            try:
                data = _rows(block)
            except ValueError:
                raise _BadBlock(lineno + first, block) from None
            if not len(data):  # blank lines only
                continue
            coords[rows:rows + len(data)] = data[:, :2]
            pairs[rows:rows + len(data)] = data[:, 2:]
            rows += len(data)
    return rows


def _parse_parts(path, fh, bounds, counts, coords, values) -> int:
    """Rows parsed from the parts of the body between bounds: part 0 here,
    each other part in a forked child, each part into its slice of coords
    and values.  From the first part whose child fails, or cannot be forked,
    the rest of the body is parsed here.  Every child is reaped before this
    returns or raises."""
    children, k = [], 1  # k: the next part to take
    try:
        for start, count in zip(bounds[1:-1], counts[1:]):
            try:
                children.append(_fork(path, start, count))
            except OSError:
                break
        fh.seek(bounds[0])
        rows = _parse(fh, counts[0], coords, values, 2)
        for _, src in children:
            got = _receive(src, coords[rows:], values[rows:], counts[k])
            if got is None:
                break
            rows, k = rows + got, k + 1
    finally:
        for part, (pid, src) in enumerate(children, 1):
            src.close()
            if part >= k:  # its rows did not arrive: it may still be parsing
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if k < len(counts):
        fh.seek(bounds[k])
        rows += _parse(fh, sum(counts[k:]), coords[rows:], values[rows:], 2 + sum(counts[:k]))
    return rows


def _fork(path, start: int, count: int):
    """(pid, read end of its pipe) of a forked child that parses ``count``
    lines from byte ``start`` of the file and sends back their row count
    and rows."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child: no BLAS, no module loaded, no atexit handler
        status = 1
        try:
            coords, values = np.empty((count, 2)), np.empty(count, complex)
            # its own file offset: a forked handle shares the parent's
            with open(path) as fh:
                fh.seek(start)
                rows = _parse(fh, count, coords, values, 0)
            with open(w, "wb") as out:
                out.write(rows.to_bytes(8, "little"))
                out.write(coords[:rows])
                out.write(values[:rows])
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _receive(src, coords: np.ndarray, values: np.ndarray, count: int) -> int | None:
    """Read the rows a child sent into the leading rows of coords and values
    and return their count, or None if it sent no complete result."""
    head = src.read(8)
    rows = int.from_bytes(head, "little")
    if len(head) < 8 or rows > count:
        return None
    for dest in (coords[:rows], values[:rows]):
        if src.readinto(dest) < dest.nbytes:
            return None
    return rows


def _reject(path, lineno: int, block) -> None:
    """Raise the error for a block that ``_rows`` rejected, whose first line
    is line ``lineno``: ``_rows`` takes its lines one at a time, and the first
    it rejects is named."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a blank line
        for lineno, line in enumerate(block, lineno):
            try:
                _rows([line])
            except ValueError as err:  # numpy's " at row " counts in a one-line list
                raise CsvFormatError(
                    f"{path}: line {lineno}: {str(err).split(' at row ')[0]}") from None


def _axes_from_columns(c1: np.ndarray, c2: np.ndarray, path) -> tuple[Axis, Axis]:
    # storage order: first coordinate outer, second inner
    n2 = 1
    while n2 < len(c2) and c2[n2] != c2[0]:
        n2 += 1
    if len(c1) % n2 != 0:
        raise CsvFormatError(f"{path}: row count {len(c1)} not a multiple of inner length {n2}")
    n1 = len(c1) // n2
    v1 = c1[::n2]
    v2 = c2[:n2]
    if n1 < 2 or n2 < 2:
        raise CsvFormatError(f"{path}: grid must be at least 2x2, got {n1}x{n2}")
    # each coordinate column against its axis: c - v rounds monotonically in
    # c, so the column's extremes along the other axis give its largest
    # deviation exactly, and no n1 x n2 array is made
    for c, v, other in ((c1.reshape(n1, n2), v1, 1), (c2.reshape(n1, n2), v2, 0)):
        dev = max(np.abs(c.max(other) - v).max(), np.abs(c.min(other) - v).max())
        if dev > 1e-12 * max(1, np.abs(v).max()):
            raise CsvFormatError(f"{path}: coordinates do not form a row-major tensor grid")

    def to_axis(v, name):
        steps = np.diff(v)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * max(1.0, steps.max()):
            raise CsvFormatError(f"{path}: {name} coordinates are not uniformly increasing")
        return Axis(float(v[0]), float(v[-1]), len(v))

    return to_axis(v1, "outer"), to_axis(v2, "inner")


def read_field_csv(path) -> SampledField:
    ax_p, ax_q, values = _read(path, "p,q,re,im")
    return SampledField(PhaseGrid(ax_p, ax_q), values)


def read_operator_csv(path) -> OperatorKernel:
    ax1, ax2, values = _read(path, "q1,q2,re,im")
    if ax1 != ax2:
        raise CsvFormatError(f"{path}: q1 and q2 give different axes, {ax1} and {ax2}")
    return OperatorKernel(ax1, values)
