"""CSV serialization of sampled fields and operator kernels.

Field files: header ``p,q,re,im``, one row per grid point in storage order
(p outer, q inner), floats written with 17 significant digits so that a
write/read round trip is bit-exact.  Operator kernels use ``q1,q2,re,im``
with the same layout; their q1 and q2 columns must give one axis (whether the
kernel is a density operator is ``quantum.validate_density``'s check).  Axes
are reconstructed from the coordinate columns and validated for uniformity.
The writer formats each coordinate once: the inner coordinates go into a row
template with two ``%.17g`` value slots per point, and each outer row is
filled by one ``%`` over its interleaved (re, im) values.  Its rows are cut
between outer rows into parts as the reader would cut its bytes; a forked
child formats each part after the first, copied from its pipe in order (or
formatted here if its child failed), so the bytes are the same in any parts.

The reader splits the body into parts of whole lines, one per usable core
(``os.sched_getaffinity``) and each of at least ``MIN_PART_BYTES``, so a
small file is one part; a cut always follows a ``\\n`` byte.  Lines end at
``\\n``, ``\\r\\n`` or a lone ``\\r`` and reach numpy with their ends.  Each
part after the first goes to a child made with ``os.fork``, once part 0's
first block has parsed; it opens the file itself and sends back through a
pipe its rows, or the text of its first bad line, before ``os._exit``.
Each part is parsed once, and the process that parses it names its bad
line: in order, a part's rows are read from its child into their slice of
the result, or its child's error is raised, and the child is reaped; with
no child, or no complete result from it, the calling process parses the
part.  A child whose result was not read is killed and reaped before the
read returns or raises.  A pipe is read into memory as one part.  Each part
goes to ``np.loadtxt`` in blocks of lines, and every cell must be a plain,
finite number; in a block it rejects, the same parse, line by line, names
the first bad line (an undecodable byte reads as U+FFFD, which no cell
parses).  The grid check's tolerances scale with each axis, and an axis
whose span leaves the float range is named.  Reader and writer fork through
``_fork``.  Python 3.12 and later warn that a ``fork`` in a process with
threads (OpenBLAS starts some) may deadlock the child; the child here runs
no BLAS, loads no module and no atexit handler.
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
    table, n1 = (ax1.values.tolist(), pieces, values.view(float)), ax1.n
    parts = min(n1, _part_count(n1 * len(next(_text(*table, 0, 1)))))  # its first row, n1 times
    bounds = [n1 * k // parts for k in range(parts + 1)]  # cuts between outer rows
    children = {}  # part: (pid, read end of its pipe) of a child not yet read
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\r\n")
            for part in range(1, parts):
                try:
                    children[part] = _fork(_text, *table, bounds[part], bounds[part + 1])
                except OSError:
                    break
            for part in range(parts):
                if part in children:
                    pid, src = children.pop(part)
                    with src:
                        got = src.read()
                    if os.waitpid(pid, 0)[1] == 0:  # so it sent all its rows
                        fh.write(got)
                        continue
                fh.writelines(_text(*table, bounds[part], bounds[part + 1]))
    finally:
        _reap(children)


def _text(outer: list, pieces: list, cells: np.ndarray, a: int, b: int):
    """The bytes of outer rows a to b, one piece per outer row."""
    for i in range(a, b):
        yield (("%.17g" % outer[i]).join(pieces) % tuple(cells[i].tolist())).encode()


def write_field_csv(field: SampledField, path) -> None:
    _write(path, "p,q,re,im", field.grid.p_axis, field.grid.q_axis, field.values)


def write_operator_csv(kernel: OperatorKernel, path) -> None:
    _write(path, "q1,q2,re,im", kernel.axis, kernel.axis, kernel.values)


def _read(path, header: str) -> tuple[Axis, Axis, np.ndarray]:
    """(outer axis, inner axis, complex values) of a CSV with this header."""
    # newline="": a line keeps its end, so the header's bytes are its text's
    with open(path, errors="replace", newline="") as fh:
        seekable = fh.seekable()
        if not seekable:  # a pipe: its bytes in memory, parsed in one part
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), fh.encoding, "replace", "")
        first = fh.readline()
        if not first:
            raise CsvFormatError(f"{path}: empty file (line 1: expected header {header})")
        if [c.strip() for c in first.split(",")] != header.split(","):
            raise CsvFormatError(
                f"{path}: line 1: expected header {header!r}, got {first.strip()!r}")
        start, end = len(first.encode(fh.encoding)), fh.buffer.seek(0, os.SEEK_END)
        parts = _part_count(end - start) if seekable else 1
        bounds = _bounds(fh.buffer, start, end, parts)
        counts = [_count_lines(fh.buffer, a, b) for a, b in zip(bounds, bounds[1:])]
        # a row per line: blank lines leave unused rows at the end
        coords, values = np.empty((sum(counts), 2)), np.empty(sum(counts), complex)
        rows = _parse_parts(path, fh, bounds, counts, coords, values)
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
    if not np.all(np.isfinite(data[:, 2:])):
        raise ValueError("values must be finite")
    return data


def _parse(path, lines, count: int, coords: np.ndarray, values: np.ndarray, lineno: int,
           then=None) -> int:
    """Parse ``count`` lines of ``lines``, from line ``lineno``, in blocks of
    count/_BLOCKS into the leading rows of coords and values; return the row
    count.  In a block ``_rows`` rejects, name the first line it rejects alone.
    Call ``then()``, if given, once the first block has parsed."""
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
                for n, line in enumerate(block, lineno + first):
                    try:
                        _rows([line])
                    except ValueError as err:  # numpy's " at row " counts in a one-line list
                        raise CsvFormatError(
                            f"{path}: line {n}: {str(err).split(' at row ')[0]}") from None
            if then is not None:
                then()
                then = None
            if not len(data):  # blank lines only
                continue
            coords[rows:rows + len(data)] = data[:, :2]
            pairs[rows:rows + len(data)] = data[:, 2:]
            rows += len(data)
    return rows


def _parse_parts(path, fh, bounds, counts, coords, values) -> int:
    """Rows of the parts between bounds, in order, in consecutive rows of coords and
    values: a part's rows, or the bad line it holds, come from its child, else from here."""
    firsts = list(itertools.accumulate(counts, initial=2))  # each part's first line
    children = {}  # part: (pid, read end of its pipe) of a child not yet read

    def fork_children():  # once part 0's first block parses: a bad line there forks none
        for part in range(1, len(counts)):
            try:
                children[part] = _fork(_parse_part, path, bounds[part], counts[part], firsts[part])
            except OSError:
                break

    try:
        rows = 0
        for part, (start, count, lineno) in enumerate(zip(bounds, counts, firsts)):
            got = None
            if part in children:
                got = _receive(children[part][1], coords[rows:], values[rows:], count)
                pid, src = children.pop(part)
                src.close()  # before the wait: a child still writing gets EPIPE
                if os.waitpid(pid, 0)[1] == 0 and isinstance(got, str):
                    raise CsvFormatError(got)  # the bad line it met
            if not isinstance(got, int):  # no rows, or an error text from a failed child
                fh.seek(start)
                got = _parse(path, fh, count, coords[rows:], values[rows:], lineno,
                             fork_children if part == 0 else None)
            rows += got
    finally:
        _reap(children)
    return rows


def _reap(children: dict) -> None:
    for pid, src in children.values():  # their results were never read
        src.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _fork(run, *args):
    """(pid, read end of its pipe) of a forked child that sends back the
    byte pieces of ``run(*args)``, then exits 0 (1 if run raised)."""
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
            sent = list(run(*args))  # whole before the first write: a pipe holds 64 KiB
            with open(w, "wb") as out:
                out.writelines(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _parse_part(path, start: int, count: int, lineno: int) -> tuple:
    """A child's pieces for ``count`` lines from byte ``start``, the first of them
    line ``lineno``: their row count and rows, or the text of the CsvFormatError
    it meets behind a row count past the part."""
    coords, values = np.empty((count, 2)), np.empty(count, complex)
    # its own file offset: a forked handle shares the parent's
    with open(path, errors="replace", newline="") as fh:
        fh.seek(start)
        try:
            rows = _parse(path, fh, count, coords, values, lineno)
        except CsvFormatError as err:  # fsencode: the path in it may hold bytes that are not UTF-8
            return (count + 1).to_bytes(8, "little"), os.fsencode(str(err))
    return rows.to_bytes(8, "little"), coords[:rows], values[:rows]


def _receive(src, coords: np.ndarray, values: np.ndarray, count: int) -> int | str | None:
    """Read a child's rows into the leading rows of coords and values and return
    their count, or return the error text it sent instead; None if neither came whole."""
    head = src.read(8)
    rows = int.from_bytes(head, "little")
    if len(head) < 8:
        return None
    if rows > count:
        return os.fsdecode(src.read())
    for dest in (coords[:rows], values[:rows]):
        if src.readinto(dest) < dest.nbytes:
            return None
    return rows


def _axes_from_columns(c1: np.ndarray, c2: np.ndarray, path) -> tuple[Axis, Axis]:
    # storage order: first coordinate outer, second inner
    n2 = 1
    while n2 < len(c2) and c2[n2] != c2[0]:
        n2 += 1
    if len(c1) % n2 != 0:
        raise CsvFormatError(f"{path}: row count {len(c1)} not a multiple of inner length {n2}")
    n1, v1, v2 = len(c1) // n2, c1[::n2], c2[:n2]
    if n1 < 2 or n2 < 2:
        raise CsvFormatError(f"{path}: grid must be at least 2x2, got {n1}x{n2}")
    # each coordinate column against its axis, with no n1 x n2 array: c - v rounds
    # monotonically in c, so the column's extremes give its largest deviation.  Each
    # tolerance scales with its axis: its span, and 4 ulps of its largest |coordinate|
    for c, v, other, name in ((c1.reshape(n1, n2), v1, 1, "outer"),
                              (c2.reshape(n1, n2), v2, 0, "inner")):
        with np.errstate(over="ignore"):  # a span or deviation past the float range is inf
            span = np.ptp(v)
            dev = max(np.abs(c.max(other) - v).max(), np.abs(c.min(other) - v).max())
        if np.isinf(span):
            raise CsvFormatError(f"{path}: {name} coordinates span more than the float range")
        if dev > 1e-12 * span + 4 * np.spacing(np.abs(v).max()):
            raise CsvFormatError(f"{path}: coordinates do not form a row-major tensor grid")

    def to_axis(v, name):
        steps = np.diff(v)
        if steps.min() <= 0 or np.ptp(steps) > 1e-9 * np.ptp(v) + 4 * np.spacing(np.abs(v).max()):
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
