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

Reader and writer cut their work into parts, one per usable core
(``os.sched_getaffinity``) and each of at least ``MIN_PART_BYTES``, so a
small file is one part: the reader cuts the body after a ``\\n`` byte, the
writer its rows between outer rows.  Each part after the first goes to a
child made with ``os.fork``, which writes its result into an in-memory file
(``os.memfd_create``) and exits.  In order, each part follows one rule: its
child is reaped, and only if it exited 0 is its file read from the start,
for the reader's rows or the text of its bad line, or for the writer's bytes,
copied to the output in chunks; otherwise the calling process does the part.
A child not yet reaped is killed and reaped before the read or write returns
or raises.  So the bytes written are the same in any parts, and each part is
parsed once, by the process that names its bad line.  Where ``os.fork``,
``os.sched_getaffinity`` or ``os.memfd_create`` is missing there is one part.
Every part of a read reads the caller's open file, which a child reopens as
``/proc/self/fd/<fd>``, so a path replaced during the read changes nothing;
a pipe is copied into an in-memory file once its line 1 has passed.

Line 1 is read from at most the input's first 4096 bytes, so a line 1 of
4096 or more bytes is no header, and a rejected line 1 is echoed to at most
64 characters.  Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r`` and reach
numpy with their ends.  Each part goes to ``np.loadtxt`` in blocks of lines,
and every cell must be a plain, finite number; in a block it rejects, the
same parse, line by line, names the first bad line (an undecodable byte
reads as U+FFFD, which no cell parses).  The grid check's tolerances scale
with each axis, and an axis whose span leaves the float range is named.
Python 3.12 and later warn that a ``fork`` in a process with threads
(OpenBLAS starts some) may deadlock the child; the child here runs no BLAS,
loads no module and no atexit handler.
"""
from __future__ import annotations

import io
import itertools
import os
import shutil
import signal
import warnings

import numpy as np

from .grid import Axis, OperatorKernel, PhaseGrid, SampledField

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
    args = [(*table, a, b) for a, b in zip(bounds, bounds[1:])]  # _text's, per part
    children = {}  # part: (pid, in-memory file) of a child not yet reaped
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\r\n")
            _fork_parts(children, _text, args)
            for part in range(parts):
                # copyfileobj returns None: "or True" tells a copied part from none
                if not _take(children, part, lambda src: shutil.copyfileobj(src, fh) or True):
                    fh.writelines(_text(*args[part]))
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
    with open(path, "rb") as src, (src if src.seekable() else _in_memory()) as fb:
        fh = io.TextIOWrapper(fb, errors="replace", newline="")  # a line keeps its end
        head = src.read(4096)  # no header is this long: line 1 is read from these bytes
        first = head.splitlines(keepends=True)[0] if head else b""  # split as fh splits
        text = first.decode(fh.encoding, "replace")
        if not first:
            raise CsvFormatError(f"{path}: empty file (line 1: expected header {header})")
        if len(first) == 4096 or [c.strip() for c in text.split(",")] != header.split(","):
            raise CsvFormatError(
                f"{path}: line 1: expected header {header!r}, got {text.strip()[:64]!r}")
        if fb is not src:  # a pipe whose header passed: into an in-memory file, read as a file is
            fb.write(head)
            shutil.copyfileobj(src, fb)
        start, end = len(first), fb.seek(0, os.SEEK_END)
        bounds = _bounds(fb, start, end, _part_count(end - start))
        counts = [_count_lines(fb, a, b) for a, b in zip(bounds, bounds[1:])]
        # a row per line: blank lines leave unused rows at the end
        coords, values = np.empty((sum(counts), 2)), np.empty(sum(counts), complex)
        rows = _parse_parts(path, fh, bounds, counts, coords, values)
    if rows == 0:
        raise CsvFormatError(f"{path}: no data rows")
    ax1, ax2 = _axes_from_columns(coords[:rows, 0], coords[:rows, 1], path)
    return ax1, ax2, values[:rows].reshape(ax1.n, ax2.n)


def _in_memory():
    """An empty in-memory file, which a forked child can reopen where it is a memfd."""
    return open(os.memfd_create("input"), "w+b") if hasattr(os, "memfd_create") else io.BytesIO()


def _part_count(body_bytes: int) -> int:
    """One part per usable core, each of at least MIN_PART_BYTES; one part
    where ``os.fork``, ``os.sched_getaffinity`` or ``os.memfd_create`` is missing."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")):
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


def _parse(path, lines, count: int, coords: np.ndarray, values: np.ndarray, lineno: int) -> int:
    """Parse ``count`` lines of ``lines``, from line ``lineno``, in blocks of
    count/_BLOCKS into the leading rows of coords and values; return the row
    count.  In a block ``_rows`` rejects, name the first line it rejects alone."""
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
    args = [(path, fh, *cut) for cut in zip(bounds, counts, firsts)]  # _parse_part's, per part
    children = {}  # part: (pid, in-memory file) of a child not yet reaped
    try:
        _fork_parts(children, _parse_part, args)
        rows = 0
        for part, (_, _, start, count, lineno) in enumerate(args):
            got = _take(children, part,
                        lambda src: _receive(src, coords[rows:], values[rows:], count))
            if isinstance(got, str):
                raise CsvFormatError(got)  # the bad line its child met
            if got is None:  # no child, or none that exited 0
                fh.seek(start)
                got = _parse(path, fh, count, coords[rows:], values[rows:], lineno)
            rows += got
    finally:
        _reap(children)
    return rows


def _reap(children: dict) -> None:
    for pid, out in children.values():  # not reaped yet
        out.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _fork_parts(children: dict, run, args: list) -> None:
    """Fork a child for each part after the first, to run ``run(*args[part])``,
    until a fork fails."""
    for part in range(1, len(args)):
        try:
            children[part] = _fork(run, *args[part])
        except OSError:
            break


def _fork(run, *args):
    """(pid, in-memory file) of a forked child that writes the byte pieces of
    ``run(*args)`` into that file, then exits 0 (1 if run raised)."""
    out = open(os.memfd_create("part"), "w+b")
    try:
        pid = os.fork()
    except OSError:
        out.close()
        raise
    if pid == 0:  # the child: no BLAS, no module loaded, no atexit handler
        status = 1
        try:
            out.writelines(run(*args))
            out.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, out


def _take(children: dict, part: int, read):
    """Reap the part's child and return ``read`` of its file, from the start, if it
    exited 0; None if the part has no child or its child did not exit 0."""
    if part in children:
        status = os.waitpid(children[part][0], 0)[1]
        with children.pop(part)[1] as out:  # reaped, so popped; closed even if read raises
            if status == 0:
                out.seek(0)
                return read(out)


def _parse_part(path, fh, start: int, count: int, lineno: int) -> tuple:
    """A child's pieces for ``count`` lines of fh from byte ``start``, the first of
    them line ``lineno``: their row count and rows, or the text of the CsvFormatError
    it meets behind a row count past the part."""
    coords, values = np.empty((count, 2)), np.empty(count, complex)
    # fh's file, not path's, with its own offset: a forked handle shares the parent's
    with open(f"/proc/self/fd/{fh.fileno()}", errors="replace", newline="") as own:
        own.seek(start)
        try:
            rows = _parse(path, own, count, coords, values, lineno)
        except CsvFormatError as err:  # fsencode: the path in it may hold bytes that are not UTF-8
            return (count + 1).to_bytes(8, "little"), os.fsencode(str(err))
    return rows.to_bytes(8, "little"), coords[:rows], values[:rows]


def _receive(src, coords: np.ndarray, values: np.ndarray, count: int) -> int | str:
    """Read a child's rows into the leading rows of coords and values and return
    their count, or return the error text it wrote instead."""
    rows = int.from_bytes(src.read(8), "little")
    if rows > count:
        return os.fsdecode(src.read())
    src.readinto(coords[:rows])
    src.readinto(values[:rows])
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
