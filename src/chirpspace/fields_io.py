"""CSV serialization of sampled fields and operator kernels.

Field files: header ``p,q,re,im``, one row per grid point in storage order
(p outer, q inner), floats written with 17 significant digits so that a
write/read round trip is bit-exact.  Operator kernels use ``q1,q2,re,im``
with the same layout; their q1 and q2 columns must give one axis (whether the
kernel is a density operator is ``quantum.validate_density``'s check).  Axes
are reconstructed from the coordinate columns and validated for uniformity.
Rows are read with one ``np.loadtxt``; cells are plain numbers.  The writer
formats each coordinate once: the inner coordinates go into a row template
with two ``%.17g`` value slots per point, and each outer row is filled by one
``%`` over its interleaved (re, im) values.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .grid import Axis, PhaseGrid, SampledField
from .quantum import OperatorKernel

__all__ = ["write_field_csv", "read_field_csv", "write_operator_csv", "read_operator_csv"]


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
        first = fh.readline()
        if not first:
            raise CsvFormatError(f"{path}: empty file (line 1: expected header {header})")
        if [c.strip() for c in first.split(",")] != header.split(","):
            raise CsvFormatError(
                f"{path}: line 1: expected header {header!r}, got {first.strip()!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: named by _reject
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # chained to the CsvFormatError
            _reject(fh, path)
        if data.size == 0 or data.shape[1] != 4 or not np.isfinite(data[:, :2]).all():
            _reject(fh, path)
    ax1, ax2 = _axes_from_columns(data[:, 0], data[:, 1], path)
    # (re, im) pairs viewed as complex: re + 1j*im would turn a -0.0 into +0.0
    values = np.ascontiguousarray(data[:, 2:]).view(complex)
    return ax1, ax2, values.reshape(ax1.n, ax2.n)


def _reject(fh, path) -> None:
    """Raise the error for a body numpy rejected, or one with a non-finite
    coordinate, naming its first bad line (numpy's own row numbers are not
    file lines).  The body is read again one line at a time, up to that line."""
    fh.seek(0)
    rows = ((n, line.rstrip("\n").split(",")) for n, line in enumerate(fh, 1)
            if n > 1 and line != "\n")
    lineno = 0  # the last row read, 0 for none
    for lineno, cells in rows:
        try:
            if len(cells) != 4:
                raise ValueError(f"expected 4 columns, got {len(cells)}")
            c1, c2, _, _ = map(float, cells)
            if not (math.isfinite(c1) and math.isfinite(c2)):
                raise ValueError("coordinates must be finite")
        except ValueError as err:
            raise CsvFormatError(f"{path}: line {lineno}: {err}") from None
    # no rows, or only cells that Python's float accepts and numpy does not (e.g. "1_0")
    what = "a cell is not a plain decimal number" if lineno else "no data rows"
    raise CsvFormatError(f"{path}: {what}")


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
    # each coordinate column against its axis, broadcast along the other axis
    for c, v in ((c1.reshape(n1, n2), v1[:, None]), (c2.reshape(n1, n2), v2)):
        if np.abs(c - v).max() > 1e-12 * max(1, np.abs(v).max()):
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
