"""Command-line front end.

    chirpspace verify <suite> [--config FILE] [--out DIR]
    chirpspace transform --in FILE --direction D --path P --grid "min,max,n;min,max,n" --out FILE
    chirpspace kernel --alpha A --grid "min,max,n;min,max,n" --method M --out FILE

The verify config file is the one place for the seed, the chirplet angles
and tolerance overrides, and ``--out`` the one place for the report
directory.  Every suite's grids and the chirplet damping ladder are fixed.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage, config, or input parse errors, an output that cannot be written,
a grid too large to allocate, or a transform or kernel whose result leaves
the float range.  Besides argparse's own usage errors, exit 2 is decided in
one place: ``main`` runs each command under ``np.errstate(..., "raise")``
and turns an ``OSError``, ``ValueError``, ``MemoryError`` or
``FloatingPointError`` into one stderr line.  Inside ``verify`` a case catches
its own errors and fails (exit 1).
Angles are radians.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import closedform, fields_io, xform
from .grid import PhaseGrid, SampledField, make_axis
from .suites import SUITE_NAMES, RunConfig, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _parse_grid_spec(spec: str) -> PhaseGrid:
    """Parse "min,max,n;min,max,n" (first axis outer, second inner)."""
    parts = spec.split(";")
    if len(parts) != 2:
        raise ValueError(f"grid spec needs two ';'-separated axes, got {spec!r}")
    axes = []
    for part in parts:
        items = part.split(",")
        if len(items) != 3:
            raise ValueError(f"axis spec needs min,max,n, got {part!r}")
        lo, hi = float(items[0]), float(items[1])
        n = int(items[2])
        axes.append(make_axis(lo, hi, n))
    return PhaseGrid(axes[0], axes[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpspace",
        description="Phase-space chirp transform toolkit: verification suites, "
                    "file transforms, and fractional-Fourier kernel dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser(
        "verify", help="run a named verification suite",
        description="The JSON config file chooses the seed, the chirplet angles (alphas, "
                    "radians) and tolerance overrides; --out chooses the report directory. "
                    "Every suite's grids and the chirplet damping ladder are fixed.")
    pv.add_argument("suite", choices=sorted(SUITE_NAMES))
    pv.add_argument("--config", help="JSON config file")
    pv.add_argument("--out", default=".", help="report output directory (default: .)")

    pt = sub.add_parser("transform", help="transform a field file")
    pt.add_argument("--in", dest="infile", required=True)
    pt.add_argument("--direction", choices=("forward", "inverse"), required=True)
    pt.add_argument("--path", choices=("direct", "fast", "both"), default="fast")
    pt.add_argument("--grid", required=True, help='output grid "min,max,n;min,max,n"')
    pt.add_argument("--out", required=True)

    pk = sub.add_parser("kernel", help="write fractional-Fourier kernel samples")
    pk.add_argument("--alpha", dest="angle", metavar="ALPHA", type=float, required=True,
                    help="kernel angle (radians)")
    pk.add_argument("--grid", required=True, help='sample grid "min,max,n;min,max,n"')
    pk.add_argument("--method", choices=("closed", "hermite"), default="closed")
    pk.add_argument("--terms", type=int, default=1600,
                    help="series length for --method hermite")
    pk.add_argument("--out", required=True)
    return parser


def _cmd_verify(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    report_path = Path(args.out) / f"report-{args.suite}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report = run_suite(args.suite, cfg)
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n")

    for c in report.cases:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: residual {c.residual:.3e} (tol {c.tolerance:g}, "
              f"{c.runtime_ms:.0f} ms) -- {c.identity}")
        if c.error:
            print(f"    error: {c.error}")
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(f"suite {report.suite}: {verdict} ({len(report.cases)} cases) -> {report_path}")
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


def _cmd_transform(args) -> int:
    field = fields_io.read_field_csv(args.infile)
    out_grid = _parse_grid_spec(args.grid)

    ops = xform._FORWARD if args.direction == "forward" else xform._INVERSE
    results = {}
    for path in (("direct", "fast") if args.path == "both" else (args.path,)):
        t0 = time.perf_counter()
        results[path] = ops[path](field, out_grid)
        dt = time.perf_counter() - t0
        print(f"{args.direction} ({path}): {dt * 1e3:.1f} ms")
    if args.path == "both":
        diff = np.abs(results["fast"].values - results["direct"].values).max()
        print(f"max |fast - direct| = {diff:.3e}")
        written = results["fast"]
    else:
        written = results[args.path]
    fields_io.write_field_csv(written, args.out)
    print(f"wrote {written.grid.shape[0]}x{written.grid.shape[1]} field -> {args.out}")
    return EXIT_OK


def _cmd_kernel(args) -> int:
    grid = _parse_grid_spec(args.grid)
    X, Y = grid.p_axis.values[:, None], grid.q_axis.values[None, :]
    vals = closed = closedform.frft_kernel(args.angle, X, Y)
    if args.method == "hermite":
        vals = closedform.frft_kernel_hermite(args.angle, X, Y, args.terms)
        print(f"max |series - closed| = {np.abs(vals - closed).max():.3e} "
              f"({args.terms} terms)")
    fields_io.write_field_csv(SampledField(grid, vals), args.out)
    print(f"wrote kernel samples (alpha={args.angle:g}, method={args.method}) -> {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    handlers = {"verify": _cmd_verify, "transform": _cmd_transform, "kernel": _cmd_kernel}
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return handlers[args.command](args)
    except (OSError, ValueError, MemoryError, FloatingPointError) as exc:
        if isinstance(exc, FloatingPointError):
            exc = f"the result leaves the float range ({exc})"
        elif isinstance(exc, MemoryError):
            exc = f"out of memory ({exc})"
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
