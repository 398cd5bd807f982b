"""The three workloads: inputs from a seed, one timed pass, output checks.

Each workload has four steps.  ``prepare`` runs in the orchestrator before
chirpspace is imported and makes the inputs from the seed with numpy only.
``start`` runs in the forked pass process, untimed, and ``run`` is the
timed pass.  ``finish`` (pass process, untimed) and ``after_pass``
(orchestrator, between passes) keep what ``check`` needs.  ``check`` runs
in the orchestrator once every pass has ended, so no chirpspace call made
by a check is ever inherited by a pass process.  It returns, for each pass,
how many operations it attempted and how many failed.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# fast/direct agreement, relative to the largest reference magnitude
CHECK_RTOL = 1e-8
# coarse sub-lattice on which outputs are compared with the direct oracle
CHECK_POINTS_PER_AXIS = 16


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def axis_values(lo, hi, n):
    """Same samples as chirpspace's endpoint-inclusive Axis."""
    v = lo + (hi - lo) / (n - 1) * np.arange(n)
    v[-1] = hi
    return v


def damped_poly(rng, spec):
    """Random polynomial of total degree <= 3 under a Gaussian that has
    decayed to about e^-30 at the grid boundary, as a complex array."""
    (plo, phi, pn), (qlo, qhi, qn) = spec
    damp = 30.0 / max(abs(plo), abs(phi), abs(qlo), abs(qhi)) ** 2
    p, q = axis_values(plo, phi, pn), axis_values(qlo, qhi, qn)
    coef = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    coef[np.add.outer(np.arange(4), np.arange(4)) > 3] = 0.0
    vp = np.exp(-damp * p * p)[:, None] * p[:, None] ** np.arange(4)
    vq = np.exp(-damp * q * q)[:, None] * q[:, None] ** np.arange(4)
    return vp @ coef @ vq.T


def square(extent, n):
    return ((-extent, extent, n), (-extent, extent, n))


def sub_lattice(n):
    """Indices of a uniform, endpoint-inclusive sub-axis of an n-point axis,
    with the count closest to CHECK_POINTS_PER_AXIS."""
    strides = [s for s in range(1, n) if (n - 1) % s == 0]
    stride = min(strides, key=lambda s: abs((n - 1) // s + 1 - CHECK_POINTS_PER_AXIS))
    return np.arange(0, n, stride)


def sub_grid(spec):
    """(row indices, column indices, PhaseGrid) of the check sub-lattice."""
    from chirpspace.grid import PhaseGrid, make_axis
    idx = [sub_lattice(n) for _, _, n in spec]
    axes = [make_axis(lo, hi, len(i)) for (lo, hi, _), i in zip(spec, idx)]
    return idx[0], idx[1], PhaseGrid(*axes)


def make_grid(spec):
    from chirpspace.grid import PhaseGrid, make_axis
    return PhaseGrid(*(make_axis(*a) for a in spec))


def make_field(spec, values):
    from chirpspace.grid import SampledField
    return SampledField(make_grid(spec), values)


def oracle(direction, spec_in, values, spec_out):
    """Direct-quadrature image of ``values`` on the check sub-lattice of spec_out."""
    from chirpspace import xform
    _, _, grid = sub_grid(spec_out)
    op = xform.forward_direct if direction == "forward" else xform.inverse_direct
    return op(make_field(spec_in, values), grid).values


def agrees(got, ref) -> bool:
    got = np.asarray(got)
    return got.shape == ref.shape and bool(
        np.all(np.isfinite(got)) and np.abs(got - ref).max() <= CHECK_RTOL * np.abs(ref).max())


# -- CSV in the documented field format, independent of chirpspace.fields_io --

def write_field_csv(path, spec, values):
    """``p,q,re,im`` header, one row per point (p outer, q inner), %.17g."""
    (plo, phi, pn), (qlo, qhi, qn) = spec
    qs = ["%.17g" % q for q in axis_values(qlo, qhi, qn)]
    row = "%s,%s,%.17g,%.17g\n"
    with open(path, "w") as fh:
        fh.write("p,q,re,im\n")
        for p, line in zip(axis_values(plo, phi, pn), values):
            ps = "%.17g" % p
            fh.write("".join(row % (ps, q, v.real, v.imag) for q, v in zip(qs, line.tolist())))


def read_field_csv(path):
    """(p column, q column, complex values) of a field CSV."""
    with open(path) as fh:
        if fh.readline().strip() != "p,q,re,im":
            raise ValueError(f"{path}: bad header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2] + 1j * data[:, 3]


def grid_matches(spec, p_col, q_col) -> bool:
    (plo, phi, pn), (qlo, qhi, qn) = spec
    if len(p_col) != pn * qn:
        return False
    p = np.repeat(axis_values(plo, phi, pn), qn)
    q = np.tile(axis_values(qlo, qhi, qn), pn)
    tol = 1e-12 * max(1.0, abs(plo), abs(phi), abs(qlo), abs(qhi))
    return bool(np.abs(p - p_col).max() <= tol and np.abs(q - q_col).max() <= tol)


def _spec_arg(spec) -> str:
    return ";".join("%.17g,%.17g,%d" % axis for axis in spec)


class VerifyAll:
    """``chirpspace verify all`` through ``cli.main`` at the default config."""

    name = "verify-all"

    def prepare(self, work: Path, seed: int) -> dict:
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps({"seed": seed}) + "\n")
        return {"config.json": sha256_file(self.config)}

    def start(self, index):
        return {"out": self.work / f"pass-{index}"}

    def run(self, state):
        from chirpspace import cli
        state["rc"] = cli.main(["verify", "all", "--config", str(self.config),
                                "--out", str(state["out"])])

    def finish(self, state):
        return {"rc": state["rc"]}

    def after_pass(self, index, info):
        pass

    def check(self, passes):
        """Every case of every pass's report-all.json must pass."""
        counts, expected = [], 1
        for i, info in enumerate(passes):
            report = self.work / f"pass-{i}" / "report-all.json"
            try:
                cases = json.loads(report.read_text())["cases"]
            except (OSError, ValueError, KeyError, TypeError):
                counts.append(None)
                continue
            expected = max(expected, len(cases))
            failed = sum(c.get("pass") is not True for c in cases)
            if info.get("rc") != 0 and failed == 0:
                failed = len(cases)
            counts.append((len(cases), failed))
        return [c if c else (expected, expected) for c in counts]


class TransformCsv:
    """``chirpspace transform --path fast`` jobs through ``cli.main``; the
    CSV reader and writer do most of the work."""

    name = "transform-csv"
    # (job, direction, input grid, output grid); no (input, output) pair repeats
    JOBS = (
        ("fwd801", "forward", square(12.0, 801), square(10.0, 256)),
        ("inv256", "inverse", square(8.0, 256), square(9.0, 401)),
    )

    def prepare(self, work: Path, seed: int) -> dict:
        self.work, self.seed = work, seed
        (work / "kept").mkdir()
        hashes = {}
        for job, values in zip(self.JOBS, self.inputs()):
            path = work / f"{job[0]}-in.csv"
            write_field_csv(path, job[2], values)
            hashes[path.name] = sha256_file(path)
        self.kept = {}               # (job, sha256) -> path of a kept output
        return hashes

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        return [damped_poly(rng, job[2]) for job in self.JOBS]

    def start(self, index):
        return {"rc": {}}

    def run(self, state):
        from chirpspace import cli
        for job, direction, _, out_spec in self.JOBS:
            state["rc"][job] = cli.main([
                "transform", "--in", str(self.work / f"{job}-in.csv"),
                "--direction", direction, "--path", "fast",
                "--grid=" + _spec_arg(out_spec), "--out", str(self.work / f"{job}-out.csv")])

    def finish(self, state):
        return {"rc": state["rc"]}

    def after_pass(self, index, info):
        """Hash each output; keep the first file with each hash for the check."""
        info["sha256"] = {}
        for job, *_ in self.JOBS:
            path = self.work / f"{job}-out.csv"
            if not path.exists():
                continue
            digest = sha256_file(path)
            info["sha256"][job] = digest
            if (job, digest) in self.kept:
                path.unlink()
            else:
                kept = self.work / "kept" / f"{job}-{len(self.kept)}.csv"
                path.rename(kept)
                self.kept[(job, digest)] = kept

    def check(self, passes):
        """Parse each distinct output with this module's reader and compare
        it with the direct oracle on a coarse sub-lattice of its grid."""
        good = set()
        for job, values in zip(self.JOBS, self.inputs()):
            name, direction, spec_in, spec_out = job
            ref = oracle(direction, spec_in, values, spec_out)
            ri, ci, _ = sub_grid(spec_out)
            for (kjob, digest), path in self.kept.items():
                if kjob != name:
                    continue
                try:
                    p_col, q_col, vals = read_field_csv(path)
                except ValueError:
                    continue
                if grid_matches(spec_out, p_col, q_col):
                    n_q = spec_out[1][2]
                    if agrees(vals.reshape(-1, n_q)[np.ix_(ri, ci)], ref):
                        good.add((name, digest))
        out = []
        for info in passes:
            failed = sum(info.get("rc", {}).get(job) != 0
                         or (job, info.get("sha256", {}).get(job)) not in good
                         for job, *_ in self.JOBS)
            out.append((len(self.JOBS), failed))
        return out


class FastSweep:
    """In-memory ``forward_fast``/``inverse_fast`` calls on the suites' grid
    pairs, several seeded fields per pair."""

    name = "fast-sweep"
    FIELDS = 3
    # (group, direction, input grid, output grid), replaying the suites' shapes
    GROUPS = (
        ("chirplet", "forward", square(25.0, 801), square(2.0, 9)),
        ("roundtrip-fwd", "forward", square(6.0, 128), square(10.0, 216)),
        ("roundtrip-inv", "inverse", square(10.0, 216), square(6.0, 128)),
        ("symbol-fwd", "forward", ((-6.0, 6.0, 129), (-6.0, 6.0, 97)), square(7.0, 225)),
        ("symbol-inv", "inverse", square(7.0, 225), ((-6.0, 6.0, 129), (-6.0, 6.0, 97))),
        ("kirkwood-fwd", "forward", square(6.5, 209), square(5.0, 161)),
        ("kirkwood-inv", "inverse", square(6.5, 209), square(5.0, 161)),
        ("full", "forward", square(25.0, 801), square(25.0, 801)),
    )

    def prepare(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        self.values = [[damped_poly(rng, g[2]) for _ in range(self.FIELDS)]
                       for g in self.GROUPS]
        self.coeffs = [rng.standard_normal(self.FIELDS) + 1j * rng.standard_normal(self.FIELDS)
                       for _ in self.GROUPS]
        h = hashlib.sha256()
        for group in self.values:
            for v in group:
                h.update(v.tobytes())
        return {"fields": h.hexdigest()}

    def start(self, index):
        calls = []
        for k in range(self.FIELDS):           # round robin: pairs repeat after round one
            for g, (_, direction, spec_in, spec_out) in enumerate(self.GROUPS):
                calls.append((g, direction, make_field(spec_in, self.values[g][k]),
                              make_grid(spec_out)))
        return {"calls": calls, "results": []}

    def run(self, state):
        # looked up per call, so a tracer installed after start() sees the calls
        from chirpspace import xform
        results = state["results"]
        for _, direction, h, out in state["calls"]:
            op = xform.forward_fast if direction == "forward" else xform.inverse_fast
            results.append(op(h, out).values)

    def finish(self, state):
        """Per group, the seeded combination of its results on the sub-lattice."""
        per_group = [[] for _ in self.GROUPS]
        for (g, *_), vals in zip(state["calls"], state["results"]):
            per_group[g].append(vals)
        out = []
        for g, results in enumerate(per_group):
            if len(results) != self.FIELDS:
                out.append(None)
                continue
            ri, ci = (sub_lattice(n) for _, _, n in self.GROUPS[g][3])
            combo = sum(c * r[np.ix_(ri, ci)] for c, r in zip(self.coeffs[g], results))
            out.append([combo.real.tolist(), combo.imag.tolist()])
        return {"combos": out}

    def after_pass(self, index, info):
        pass

    def combine_inputs(self, g):
        return sum(c * v for c, v in zip(self.coeffs[g], self.values[g]))

    def check(self, passes):
        """By linearity, each group's combination of results must equal the
        direct image of the same combination of its inputs."""
        refs = [oracle(d, spec_in, self.combine_inputs(g), spec_out)
                for g, (_, d, spec_in, spec_out) in enumerate(self.GROUPS)]
        out = []
        for info in passes:
            combos = info.get("combos") or [None] * len(self.GROUPS)
            failed = 0
            for ref, combo in zip(refs, combos):
                ok = combo is not None and agrees(np.array(combo[0]) + 1j * np.array(combo[1]), ref)
                failed += 0 if ok else self.FIELDS
            out.append((self.FIELDS * len(self.GROUPS), failed))
        return out


WORKLOADS = {w.name: w for w in (VerifyAll, TransformCsv, FastSweep)}
