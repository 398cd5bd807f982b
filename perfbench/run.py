"""Benchmark of the chirpspace CLI and library, one workload per run.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 34 --trace 0

Run it from the repository root; it imports chirpspace from ./src and
writes only under ./.bench_work (removed on exit) and ./.bench_out.

One run is a closed loop with one client: passes run one at a time, each in
a process forked from an orchestrator that has imported chirpspace.cli and
run nothing else of it, so no cache the program keeps survives from one
pass into the next, as with a fresh CLI invocation.  Thread settings are
left as the environment has them, so BLAS runs with its default thread
count.  Outputs are checked after the last pass, outside the timed region.
A helper process times a fixed reference kernel between passes, and the
end-to-end timings are scaled to the machine's nominal speed with it.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (setup_s, wall_s, peak_rss_mb, ok_frac).  With
``--trace 1`` the passes alternate untraced and traced, and the JSON holds
the per-layer metrics of the traced passes (tracer.py) and the import time
of each chirpspace module.  The full record, with every sample and an
environment stamp, goes to .bench_out/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

# fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 2
# the reference kernel's typical time on the 2-vCPU box of the baseline: a
# run reports its mean raw time * REF_NOMINAL_S / its mean reference time
REF_NOMINAL_S = 0.19
REF_EVERY_S = 1.5
HERE = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 120.0
SETUP_MODULES = ("grid", "hermite", "xform", "closedform", "quantum", "fields_io",
                 "suites", "cli")

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import chirpspace.cli as cli
(getattr(cli, "_build_parser", None) or cli.build_parser)()
print(repr(time.perf_counter() - t0))
print(cli.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- set-up: fresh interpreters ----------------------------------------------

def _fresh_interpreter(root: Path, importtime: bool):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=60)
    lines = proc.stdout.split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"importing chirpspace.cli failed:\n{proc.stderr[-2000:]}")
    if not Path(lines[1]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"chirpspace was imported from {lines[1]}, not from {root / 'src'}")
    return float(lines[0]), proc.stderr


def parse_importtime(text: str) -> dict:
    """Seconds billed to each chirpspace module by ``-X importtime``: its
    cumulative time minus that of the chirpspace modules it imports, so a
    third-party import is billed to the first chirpspace module that asks
    for it."""
    pending = []                       # (level, name, cumulative us, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        try:
            _, cum, name = line[len("import time:"):].split("|")
            cum_us = int(cum)
        except ValueError:             # the header line
            continue
        level = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > level:
            node = pending.pop()
            if node[0] == level + 1:
                children.append(node)
        pending.append((level, name.strip(), cum_us, children))

    billed = {}

    def chirp_below(node):
        total = 0
        for child in node[3]:
            total += child[2] if child[1].startswith("chirpspace") else chirp_below(child)
        return total

    def walk(node):
        if node[1].startswith("chirpspace."):
            billed[node[1].split(".", 1)[1]] = (node[2] - chirp_below(node)) / 1e6
        for child in node[3]:
            walk(child)

    for node in pending:
        walk(node)
    return billed


# -- passes: one forked process each ------------------------------------------

def _pass_child(wl, index: int, trace: bool, log: Path) -> dict:
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    state = wl.start(index)
    error = None
    with Tracer() if trace else contextlib.nullcontext() as tracer:
        t0 = time.perf_counter()
        try:
            wl.run(state)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    sys.stdout.flush()
    rec = {"wall_s": wall, "error": error, "info": wl.finish(state) if error is None else {}}
    if trace:
        rec["layers"] = {k: v for k, (v, _) in layer_metrics(tracer).items()}
        rec["absent_targets"] = tracer.absent
    return rec


def run_pass(wl, index: int, trace: bool, work: Path) -> dict:
    """Fork, run one pass in the child, and collect its record and peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:                                    # pass process
        os.close(rfd)
        try:
            payload = json.dumps(_pass_child(wl, index, trace, work / f"pass-{index}.log"))
        except BaseException:                       # report any failure, then exit
            payload = json.dumps({"error": traceback.format_exc(), "info": {}})
        with os.fdopen(wfd, "w") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(wfd)
    chunks, deadline = [], time.monotonic() + PASS_TIMEOUT_S
    with os.fdopen(rfd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    try:
        rec = json.loads(b"".join(chunks))
    except ValueError:
        rec = {"error": f"pass process ended with status {status} and no record", "info": {}}
    rec.setdefault("wall_s", time.perf_counter() - t0)     # a pass that failed early
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


# -- statistics and the environment stamp -------------------------------------

def summarize(samples) -> dict:
    """Count, mean, median, quartiles and the highest percentile that has
    ten samples beyond it (None below eleven samples)."""
    xs = sorted(samples)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0],) * 3
    tail = {"pct": round(100.0 * (n - 10) / n, 1), "value": xs[n - 11]} if n >= 11 else None
    return {"n": n, "mean": statistics.fmean(xs), "median": statistics.median(xs),
            "q1": q1, "q3": q3, "tail": tail, "samples": list(samples)}


def _blas_libraries() -> list:
    libs = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                            and ln.split()[-1].startswith("/")})
    except OSError:
        return libs
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and "threads" not in entry:
                    entry["threads"] = int(get())
                if conf is not None and "config" not in entry:
                    conf.restype = ctypes.c_char_p
                    entry["config"] = conf().decode()
        libs.append(entry)
    return libs


def env_stamp(root: Path, inputs: dict) -> dict:
    import scipy
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "inputs_sha256": inputs,
    }


# -- one run -------------------------------------------------------------------

class Reference:
    """The helper process of reference.py and the kernel times it reported;
    the kernel runs between measured items, at least every REF_EVERY_S."""

    def __init__(self):
        self.last, self.values = -REF_EVERY_S, []

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return False

    def measure(self):
        self.last = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.values.append(float(self.proc.stdout.readline()))

    def due(self):
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.measure()


def measure(args, root: Path, work: Path) -> dict:
    """Passes with set-up samples spread between them and the reference
    kernel between both, within ``args.seconds``; then the checks."""
    wl = WORKLOADS[args.workload]()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    phases, t_phase = {}, time.perf_counter()
    inputs = wl.prepare(work, args.seed)
    sys.path.insert(0, str(root / "src"))
    import chirpspace.cli  # noqa: F401  compiles the bytecode; the passes fork from here
    record["env"] = env_stamp(root, inputs)

    n_samples = IMPORTTIME_SAMPLES if args.trace else SETUP_SAMPLES
    samples, sample_spans, pass_spans = [], [], []
    passes, modes = [], (False, True) if args.trace else (False,)

    with Reference() as ref:
        def take_sample():
            ref.due()
            t0 = time.perf_counter()
            seconds, stderr = _fresh_interpreter(root, importtime=bool(args.trace))
            samples.append(parse_importtime(stderr) if args.trace else seconds)
            sample_spans.append((t0, time.perf_counter()))

        start = time.perf_counter()
        phases["prepare"] = start - t_phase
        take_sample()
        while True:
            for traced in modes:
                ref.due()
                t0 = time.perf_counter()
                rec = run_pass(wl, len(passes), traced, work)
                rec["traced"] = traced
                pass_spans.append((t0, time.perf_counter()))
                wl.after_pass(len(passes), rec["info"])
                passes.append(rec)
            elapsed = time.perf_counter() - start
            while len(samples) < min(n_samples, 1 + int(n_samples * elapsed / args.seconds)):
                take_sample()
            left = ((n_samples - len(samples)) * statistics.median(b - a for a, b in sample_spans)
                    + len(modes) * statistics.median(b - a for a, b in pass_spans))
            if len(passes) >= MIN_PASSES and time.perf_counter() + left > start + args.seconds:
                break
        while len(samples) < n_samples:
            take_sample()
        ref.measure()
    t_phase = time.perf_counter()
    phases["measure"] = t_phase - start

    record["reference_s"] = summarize(ref.values)
    if args.trace:
        record["import_s"] = {m: summarize([s.get(m, 0.0) for s in samples])
                              for m in SETUP_MODULES}
    else:
        record["setup_s"] = summarize(samples)
    counts = wl.check([p.pop("info") for p in passes])
    phases["check"] = time.perf_counter() - t_phase
    for rec, (attempted, failed) in zip(passes, counts):
        if rec.get("error"):
            failed = attempted
        rec["attempted"], rec["failed"] = attempted, failed
    record["passes"] = passes
    record["phases_s"] = phases
    return record


END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def per_layer_units() -> dict:
    units = {f"setup.{m}_import_s": "s" for m in SETUP_MODULES}
    units.update((name, unit) for name, (unit, _, _) in METRICS.items())
    units.update({"trace.wall_s": "s", "trace.overhead_frac": "ratio"})
    return units


def end_to_end(record: dict, failed_frac: float) -> dict:
    """The run's mean set-up and pass times at nominal machine speed, the
    median peak RSS, and ok_frac = 1 - failed_frac, which is never 0."""
    plain = [p for p in record["passes"] if not p["traced"]]
    record["wall_s"] = summarize([p["wall_s"] for p in plain])
    record["peak_rss_mb"] = summarize([p["peak_rss_mb"] for p in plain])
    speed = REF_NOMINAL_S / record["reference_s"]["mean"]
    return {"setup_s": record["setup_s"]["mean"] * speed,
            "wall_s": record["wall_s"]["mean"] * speed,
            "peak_rss_mb": record["peak_rss_mb"]["median"], "ok_frac": 1.0 - failed_frac}


def per_layer(record: dict) -> dict:
    """Medians over the traced passes; None marks a metric whose layer is absent."""
    plain = [p["wall_s"] for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    metrics = {f"setup.{m}_import_s": record["import_s"][m]["median"] for m in SETUP_MODULES}
    for name in METRICS:
        values = [p.get("layers", {}).get(name) for p in traced]
        metrics[name] = None if None in values else statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(plain) - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the set-up samples and the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "chirpspace" / "__init__.py").is_file():
        print("perfbench: ./src/chirpspace not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = measure(args, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()

    attempted = sum(p["attempted"] for p in record["passes"])
    failed = sum(p["failed"] for p in record["passes"])
    if args.trace:
        metrics, units = per_layer(record), per_layer_units()
    else:
        metrics, units = end_to_end(record, failed / attempted), END_TO_END
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    n_plain = sum(not p["traced"] for p in record["passes"])
    print(f"{args.workload} seed {args.seed}: {len(record['passes'])} passes "
          f"({n_plain} untraced), {attempted} operations, {failed} failed")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio")
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name:32s} {shown}")
    print(f"  record -> {out.relative_to(root)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: ({"value": v, "unit": units[k]} if v is not None
                        else {"value": 0.0, "unit": units[k], "absent": True})
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
