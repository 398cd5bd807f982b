"""A fixed CPU kernel that gauges how fast the machine runs right now.

The orchestrator starts this file as a helper process that never imports
chirpspace, so no change to the program can change the kernel's time.
Each line read from standard input runs the kernel once and prints its
wall time in seconds.  The mix (numpy element-wise work on a few MB,
float formatting and parsing, an interpreter loop) follows what the
workloads spend their time on.
"""
import sys
import time

import numpy as np


def kernel() -> float:
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(8):
        a = np.abs(np.exp(1j * a) * a) + 1e-3
    text = "\n".join("%.17g,%.17g" % pair for pair in zip(a[:20_000].tolist(),
                                                          a[1:20_001].tolist()))
    [float(x) for line in text.splitlines() for x in line.split(",")]
    acc = 0
    for k in range(200_000):
        acc += k
    return time.perf_counter() - t0


if __name__ == "__main__":
    kernel()                # warm-up, so no reported time carries first-call set-up
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
