#!/usr/bin/env python3
"""Damping-ladder experiment for the chirplet-to-kernel identity.

For each angle, evaluates the identity residual along a ladder of Gaussian
regularization strengths, on two paths: the closed form (exact in epsilon)
and the quadrature fast path applied to the sampled regularized chirplet.
The closed-form residual is the damping's own bias and falls with epsilon;
the closed form at epsilon = 0 is the analytic-continuation anchor.  The
third column compares the quadrature with the closed form at the same
epsilon: it stays near rounding until the grid stops resolving the damping.
On the default grid it is at most 4.6e-12 down to epsilon = 0.02, and at
0.01 it reaches 1.4e-6 at the edge angles, sin alpha = 0.1.
"""
import argparse

import numpy as np

from chirpspace import PhaseGrid, chirplet_identity_residual, make_axis


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", action="append", type=float, default=None,
                    help="angles in radians (repeatable; default pi/3, pi/2, 2pi/3)")
    ap.add_argument("--epsilon", action="append", type=float, default=None,
                    help="damping ladder (repeatable; default 0.1 0.05 0.02 0.01)")
    ap.add_argument("--extent", type=float, default=25.0, help="chirplet grid half-width")
    ap.add_argument("--n", type=int, default=801, help="chirplet grid points per axis")
    ap.add_argument("--eval-extent", type=float, default=2.0)
    ap.add_argument("--eval-n", type=int, default=9)
    args = ap.parse_args()

    alphas = args.alpha or [np.pi / 3, np.pi / 2, 2 * np.pi / 3]
    epsilons = sorted(args.epsilon or [0.1, 0.05, 0.02, 0.01], reverse=True)
    if not all(0 < eps < np.inf for eps in epsilons):  # False for NaN as well
        ap.error("--epsilon values must be > 0 and finite; the epsilon = 0 row is always printed")
    cax = make_axis(-args.extent, args.extent, args.n)
    cgrid = PhaseGrid(cax, cax)
    eax = make_axis(-args.eval_extent, args.eval_extent, args.eval_n)
    out = PhaseGrid(eax, eax)

    print(f"{'alpha':>8} {'epsilon':>9} {'closed-form':>12} {'quadrature':>12} "
          f"{'quad-closed':>12}")
    try:
        for alpha in alphas:
            anchor = chirplet_identity_residual(alpha, 0.0, None, out)
            print(f"{alpha:8.4f} {0.0:9.3g} {anchor.closed_form:12.3e} {'-':>12} {'-':>12}")
            for eps in epsilons:
                res = chirplet_identity_residual(alpha, eps, cgrid, out)
                print(f"{alpha:8.4f} {eps:9.3g} {res.closed_form:12.3e} "
                      f"{res.quadrature:12.3e} {res.quadrature_vs_closed:12.3e}")
            print()
    except ValueError as exc:
        ap.error(str(exc))


if __name__ == "__main__":
    main()
