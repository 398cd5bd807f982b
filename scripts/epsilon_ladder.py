#!/usr/bin/env python3
"""Damping-ladder experiment for the chirplet-to-kernel identity.

For each angle, evaluates the identity residual along a ladder of Gaussian
regularization strengths, on two paths: the closed form (exact in epsilon)
and the quadrature fast path applied to the sampled regularized chirplet.
Both should decrease monotonically as epsilon shrinks; the closed form at
epsilon = 0 is the analytic-continuation anchor.
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
    if epsilons[-1] <= 0:
        ap.error("--epsilon values must be > 0; the epsilon = 0 row is always printed")
    cax = make_axis(-args.extent, args.extent, args.n)
    cgrid = PhaseGrid(cax, cax)
    eax = make_axis(-args.eval_extent, args.eval_extent, args.eval_n)
    out = PhaseGrid(eax, eax)

    print(f"{'alpha':>8} {'epsilon':>9} {'closed-form':>12} {'quadrature':>12}")
    for alpha in alphas:
        anchor = chirplet_identity_residual(alpha, 0.0, None, out)
        print(f"{alpha:8.4f} {0.0:9.3g} {anchor.closed_form:12.3e} {'-':>12}")
        for eps in epsilons:
            res = chirplet_identity_residual(alpha, eps, cgrid, out)
            print(f"{alpha:8.4f} {eps:9.3g} {res.closed_form:12.3e} "
                  f"{res.quadrature:12.3e}")
        print()


if __name__ == "__main__":
    main()
