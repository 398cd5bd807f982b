"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Criteria 4, 6 (its closed path), 7b, 7c and 8 read the
report of one ``chirpspace verify all`` run, whose cases (``REPORTED``)
compute them on the same grids, angles and term counts at tighter bounds; the
other criteria compute inputs that no suite runs.  Criterion 7's literal
100-term form is expected to fail for the two near-singular angles (see the
strict-xfail test); at 1600 terms the ``oracle-alpha-*`` cases pin the branch.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import chirpspace as cs

from conftest import assert_chirp_resolved, gaussian_poly_field, package_env, square_grid

TEN_FIELDS_SEED = 987

# criterion -> (label, verify cases, tolerance of the criterion); each case's
# own tolerance is equal or tighter
REPORTED = {
    "4": ("Gaussian image rel err",
          ["gaussian-lam-0.5", "gaussian-lam-1", "gaussian-lam-2"], 1e-6),
    "6": ("chirplet-to-kernel closed path",
          ["chirplet-closed-1.0472", "chirplet-closed-1.5708", "chirplet-closed-2.0944"], 1e-10),
    "7b": ("spectral oracle at 1600 terms, max err",
           ["oracle-alpha-0.3000", "oracle-alpha-1.0000", "oracle-alpha-1.5708",
            "oracle-alpha-2.0000", "oracle-alpha-2.8000"], 1e-8),
    "7c": ("kernel composition pi/4 + pi/4, max err", ["oracle-composition"], 1e-6),
    "8": ("symbol round trip rel L2 and oscillator-exponential vs spectral kernel",
          ["weyl-roundtrip", "weyl-spectral"], 1e-6),
}


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """One ``python -m chirpspace verify all`` run: its report, exit code and output."""
    out = tmp_path_factory.mktemp("verify-all")
    run = _verify("all", "--out", str(out))
    report = json.loads((out / "report-all.json").read_text())
    return report, run.returncode, run.stdout + run.stderr


def _verify(*args):
    return subprocess.run([sys.executable, "-m", "chirpspace", "verify", *args],
                          capture_output=True, text=True, timeout=600, env=package_env())


def _fields(n=10):
    rng = np.random.default_rng(TEN_FIELDS_SEED)
    grid = square_grid(6, 128)
    return grid, [gaussian_poly_field(grid, rng) for _ in range(n)]


def _line(num, passed, detail):
    print(f"[criterion {num:>3}] {'PASS' if passed else 'FAIL'}: {detail}")


class TestAcceptance:
    def test_01_invertibility_both_paths(self):
        grid, fields = _fields()
        mid = square_grid(10, 216)
        assert_chirp_resolved(grid)
        assert_chirp_resolved(mid)
        worst = {}
        for path, fwd, inv in (("fast", cs.forward_fast, cs.inverse_fast),
                               ("direct", cs.forward_direct, cs.inverse_direct)):
            worst[path] = max(
                np.linalg.norm(inv(fwd(h, mid), grid).values - h.values)
                / np.linalg.norm(h.values)
                for h in fields)
        ok = all(w < 1e-6 for w in worst.values())
        _line(1, ok, "invertibility on 10 damped random fields, rel L2 "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (tol 1e-6)")
        assert ok

    def test_02_parseval(self):
        grid, fields = _fields()
        mid = square_grid(10, 216)
        worst = max(cs.parseval_residual(h, mid) for h in fields)
        _line(2, worst < 1e-6, f"norm-identity residual {worst:.2e} (tol 1e-6)")
        assert worst < 1e-6

    def test_03_path_equivalence_and_speed(self):
        grid64 = square_grid(6, 64)
        h64 = cs.sample_field(lambda P, Q: np.exp(-(P**2 + Q**2)), grid64)
        diff = np.abs(cs.forward_fast(h64, grid64).values
                      - cs.forward_direct(h64, grid64).values).max()

        grid256 = square_grid(6, 256)
        rng = np.random.default_rng(TEN_FIELDS_SEED)
        h256 = gaussian_poly_field(grid256, rng)
        t_fast = min(
            _timed(lambda: cs.forward_fast(h256, grid256)) for _ in range(3))
        t_direct = _timed(lambda: cs.forward_direct(h256, grid256))
        ratio = t_direct / t_fast
        ok = diff < 1e-8 and ratio >= 20
        _line(3, ok, f"fast-vs-direct max diff {diff:.2e} (tol 1e-8); "
              f"256^2 speedup {ratio:.0f}x (needs >= 20x; "
              f"fast {t_fast * 1e3:.1f} ms, direct {t_direct * 1e3:.0f} ms)")
        assert diff < 1e-8
        assert ratio >= 20

    def test_05_parameter_map_identities(self):
        alphas = np.linspace(0.105, np.pi - 0.105, 50)
        worst = 0.0
        for a in alphas:
            lam = cs.params_of_alpha(a)
            d = lam**2 + 1
            worst = max(worst,
                        abs(-lam / d - 1j / (2 * np.tan(a))),
                        abs(2 * lam**2 / d - (1 - 1 / np.sin(a))))
        _line(5, worst < 1e-12, f"parameter-map identity residual {worst:.2e} "
              f"over 50 angles (tol 1e-12)")
        assert worst < 1e-12

    def test_06_chirplet_identity(self):
        # the closed path at zero damping is REPORTED; no suite runs the
        # damping down to 0.01 or measures the damping's bias with it
        out = square_grid(2, 9)
        cgrid = square_grid(25, 801)
        monotone = True
        for alpha in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            rs = [cs.chirplet_identity_residual(alpha, eps, cgrid, out).quadrature
                  for eps in (0.1, 0.05, 0.02, 0.01)]
            monotone &= all(rs[i + 1] < rs[i] for i in range(len(rs) - 1))
        _line(6, monotone, f"chirplet damping ladders monotone={monotone}")
        assert monotone

    @pytest.mark.parametrize("criterion", list(REPORTED))
    def test_reported_by_verify_all(self, verify_all, criterion):
        label, names, tol = REPORTED[criterion]
        residuals = {c["name"]: c["residual"] for c in verify_all[0]["cases"]}
        missing = [n for n in names if n not in residuals]
        null = [n for n in names if n in residuals and residuals[n] is None]
        worst = max(residuals.get(n) or 0.0 for n in names)
        ok = not missing and not null and worst < tol
        gaps = f"; missing {missing}, null {null}" if missing or null else ""
        _line(criterion, ok, f"{label} {worst:.2e} (tol {tol:g}) over "
              f"{len(names)} verify cases{gaps}")
        assert not missing, f"criterion {criterion}: no case {missing} in the report"
        assert not null, f"criterion {criterion}: cases {null} report a null residual"
        assert worst < tol

    @pytest.mark.xfail(
        strict=True,
        reason="100 series terms cannot represent the kernel at |x|,|y| <= 3 for "
               "angles 0.3 and 2.8: semiclassically the eigenfunction series "
               "carries O(1) weight up to n ~ (|x|+|y|)^2 / (2 dist(alpha, pi Z)^2) "
               "~ 200, beyond the available terms; no resummation of 100 terms "
               "can recover it (measured error ~0.8)",
    )
    def test_07a_branch_pin_literal_100_terms(self):
        xs = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        worst = 0.0
        for alpha in (0.3, 1.0, np.pi / 2, 2.0, 2.8):
            err = np.abs(cs.frft_kernel_hermite(alpha, X, Y, 100)
                         - cs.frft_kernel(alpha, X, Y)).max()
            worst = max(worst, err)
        _line("7a", worst < 1e-8, f"spectral oracle at 100 terms, max err {worst:.2e} "
              f"(tol 1e-8) -- expected to fail, see the xfail reason")
        assert worst < 1e-8

    def test_09_mixed_element_identity(self):
        op = cs.make_axis(-8, 8, 257)
        basis = cs.make_hermite_basis(1, op)
        sym_grid = cs.PhaseGrid(cs.make_axis(-6, 6, 129), cs.make_axis(-6, 6, 97))
        out = cs.PhaseGrid(cs.make_axis(-7, 7, 225), cs.make_axis(-7, 7, 225))
        worst = 0.0
        for n in (0, 1):
            K = cs.OperatorKernel(op, np.outer(basis.table[n], basis.table[n]).astype(complex))
            res = cs.symbol_identity_residual(K, sym_grid, out)
            worst = max(worst, res.transform_side, res.inverse_side)
        _line(9, worst < 1e-6, f"mixed-element identity residual {worst:.2e} "
              f"for the two lowest projectors (tol 1e-6)")
        assert worst < 1e-6

    def test_10_headline_closed_form_continuation(self):
        out = square_grid(3, 13)
        worst = max(cs.chirplet_identity_residual(alpha, 0.0, None, out).closed_form
                    for alpha in (0.3, 1.0, np.pi / 2, 2.0, 2.8))
        _line(10, worst < 1e-6, f"transform of the oscillator-exponential symbol vs "
              f"scaled kernel, max err {worst:.2e} (tol 1e-6)")
        assert worst < 1e-6

    def test_11_kirkwood_and_characteristic_function(self):
        sax = cs.make_axis(-8, 8, 257)
        table = cs.hermite_functions(1, sax.values)
        wgrid = square_grid(6.5, 209)
        out = cs.PhaseGrid(cs.make_axis(-5, 5, 161), cs.make_axis(-5, 5, 161))
        worst_k = 0.0
        for n in (0, 1):
            psi = cs.Signal(sax, table[n].astype(complex))
            res = cs.wigner_to_kirkwood_residual(psi, wgrid, out)
            worst_k = max(worst_k, res.qp, res.pq)

        bax = cs.make_axis(-12, 12, 241)
        basis = cs.make_hermite_basis(48, bax)
        psi0 = cs.hermite_functions(0, bax.values)[0]
        rho = cs.OperatorKernel(bax, np.outer(psi0, psi0).astype(complex))
        worst_c = 0.0
        for u in np.linspace(-3, 3, 7):
            for v in np.linspace(-3, 3, 7):
                val = cs.char_function_qp(rho, basis, u, v)
                ref = np.exp(-(u**2 + v**2) / 4) * np.exp(-1j * u * v / 2)
                worst_c = max(worst_c, abs(val - ref))

        ok = worst_k < 1e-6 and worst_c < 1e-8
        _line(11, ok, f"Wigner-to-Kirkwood residual {worst_k:.2e} (tol 1e-6); "
              f"ground-state characteristic function err {worst_c:.2e} (tol 1e-8)")
        assert worst_k < 1e-6
        assert worst_c < 1e-8

    def test_12_cli_contract(self, verify_all, tmp_path):
        report, code, output = verify_all
        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps({"tolerance_overrides": {"parseval-random": 1e-30}}))
        bad_run = _verify("parseval", "--config", str(cfg), "--out", str(tmp_path))

        prefixes = {"roundtrip", "parseval", "gaussian", "chirplet", "oracle",
                    "weyl", "symbol-identity", "kirkwood", "charfun"}
        seen = {p for p in prefixes
                for c in report["cases"] if c["name"].startswith(p)}
        tagged = all(c["identity"] for c in report["cases"])

        ok = code == 0 and bad_run.returncode == 1 and seen == prefixes and tagged
        _line(12, ok, f"verify all exit {code} (want 0); corrupted "
              f"tolerance exit {bad_run.returncode} (want 1); "
              f"{len(seen)} suites represented, identity tags={tagged}")
        assert code == 0, output
        assert bad_run.returncode == 1, bad_run.stdout + bad_run.stderr
        assert seen == prefixes
        assert tagged


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
