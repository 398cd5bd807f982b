"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Criterion 7's literal 100-term form is expected to fail
for the two near-singular angles (see the strict-xfail test and the note in
its docstring); the branch-pinning intent is separately verified with an
adequate series length and passes.
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

    def test_04_gaussian_closed_form(self):
        grid = square_grid(8, 161)
        out = square_grid(2, 9)
        X, Y = out.meshes()
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            h = cs.sample_field(lambda P, Q: np.exp(-lam * (P**2 + Q**2)), grid)
            num = cs.forward_direct(h, out).values
            ref = cs.gaussian_transform_closed(lam, X, Y)
            worst = max(worst, np.abs(num - ref).max() / np.abs(ref).max())
        _line(4, worst < 1e-6, f"Gaussian image rel err {worst:.2e} (tol 1e-6)")
        assert worst < 1e-6

    def test_05_parameter_map_identities(self):
        alphas = np.linspace(0.105, np.pi - 0.105, 50)
        worst = 0.0
        for a in alphas:
            prm = cs.params_of_alpha(a)
            d = prm.lam**2 + 1
            worst = max(worst,
                        abs(-prm.lam / d - 1j / (2 * np.tan(a))),
                        abs(2 * prm.lam**2 / d - (1 - 1 / np.sin(a))))
        _line(5, worst < 1e-12, f"parameter-map identity residual {worst:.2e} "
              f"over 50 angles (tol 1e-12)")
        assert worst < 1e-12

    def test_06_chirplet_identity(self):
        out = square_grid(2, 9)
        cgrid = square_grid(25, 801)
        worst_closed = 0.0
        monotone = True
        ladders = {}
        for alpha in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            worst_closed = max(
                worst_closed,
                cs.chirplet_identity_residual(alpha, 0.0, None, out).closed_form)
            rs = [cs.chirplet_identity_residual(alpha, eps, cgrid, out).quadrature
                  for eps in (0.1, 0.05, 0.02, 0.01)]
            ladders[alpha] = rs
            monotone &= all(rs[i + 1] < rs[i] for i in range(len(rs) - 1))
        ok = worst_closed < 1e-10 and monotone
        _line(6, ok, f"chirplet-to-kernel closed path {worst_closed:.2e} (tol 1e-10); "
              f"damping ladders monotone={monotone}")
        assert worst_closed < 1e-10
        assert monotone

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

    def test_07b_branch_pin_adequate_terms(self):
        xs = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        worst = 0.0
        for alpha in (0.3, 1.0, np.pi / 2, 2.0, 2.8):
            err = np.abs(cs.frft_kernel_hermite(alpha, X, Y, 1600)
                         - cs.frft_kernel(alpha, X, Y)).max()
            worst = max(worst, err)
        _line("7b", worst < 1e-8,
              f"spectral oracle at 1600 terms, max err {worst:.2e} (tol 1e-8)")
        assert worst < 1e-8

    def test_07c_kernel_composition(self):
        ts = cs.make_axis(-20, 20, 801)
        tv = ts.values
        xe = np.linspace(-2, 2, 9)
        Ka = cs.frft_kernel_hermite(np.pi / 4, xe[:, None], tv[None, :], 300)
        Kb = cs.frft_kernel_hermite(np.pi / 4, tv[:, None], xe[None, :], 300)
        w = np.ones(ts.n); w[0] = w[-1] = 0.5
        comp = (Ka * w) @ Kb * ts.step
        err = np.abs(comp - cs.frft_kernel(np.pi / 2, xe[:, None], xe[None, :])).max()
        _line("7c", err < 1e-6, f"kernel composition pi/4 + pi/4, max err {err:.2e} "
              f"(tol 1e-6)")
        assert err < 1e-6

    def test_08_weyl_round_trip_and_spectral_match(self):
        op_axis = cs.make_axis(-9, 9, 145)
        sgrid = cs.PhaseGrid(cs.make_axis(-8, 8, 161), cs.make_axis(-9, 9, 289))

        def poly_gauss(P, Q):
            return (1 + 0.3 * P + 0.2j * Q + 0.1 * P * Q) * np.exp(-(P**2 + Q**2) / 2)

        h = cs.sample_field(poly_gauss, sgrid)
        K = cs.weyl_quantize(h, op_axis)
        out = cs.PhaseGrid(cs.make_axis(-6, 6, 97), cs.make_axis(-6, 6, 97))
        back = cs.weyl_symbol(K, out)
        ref = cs.sample_field(poly_gauss, out)
        rel = np.linalg.norm(back.values - ref.values) / np.linalg.norm(ref.values)

        f = -np.log(3.0)
        hosc = cs.oscillator_exponential_symbol(f, sgrid)
        Kosc = cs.weyl_quantize(hosc, op_axis)
        spectral = cs.oscillator_exponential_kernel(f, cs.make_hermite_basis(45, op_axis))
        diff = np.abs(Kosc.values - spectral.values).max()

        ok = rel < 1e-6 and diff < 1e-6
        _line(8, ok, f"symbol round trip rel L2 {rel:.2e}; oscillator-exponential "
              f"vs spectral kernel {diff:.2e} (tol 1e-6)")
        assert rel < 1e-6
        assert diff < 1e-6

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
        xs = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        worst = 0.0
        for alpha in (0.3, 1.0, np.pi / 2, 2.0, 2.8):
            prm = cs.params_of_alpha(alpha)
            z = np.exp(prm.f_exponent)
            lhs = (2.0 / (z + 1.0)) * cs.gaussian_transform_closed(prm.lam, X, Y)
            rhs = np.sqrt(2 * np.pi) * cs.frft_kernel(alpha, X, Y) * np.exp(1j * X * Y)
            worst = max(worst, np.abs(lhs - rhs).max())
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

    def test_12_cli_contract(self, tmp_path):
        ok_run = subprocess.run(
            [sys.executable, "-m", "chirpspace", "verify", "all",
             "--out", str(tmp_path / "ok")],
            capture_output=True, text=True, timeout=600, env=package_env())

        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps({"tolerance_overrides": {"parseval-random": 1e-30}}))
        bad_run = subprocess.run(
            [sys.executable, "-m", "chirpspace", "verify", "all",
             "--config", str(cfg), "--out", str(tmp_path / "broken")],
            capture_output=True, text=True, timeout=600, env=package_env())

        report = json.loads((tmp_path / "ok" / "report-all.json").read_text())
        prefixes = {"roundtrip", "parseval", "gaussian", "chirplet", "oracle",
                    "weyl", "symbol-identity", "kirkwood", "charfun"}
        seen = {p for p in prefixes
                for c in report["cases"] if c["name"].startswith(p)}
        tagged = all(c["identity"] for c in report["cases"])

        ok = (ok_run.returncode == 0 and bad_run.returncode == 1
              and seen == prefixes and tagged)
        _line(12, ok, f"verify all exit {ok_run.returncode} (want 0); corrupted "
              f"tolerance exit {bad_run.returncode} (want 1); "
              f"{len(seen)} suites represented, identity tags={tagged}")
        assert ok_run.returncode == 0, ok_run.stdout + ok_run.stderr
        assert bad_run.returncode == 1, bad_run.stdout + bad_run.stderr
        assert seen == prefixes
        assert tagged


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
