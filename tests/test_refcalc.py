"""Unit tests for the equilibrium reference calculator."""

import numpy as np
import pytest

from lstmpc import lstm, refcalc
from lstmpc.errors import InfeasibleReferenceError
from lstmpc.lstm import LstmState

from conftest import random_invariant_state, small_net


def fd_jacobian(w, xi, y0_eff, eps=1e-6):
    """Central-difference Jacobian of the equilibrium residual (oracle)."""
    d = len(xi)
    jac = np.empty((d, d))
    for j in range(d):
        xp = xi.copy()
        xm = xi.copy()
        xp[j] += eps
        xm[j] -= eps
        jac[:, j] = (refcalc._residual(w, xp, y0_eff)
                     - refcalc._residual(w, xm, y0_eff)) / (2 * eps)
    return jac


def attractor(w, u, steps=800):
    x = w.zero_state()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    for _ in range(steps):
        x = lstm.step(w, x, u)
    return x


class TestSolveReference:
    def test_recovers_known_attractor(self, bench_w):
        u_star = np.array([0.3])
        x_star = attractor(bench_w, u_star)
        d_hat = np.array([0.04])
        y0 = lstm.output(bench_w, x_star) + d_hat
        ref = refcalc.solve_reference(bench_w, y0, d_hat)
        assert np.max(np.abs(ref.u_bar - u_star)) < 1e-8
        assert np.max(np.abs(ref.x_bar.as_vector() - x_star.as_vector())) < 1e-8
        assert ref.residual < 1e-9

    def test_fixed_point_residual(self, bench_w):
        ref = refcalc.solve_reference(bench_w, [0.1], [0.0])
        nxt = lstm.step(bench_w, ref.x_bar, ref.u_bar)
        assert np.max(np.abs(nxt.as_vector() - ref.x_bar.as_vector())) < 1e-9
        assert abs(lstm.output(bench_w, ref.x_bar)[0] - 0.1) < 1e-9

    def test_shift_invariance(self, bench_w):
        # only y0 - d_hat enters the equations
        a = refcalc.solve_reference(bench_w, [0.2], [0.05])
        b = refcalc.solve_reference(bench_w, [0.25], [0.10])
        np.testing.assert_allclose(a.u_bar, b.u_bar, atol=1e-9)
        np.testing.assert_allclose(a.x_bar.as_vector(), b.x_bar.as_vector(), atol=1e-9)

    def test_warm_start_at_solution(self, bench_w):
        ref = refcalc.solve_reference(bench_w, [0.15], [0.0])
        again = refcalc.solve_reference(bench_w, [0.15], [0.0], warm_start=ref)
        np.testing.assert_allclose(again.u_bar, ref.u_bar, atol=1e-12)
        np.testing.assert_allclose(again.x_bar.as_vector(),
                                   ref.x_bar.as_vector(), atol=1e-12)

    def test_uniqueness_from_random_warm_starts(self, bench_w):
        rng = np.random.default_rng(4)
        sols = []
        for _ in range(10):
            warm = refcalc.ReferencePair(
                random_invariant_state(bench_w, rng),
                rng.uniform(-0.9, 0.9, bench_w.m), np.inf)
            ref = refcalc.solve_reference(bench_w, [0.1], [0.0], warm_start=warm)
            sols.append(np.concatenate([ref.x_bar.as_vector(), ref.u_bar]))
        sols = np.array(sols)
        assert np.max(sols.max(axis=0) - sols.min(axis=0)) < 1e-6

    def test_rejects_unreachable_target(self, bench_w):
        with pytest.raises(InfeasibleReferenceError):
            refcalc.solve_reference(bench_w, [5.0], [0.0])

    def test_rejects_non_square_model(self):
        w = small_net(seed=0, n=3, m=2, p=1)
        with pytest.raises(InfeasibleReferenceError):
            refcalc.solve_reference(w, [0.0], [0.0])


class TestJacobian:
    @pytest.mark.parametrize("net", ["bench", "small"])
    def test_matches_finite_differences(self, net, bench_w):
        w = bench_w if net == "bench" else small_net(n=3)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_invariant_state(w, rng)
            u = rng.uniform(-w.u_max, w.u_max, w.m)
            xi = np.concatenate([x.c, x.h, u])
            y0_eff = rng.uniform(-1.0, 1.0, w.p)
            np.testing.assert_allclose(refcalc._jacobian(w, xi),
                                       fd_jacobian(w, xi, y0_eff), rtol=0, atol=1e-7)


class TestSensitivity:
    def test_matches_finite_differences(self, bench_w):
        y0 = 0.1
        ref = refcalc.solve_reference(bench_w, [y0], [0.0])
        sens = refcalc.reference_sensitivity(bench_w, ref)
        eps = 1e-5
        hi = refcalc.solve_reference(bench_w, [y0 + eps], [0.0], warm_start=ref)
        lo = refcalc.solve_reference(bench_w, [y0 - eps], [0.0], warm_start=ref)
        fd = (np.concatenate([hi.x_bar.as_vector(), hi.u_bar])
              - np.concatenate([lo.x_bar.as_vector(), lo.u_bar])) / (2 * eps)
        np.testing.assert_allclose(sens[:, 0], fd, atol=1e-5)

    def test_single_point_grid_equals_local_norm(self, bench_w):
        y0 = 0.05
        k_bar, arg = refcalc.estimate_k_bar(bench_w, (y0, y0), grid_density=1)
        ref = refcalc.solve_reference(bench_w, [y0], [0.0])
        sens = refcalc.reference_sensitivity(bench_w, ref)
        assert k_bar == pytest.approx(np.linalg.norm(sens[:2 * bench_w.n], 2),
                                      abs=1e-9)
        assert arg == (y0, 0.0)

    def test_k_bar_finite_and_grid_stable(self, bench_w, bench_nrm):
        lo = float(bench_nrm.normalize_y(6.8))
        hi = float(bench_nrm.normalize_y(8.2))
        k9, _ = refcalc.estimate_k_bar(bench_w, (lo, hi), grid_density=9)
        k17, _ = refcalc.estimate_k_bar(bench_w, (lo, hi), grid_density=17)
        assert 0.0 < k9 < np.inf
        assert k17 == pytest.approx(k9, rel=0.05)

    def test_k_bar_with_disturbance_range(self, bench_w):
        k, arg = refcalc.estimate_k_bar(bench_w, (-0.1, 0.1), (-0.05, 0.05),
                                        grid_density=5)
        assert k > 0.0 and len(arg) == 2
