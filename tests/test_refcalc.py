"""Unit tests for the equilibrium reference calculator."""

import warnings

import numpy as np
import pytest

from lstmpc import lstm, refcalc
from lstmpc.errors import InfeasibleReferenceError
from lstmpc.lstm import LstmState

from conftest import random_invariant_state, small_net


def oracle_residual(w, xi, y0_eff):
    """The equilibrium residual [step(x,u) - x; g(x) - y0_eff] from ``lstm.step``."""
    n = w.n
    x = LstmState(xi[:n], xi[n:2 * n])
    x_next = lstm.step(w, x, xi[2 * n:])
    return np.concatenate([x_next.c - x.c, x_next.h - x.h,
                           w.W_y @ x.h + w.b_y - y0_eff])


def oracle_jacobian(w, xi):
    """Analytic dF/dxi from its own kernel step at xi (the two-evaluation
    Newton's Jacobian)."""
    n = w.n
    c, h, u = xi[:n], xi[n:2 * n], xi[2 * n:]
    cs, _, cache = lstm.rollout(w, c, h, u[None, :])
    f, k_f, k_i, k_g, k_o, k_t = (k[0] for k in lstm.local_factors(cs, cache))
    uw = np.hstack([w.U, w.W])
    dc_hu = (k_f[:, None] * uw[:n] + k_i[:, None] * uw[n:2 * n]
             + k_g[:, None] * uw[3 * n:])
    jac = np.zeros((2 * n + w.p, 2 * n + w.m))
    jac[:n, :n] = np.diag(f - 1.0)
    jac[:n, n:] = dc_hu
    jac[n:2 * n, :n] = np.diag(k_t * f)
    jac[n:2 * n, n:] = k_t[:, None] * dc_hu + k_o[:, None] * uw[2 * n:3 * n]
    jac[n:2 * n, n:2 * n] -= np.eye(n)
    jac[2 * n:, n:2 * n] = w.W_y
    return jac


def oracle_newton(w, xi, y0_eff):
    """Reference Newton: the residual and the Jacobian each evaluate the
    cell, and the singularity test is ``np.linalg.cond``. Returns (xi,
    residual, Jacobian at xi) and rejects an input outside the +-u_max box."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            r = oracle_residual(w, xi, y0_eff)
            if np.max(np.abs(r)) < refcalc._TOL:
                break
            jac = oracle_jacobian(w, xi)
            if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e12:
                raise InfeasibleReferenceError("equilibrium Jacobian is singular")
            xi = xi + np.linalg.solve(jac, -r)
        else:
            r = oracle_residual(w, xi, y0_eff)
    if not np.max(np.abs(r)) < refcalc._TOL:
        raise InfeasibleReferenceError("Newton iteration did not converge")
    if np.max(np.abs(xi[2 * w.n:])) > w.u_max + 1e-9:
        raise InfeasibleReferenceError("equilibrium input outside the box")
    return xi, float(np.max(np.abs(r))), oracle_jacobian(w, xi)


def fd_jacobian(w, xi, y0_eff, eps=1e-6):
    """Central-difference Jacobian of the equilibrium residual (oracle)."""
    d = len(xi)
    jac = np.empty((d, d))
    for j in range(d):
        xp = xi.copy()
        xm = xi.copy()
        xp[j] += eps
        xm[j] -= eps
        jac[:, j] = (oracle_residual(w, xp, y0_eff)
                     - oracle_residual(w, xm, y0_eff)) / (2 * eps)
    return jac


def counted(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends ``name`` to ``calls``."""
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


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

    def test_unreachable_target_cold_starts_once(self, bench_w, monkeypatch):
        calls = []
        counted(monkeypatch, lstm, "step", calls)
        with pytest.raises(InfeasibleReferenceError):
            refcalc.solve_reference(bench_w, [5.0], [0.0])
        assert len(calls) == 500

    def test_warm_tangent_predicts_past_the_warm_start(self, bench_w, monkeypatch):
        ref = refcalc.solve_reference(bench_w, [0.1], [0.0])
        xi0 = np.concatenate([ref.x_bar.c, ref.x_bar.h, ref.u_bar])
        seen = []
        cell_step = refcalc._cell_step

        def spy(w, xi):
            seen.append(xi.copy())
            return cell_step(w, xi)

        monkeypatch.setattr(refcalc, "_cell_step", spy)
        refcalc.solve_reference(bench_w, [0.12], [0.0], warm_start=ref)
        assert seen and not any(np.array_equal(xi, xi0) for xi in seen)

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
            jac = refcalc._jacobian(w, refcalc._cell_step(w, xi))
            np.testing.assert_array_equal(jac, oracle_jacobian(w, xi))
            np.testing.assert_allclose(jac, fd_jacobian(w, xi, y0_eff), rtol=0, atol=1e-7)


class TestNewtonOracle:
    """``solve_reference`` equals the tracker run on the reference
    two-evaluation Newton exactly, on every path it can take."""

    @staticmethod
    def _cases(w, rng, count=30):
        # Warm starts with the cell state drawn wide and h, u inside their
        # sets; targets are attractor outputs for inputs up to 1.1 u_max,
        # so some equilibria leave the input box.
        cases = []
        for _ in range(count):
            h = random_invariant_state(w, rng).h
            warm = refcalc.ReferencePair(LstmState(rng.normal(scale=2.0, size=w.n), h),
                                         rng.uniform(-w.u_max, w.u_max, w.m), np.inf)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # inputs beyond u_max
                x = attractor(w, rng.uniform(-1.1, 1.1, w.m) * w.u_max, steps=500)
            d_hat = rng.uniform(-0.05, 0.05, w.p)
            cases.append((lstm.output(w, x) + d_hat, d_hat, warm))
        return cases

    @staticmethod
    def _solve(w, y0, d_hat, warm):
        """(c, h, u_bar, residual, tangent) of the solve, None if it raised."""
        try:
            ref = refcalc.solve_reference(w, y0, d_hat, warm_start=warm)
        except InfeasibleReferenceError:
            return None
        return ref.x_bar.c, ref.x_bar.h, ref.u_bar, ref.residual, ref.tangent

    @pytest.mark.parametrize("net", ["bench", "small"])
    def test_equals_two_evaluation_newton(self, net, bench_w, monkeypatch):
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        cases = self._cases(w, np.random.default_rng(7))
        if net == "bench":
            # From this solved pair (it carries a tangent) the full step to
            # the target fails and two half steps succeed.
            warm = refcalc.solve_reference(w, [0.02434732], [0.0])
            cases.append((np.array([-0.9519736]), np.zeros(1), warm))
        calls = []
        counted(monkeypatch, refcalc, "_newton", calls)
        counted(monkeypatch, refcalc, "_cold_start", calls)
        got, paths = [], []
        for case in cases:
            calls.clear()
            got.append(self._solve(w, *case))
            paths.append("cold restart" if "_cold_start" in calls
                         else "one step" if calls == ["_newton"] else "halved steps")
        reached = {"one step", "halved steps", "cold restart"}
        if net == "small":   # its nearly linear curve never needs a halved step
            reached.remove("halved steps")
        assert set(paths) == reached
        assert None in got and any(g is not None for g in got)
        monkeypatch.setattr(refcalc, "_newton", oracle_newton)
        want = [self._solve(w, *case) for case in cases]
        assert [g is None for g in got] == [r is None for r in want]
        for g, r in zip(got, want):
            if g is not None:
                for a, b in zip(g, r):
                    np.testing.assert_array_equal(a, b)


class TestSensitivity:
    def test_matches_finite_differences(self, bench_w):
        y0 = 0.1
        ref = refcalc.solve_reference(bench_w, [y0], [0.0])
        sens = ref.tangent
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
        assert k_bar == pytest.approx(np.linalg.norm(ref.tangent[:2 * bench_w.n], 2),
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
