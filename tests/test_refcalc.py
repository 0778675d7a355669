"""Unit tests for the equilibrium reference calculator."""

import sys
import threading
import warnings

import numpy as np
import pytest

from lstmpc import lstm, observer, refcalc
from lstmpc.errors import DimensionError, InfeasibleReferenceError
from lstmpc.lstm import LstmState

from conftest import gate, local_factors_oracle, random_invariant_state, small_net, zero_net


def oracle_residual(w, xi, y0_eff):
    """The equilibrium residual [step(x,u) - x; g(x) - y0_eff] from ``lstm.step``."""
    n = w.n
    x = LstmState(xi[:n], xi[n:2 * n])
    x_next = lstm.step(w, x, xi[2 * n:], lstm.Workspace(w.n, w.m, 1))
    return np.concatenate([x_next.c - x.c, x_next.h - x.h,
                           w.W_y @ x.h + w.b_y - y0_eff])


def oracle_jacobian(w, xi):
    """Analytic dF/dxi from its own kernel step at xi (the two-evaluation
    Newton's Jacobian)."""
    n = w.n
    c, h, u = xi[:n], xi[n:2 * n], xi[2 * n:]
    cs, _, cache = lstm.rollout(w, c, h, u[None, :])
    f, k_f, k_i, k_g, k_o, k_t = (k[0] for k in local_factors_oracle(cs, cache))
    uw = {g: np.hstack([gate(w, f"U_{g}"), gate(w, f"W_{g}")]) for g in lstm.GATES}
    dc_hu = (k_f[:, None] * uw["f"] + k_i[:, None] * uw["i"]
             + k_g[:, None] * uw["c"])
    jac = np.zeros((2 * n + w.p, 2 * n + w.m))
    jac[:n, :n] = np.diag(f - 1.0)
    jac[:n, n:] = dc_hu
    jac[n:2 * n, :n] = np.diag(k_t * f)
    jac[n:2 * n, n:] = k_t[:, None] * dc_hu + k_o[:, None] * uw["o"]
    jac[n:2 * n, n:2 * n] -= np.eye(n)
    jac[2 * n:, n:2 * n] = w.W_y
    return jac


def cell_jacobian(w, xi):
    """refcalc's Newton Jacobian at xi: one ``_cell_step`` in a one-step
    workspace, then ``_jacobian`` of that step."""
    ws = lstm.Workspace(w.n, w.m, 1)
    refcalc._cell_step(w, ws, xi)
    return refcalc._jacobian(w, ws)


def oracle_newton(w, xi, y0_eff):
    """Reference full Newton: the residual and the Jacobian each evaluate
    the cell, every iterate solves with its own Jacobian, and the
    singularity test is ``np.linalg.cond``. Returns (xi, residual, Jacobian
    at xi) and rejects an input outside the +-u_max box."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            r = oracle_residual(w, xi, y0_eff)
            if np.max(np.abs(r)) < refcalc._TOL:
                break
            jac = oracle_jacobian(w, xi)
            if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e12:
                raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular")
            xi = xi + np.linalg.solve(jac, -r)
        else:
            r = oracle_residual(w, xi, y0_eff)
    if not np.max(np.abs(r)) < refcalc._TOL:
        raise InfeasibleReferenceError("Newton iteration did not converge", "diverged")
    if np.max(np.abs(xi[2 * w.n:])) > w.u_max + 1e-9:
        raise InfeasibleReferenceError("equilibrium input outside the box", "box")
    return xi, float(np.max(np.abs(r))), oracle_jacobian(w, xi)


def oracle_inverse(jac):
    """J^-1 by ``np.linalg.inv``; rejects J if singular or if
    |J|_inf |J^-1|_inf exceeds 1e12."""
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular")
    if not np.linalg.norm(jac, np.inf) * np.linalg.norm(inv, np.inf) <= 1e12:
        raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular")
    return inv


def oracle_simplified_newton(w, xi, y0_eff, jac_inv):
    """Reference simplified Newton on the two-evaluation residual and
    Jacobian: step with the inverse in hand, and invert a fresh Jacobian
    at the iterate when there is none or when max |r| fell less than
    tenfold since the last step. Returns (xi, residual, inverse Jacobian at
    xi) and rejects an input outside the +-u_max box."""
    res_prev = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            r = oracle_residual(w, xi, y0_eff)
            res = float(np.max(np.abs(r)))
            if res < refcalc._TOL:
                break
            if jac_inv is None or not res < 0.1 * res_prev:
                jac_inv = oracle_inverse(oracle_jacobian(w, xi))
            xi = xi - jac_inv @ r
            res_prev = res
        else:
            r = oracle_residual(w, xi, y0_eff)
        if not np.max(np.abs(r)) < refcalc._TOL:
            raise InfeasibleReferenceError("Newton iteration did not converge", "diverged")
        if np.max(np.abs(xi[2 * w.n:])) > w.u_max + 1e-9:
            raise InfeasibleReferenceError("equilibrium input outside the box", "box")
        return xi, float(np.max(np.abs(r))), oracle_inverse(oracle_jacobian(w, xi))


def full_newton(w, xi, y0_eff, jac_inv):
    """``oracle_newton`` in the corrector's interface: it ignores the
    inverse in hand and returns the inverse of its accepted Jacobian."""
    xi, res, jac = oracle_newton(w, xi, y0_eff)
    return xi, res, np.linalg.inv(jac)


def oracle_track(w, xi, jac_inv, y0_eff, newton=oracle_simplified_newton):
    """Reference tracker: walk the targets from xi's own output to y0_eff
    in dyadic steps. Each step predicts along the tangent (the inverse
    Jacobian's last p columns) and corrects with ``newton``, which starts
    from the inverse of the last accepted point; a failed step is halved
    and retried with no inverse in hand, an accepted one doubles."""
    n = w.n
    delta = y0_eff - (w.W_y @ xi[n:2 * n] + w.b_y)
    in_hand = jac_inv
    done, step = 0.0, 1.0
    while done < 1.0:
        step = min(step, 1.0 - done)
        target = y0_eff - (1.0 - done - step) * delta
        guess = xi if jac_inv is None else xi + jac_inv[:, 2 * n:] @ (step * delta)
        try:
            xi, res, jac_inv = newton(w, guess, target, in_hand)
        except InfeasibleReferenceError:
            step /= 2
            if step < 1 / 1024:
                raise
            in_hand = None
            continue
        in_hand = jac_inv
        done += step
        step *= 2
    return xi, res, jac_inv


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

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def attractor(w, u, steps=800):
    x = w.zero_state()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cell = lstm.Workspace(w.n, w.m, 1)
    for _ in range(steps):
        x = lstm.step(w, x, u, cell)
    return x


class TestSolveReference:
    def test_recovers_known_attractor(self, bench_w, bench_cell):
        u_star = np.array([0.3])
        x_star = attractor(bench_w, u_star)
        d_hat = np.array([0.04])
        y0 = lstm.output(bench_w, x_star) + d_hat
        ref = refcalc.solve_reference(bench_w, y0, d_hat, bench_cell)
        assert np.max(np.abs(ref.u_bar - u_star)) < 1e-8
        assert np.max(np.abs(ref.x_bar.as_vector() - x_star.as_vector())) < 1e-8
        assert ref.residual < 1e-9

    @pytest.mark.parametrize("name, y0, d_hat", [
        ("y0", [0.1, 0.2], [0.0]), ("d_hat", [0.1], [0.0, 0.0]), ("y0", [[0.1]], [0.0])],
        ids=["y0-two-entries", "d_hat-two-entries", "y0-2d"])
    def test_rejects_targets_without_p_entries(self, bench_w, bench_cell, monkeypatch, name, y0,
                                               d_hat):
        # by name, before any cell step
        def no_step(*args, **kwargs):
            raise AssertionError("cell step before the input check")

        monkeypatch.setattr(lstm.Workspace, "step", no_step)
        with pytest.raises(DimensionError, match=f"^{name} has shape"):
            refcalc.solve_reference(bench_w, y0, d_hat, bench_cell)

    def test_fixed_point_residual(self, bench_w, bench_cell):
        ref = refcalc.solve_reference(bench_w, [0.1], [0.0], bench_cell)
        nxt = lstm.step(bench_w, ref.x_bar, ref.u_bar, bench_cell)
        assert np.max(np.abs(nxt.as_vector() - ref.x_bar.as_vector())) < 1e-9
        assert abs(lstm.output(bench_w, ref.x_bar)[0] - 0.1) < 1e-9

    def test_shift_invariance(self, bench_w, bench_cell):
        # only y0 - d_hat enters the equations
        a = refcalc.solve_reference(bench_w, [0.2], [0.05], bench_cell)
        b = refcalc.solve_reference(bench_w, [0.25], [0.10], bench_cell)
        np.testing.assert_allclose(a.u_bar, b.u_bar, atol=1e-9)
        np.testing.assert_allclose(a.x_bar.as_vector(), b.x_bar.as_vector(), atol=1e-9)

    def test_warm_start_at_solution(self, bench_w, bench_cell):
        ref = refcalc.solve_reference(bench_w, [0.15], [0.0], bench_cell)
        again = refcalc.solve_reference(bench_w, [0.15], [0.0], bench_cell, warm_start=ref)
        np.testing.assert_allclose(again.u_bar, ref.u_bar, atol=1e-12)
        np.testing.assert_allclose(again.x_bar.as_vector(),
                                   ref.x_bar.as_vector(), atol=1e-12)

    def test_uniqueness_from_random_warm_starts(self, bench_w, bench_cell):
        rng = np.random.default_rng(4)
        sols = []
        for _ in range(10):
            warm = refcalc.ReferencePair(
                random_invariant_state(bench_w, rng),
                rng.uniform(-0.9, 0.9, bench_w.m), np.inf)
            ref = refcalc.solve_reference(bench_w, [0.1], [0.0], bench_cell, warm_start=warm)
            sols.append(np.concatenate([ref.x_bar.as_vector(), ref.u_bar]))
        sols = np.array(sols)
        assert np.max(sols.max(axis=0) - sols.min(axis=0)) < 1e-6

    def test_rejects_unreachable_target(self, bench_w, bench_cell):
        with pytest.raises(InfeasibleReferenceError):
            refcalc.solve_reference(bench_w, [5.0], [0.0], bench_cell)

    def test_unreachable_target_cold_starts_once(self, bench_w, monkeypatch, bench_cell):
        calls = []
        counted(monkeypatch, lstm, "step", calls)
        with pytest.raises(InfeasibleReferenceError):
            refcalc.solve_reference(bench_w, [5.0], [0.0], bench_cell)
        assert len(calls) == 500

    def test_warm_tangent_predicts_past_the_warm_start(self, bench_w, monkeypatch, bench_cell):
        ref = refcalc.solve_reference(bench_w, [0.1], [0.0], bench_cell)
        xi0 = np.concatenate([ref.x_bar.c, ref.x_bar.h, ref.u_bar])
        seen = []
        cell_step = refcalc._cell_step

        def spy(w, ws, xi):
            seen.append(xi.copy())
            return cell_step(w, ws, xi)

        monkeypatch.setattr(refcalc, "_cell_step", spy)
        refcalc.solve_reference(bench_w, [0.12], [0.0], bench_cell, warm_start=ref)
        assert seen and not any(np.array_equal(xi, xi0) for xi in seen)

    def test_singular_jacobian_at_accepted_point_raises(self):
        # The zero net's attractor meets y0 = 0 at once, and W_y = 0 makes
        # the Jacobian there singular.
        with pytest.raises(InfeasibleReferenceError) as err:
            refcalc.solve_reference(zero_net(), [0.0], [0.0], lstm.Workspace(2, 1, 1))
        assert err.value.reason == "singular"

    @pytest.mark.parametrize("y0", [1.2, 2.0])
    def test_box_failure_does_not_restart_cold(self, bench_w, monkeypatch, y0, bench_cell):
        warm = refcalc.solve_reference(bench_w, [0.1], [0.0], bench_cell)
        calls = []
        counted(monkeypatch, refcalc, "_cold_start", calls)
        with pytest.raises(InfeasibleReferenceError) as err:
            refcalc.solve_reference(bench_w, [y0], [0.0], bench_cell, warm_start=warm)
        assert err.value.reason == "box"
        assert calls == []

    def test_rejects_non_square_model(self):
        w = small_net(seed=0, n=3, m=2, p=1)
        with pytest.raises(InfeasibleReferenceError):
            refcalc.solve_reference(w, [0.0], [0.0], lstm.Workspace(w.n, w.m, 1))


class TestJacobian:
    @pytest.mark.parametrize("net", ["bench", "small", "square2"])
    def test_matches_finite_differences(self, net, bench_w):
        w = {"bench": bench_w, "small": small_net(n=3),
             "square2": small_net(n=3, m=2, p=2)}[net]
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_invariant_state(w, rng)
            u = rng.uniform(-w.u_max, w.u_max, w.m)
            xi = np.concatenate([x.c, x.h, u])
            y0_eff = rng.uniform(-1.0, 1.0, w.p)
            jac = cell_jacobian(w, xi)
            np.testing.assert_array_equal(jac, oracle_jacobian(w, xi))
            np.testing.assert_allclose(jac, fd_jacobian(w, xi, y0_eff), rtol=0, atol=1e-7)


class TestInverse:
    """``_inverse`` bounds kappa_inf = |J|_inf |J^-1|_inf by ``_COND_MAX``
    = 1e12 with the value of the ndarray-method expression, bit for bit,
    and rejects a non-finite J."""

    @staticmethod
    def _kappa(jac):
        inv = np.linalg.inv(jac)
        return abs(jac).sum(axis=1).max() * abs(inv).sum(axis=1).max()

    @staticmethod
    def _bench_jacobian(w):
        rng = np.random.default_rng(4)
        x = random_invariant_state(w, rng)
        xi = np.concatenate([x.c, x.h, rng.uniform(-w.u_max, w.u_max, w.m)])
        return cell_jacobian(w, xi)

    @pytest.mark.parametrize("case", ["bench", "random", "ill-conditioned"])
    def test_threshold_is_the_old_expression(self, bench_w, monkeypatch, case):
        rng = np.random.default_rng(8)
        jac = {"bench": lambda: self._bench_jacobian(bench_w),
               "random": lambda: rng.normal(size=(11, 11)),
               "ill-conditioned": lambda: np.diag(np.logspace(0, -10, 11))
               + 1e-3 * rng.normal(size=(11, 11))}[case]()
        assert refcalc._COND_MAX == 1e12
        kappa = self._kappa(jac)
        # accepted at kappa and rejected one ulp below it: the same value
        monkeypatch.setattr(refcalc, "_COND_MAX", kappa)
        np.testing.assert_array_equal(refcalc._inverse(jac), np.linalg.inv(jac))
        monkeypatch.setattr(refcalc, "_COND_MAX", np.nextafter(kappa, 0.0))
        with pytest.raises(InfeasibleReferenceError, match="singular"):
            refcalc._inverse(jac)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_jacobian(self, bench_w, bad):
        jac = self._bench_jacobian(bench_w)
        jac[3, 4] = bad
        with np.errstate(all="ignore"):
            assert not self._kappa(jac) <= refcalc._COND_MAX
        with pytest.raises(InfeasibleReferenceError) as exc:
            refcalc._inverse(jac)
        assert exc.value.reason == "singular"


class TestNewtonOracle:
    """``solve_reference`` equals the reference simplified-Newton tracker
    exactly, on every path it can take, and agrees with the tracker run on
    full Newton."""

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

    @pytest.fixture(params=["bench", "small"])
    def net_cases(self, request, bench_w, bench_cell):
        if request.param == "small":
            w = small_net(n=3, m=2, p=2)
            return w, self._cases(w, np.random.default_rng(7))
        cases = self._cases(bench_w, np.random.default_rng(7))
        # From this solved pair (it carries an inverse Jacobian) the full
        # step to the target fails and two half steps succeed.
        warm = refcalc.solve_reference(bench_w, [-0.9], [0.0], bench_cell)
        cases.append((np.array([1.0]), np.zeros(1), warm))
        return bench_w, cases

    @staticmethod
    def _solve(w, y0, d_hat, warm):
        """(c, h, u_bar, residual, jac_inv) of the solve, or the reason it
        raised."""
        try:
            ref = refcalc.solve_reference(w, y0, d_hat, lstm.Workspace(w.n, w.m, 1), warm)
        except InfeasibleReferenceError as exc:
            return exc.reason
        return ref.x_bar.c, ref.x_bar.h, ref.u_bar, ref.residual, ref.jac_inv

    def test_equals_two_evaluation_newton(self, net_cases, monkeypatch):
        w, cases = net_cases
        calls = []
        counted(monkeypatch, refcalc, "_newton", calls)
        counted(monkeypatch, refcalc, "_cold_start", calls)
        got, paths = [], []
        for case in cases:
            calls.clear()
            got.append(self._solve(w, *case))
            paths.append("cold restart" if "_cold_start" in calls
                         else "one step" if calls == ["_newton"] else "halved steps")
        assert set(paths) == {"one step", "halved steps", "cold restart"}
        assert any(isinstance(g, str) for g in got)
        assert any(not isinstance(g, str) for g in got)
        # the tracker runs on solve_reference's kernel; the oracle on the weights
        monkeypatch.setattr(refcalc, "_track", lambda k, ws, *args: oracle_track(w, *args))
        want = [self._solve(w, *case) for case in cases]
        for g, r in zip(got, want):
            if isinstance(g, str) or isinstance(r, str):
                assert g == r
                continue
            for a, b in zip(g, r):
                np.testing.assert_array_equal(a, b)

    def test_agrees_with_full_newton_tracker(self, net_cases, monkeypatch):
        w, cases = net_cases
        got = [self._solve(w, *case) for case in cases]
        monkeypatch.setattr(refcalc, "_track",
                            lambda k, ws, *args: oracle_track(w, *args, newton=full_newton))
        want = [self._solve(w, *case) for case in cases]
        assert [isinstance(g, str) for g in got] == [isinstance(r, str) for r in want]
        gap = max(np.max(np.abs(np.concatenate(g[:3]) - np.concatenate(r[:3])))
                  for g, r in zip(got, want) if not isinstance(g, str))
        assert gap < 1e-8   # 2.6e-10 on the bench net, 2.7e-9 on the small one


class TestJacobianReuse:
    def test_one_jacobian_per_warm_call(self, bench_w, monkeypatch, bench_cell):
        # A slowly moving target, as in a closed loop: the carried inverse
        # corrects every call, and only the accepted point is linearized.
        ref = refcalc.solve_reference(bench_w, [0.1], [0.0], bench_cell)
        calls = []
        counted(monkeypatch, refcalc, "_jacobian", calls)
        counted(monkeypatch, np.linalg, "svd", calls)
        for k in range(1, 21):
            calls.clear()
            ref = refcalc.solve_reference(bench_w, [0.1 + 0.002 * k], [0.001 * k], bench_cell,
                                          warm_start=ref)
            assert calls == ["_jacobian"]


class TestSensitivity:
    def test_matches_finite_differences(self, bench_w, bench_cell):
        y0 = 0.1
        ref = refcalc.solve_reference(bench_w, [y0], [0.0], bench_cell)
        sens = ref.tangent
        eps = 1e-5
        hi = refcalc.solve_reference(bench_w, [y0 + eps], [0.0], bench_cell, warm_start=ref)
        lo = refcalc.solve_reference(bench_w, [y0 - eps], [0.0], bench_cell, warm_start=ref)
        fd = (np.concatenate([hi.x_bar.as_vector(), hi.u_bar])
              - np.concatenate([lo.x_bar.as_vector(), lo.u_bar])) / (2 * eps)
        np.testing.assert_allclose(sens[:, 0], fd, atol=1e-5)

    def test_single_point_grid_equals_local_norm(self, bench_w, bench_cell):
        y0 = 0.05
        k_bar, arg = refcalc.estimate_k_bar(bench_w, (y0, y0), grid_density=1)
        ref = refcalc.solve_reference(bench_w, [y0], [0.0], bench_cell)
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

    @pytest.mark.parametrize("grid_density", [0, -3])
    def test_k_bar_rejects_empty_grid(self, bench_w, grid_density):
        with pytest.raises(ValueError, match="grid_density"):
            refcalc.estimate_k_bar(bench_w, (-0.5, 0.5), grid_density=grid_density)

    def test_k_bar_skips_a_point_outside_the_box(self, bench_w, bench_cell):
        # grid -1.2, -0.35, 0.5: the first equilibrium leaves the input box
        with pytest.warns(UserWarning, match=r"1 grid points .*\(-1\.2, 0\.0\)"):
            k_bar, arg = refcalc.estimate_k_bar(bench_w, (-1.2, 0.5), grid_density=3)
        assert arg == (-0.35, 0.0)
        ref = refcalc.solve_reference(bench_w, [-0.35], [0.0], bench_cell)
        assert k_bar == pytest.approx(np.linalg.norm(ref.tangent[:2 * bench_w.n], 2),
                                      rel=1e-9)

    def test_k_bar_raises_when_no_point_is_admissible(self, bench_w):
        with pytest.warns(UserWarning, match="3 grid points"):
            with pytest.raises(InfeasibleReferenceError) as err:
                refcalc.estimate_k_bar(bench_w, (1.2, 2.0), grid_density=3)
        assert err.value.reason == "box"

    def test_k_bar_with_disturbance_range(self, bench_w):
        k, arg = refcalc.estimate_k_bar(bench_w, (-0.1, 0.1), (-0.05, 0.05),
                                        grid_density=5)
        assert k > 0.0 and len(arg) == 2


class TestNanResidual:
    # _newton takes the residual's largest magnitude on Python floats, whose
    # builtin max skips a NaN that is not first: a residual that holds a NaN
    # after an entry below _TOL must never pass the acceptance test
    @pytest.mark.parametrize("net", ["bench", "small"])
    def test_newton_never_accepts_a_nan_residual(self, bench_w, monkeypatch, net):
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        x = attractor(w, np.full(w.m, 0.2))
        y0_eff = lstm.output(w, x)
        ref = refcalc.solve_reference(w, y0_eff, np.zeros(w.p), lstm.Workspace(w.n, w.m, 1))
        xi = np.concatenate([ref.x_bar.c, ref.x_bar.h, ref.u_bar])
        residual = refcalc._residual
        entries = []

        def with_nan(w_, xi_, y0_eff_, cell, out):
            residual(w_, xi_, y0_eff_, cell, out)
            entries.append(abs(out[0]))
            out[1] = np.nan

        monkeypatch.setattr(refcalc, "_residual", with_nan)
        with pytest.raises(InfeasibleReferenceError):
            refcalc._newton(w, lstm.Workspace(w.n, w.m, 1), xi, y0_eff, ref.jac_inv)
        assert entries[0] < refcalc._TOL    # the first entry alone would pass


class TestSharedModel:
    """Callers that share one model each own their workspaces, so threads
    that step and linearize the same ``LstmWeights`` at once get the
    serial results bit for bit."""

    CHAINS, STEPS, THREADS = 20, 30, 4

    def _chain(self, w, spec, start, j, cell, estimator):
        """Chain ``j``: warm ``solve_reference`` calls toward a moving
        set-point from ``start``, each followed by an ``observer_step``, in
        the workspaces ``cell`` and ``estimator``; the bytes of every result."""
        ref, chi, out = start, observer.AugmentedState(start.x_bar, np.zeros(w.p)), []
        for k in range(1, self.STEPS + 1):
            y0 = 0.1 + 0.002 * k * (1 + j % 4)
            ref = refcalc.solve_reference(w, [y0], [0.0005 * k], cell, ref)
            chi = observer.observer_step(w, spec, chi, ref.u_bar, [y0 + 0.01], estimator)
            out += [a.tobytes() for a in (ref.x_bar.c, ref.x_bar.h, ref.u_bar, ref.jac_inv,
                                          chi.x.c, chi.x.h, chi.d)]
        return out

    def _run(self, w, spec, start, chains):
        cell, estimator = lstm.Workspace(w.n, w.m, 1), lstm.Workspace(w.n, w.m, 1)
        return {j: self._chain(w, spec, start, j, cell, estimator) for j in chains}

    def test_threads_on_one_model_give_the_serial_results(self, bench_w, bench_spec, bench_cell):
        start = refcalc.solve_reference(bench_w, [0.1], [0.0], bench_cell)
        serial = self._run(bench_w, bench_spec, start, range(self.CHAINS))
        results = {}

        def work(t):
            chains = range(t, self.CHAINS, self.THREADS)
            results.update(self._run(bench_w, bench_spec, start, chains))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)         # switch threads as often as the interpreter can
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(self.CHAINS))
        assert [j for j in range(self.CHAINS) if results[j] != serial[j]] == []
