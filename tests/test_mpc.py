"""Unit tests for constraint tightening, terminal ingredients and the solver."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from lstmpc import lstm, mpc, observer, refcalc
from lstmpc.errors import FeasibilityLossError, InfeasibleSetpointError
from lstmpc.observer import AugmentedState

from conftest import random_invariant_state, small_net


def fake_cert(rho_s=0.9, c_su=2.0, c_s=(1.5,)):
    return SimpleNamespace(rho_s=rho_s, c_su=c_su, c_s=np.asarray(c_s, dtype=float))


def fake_spec(rho_o=0.95, l_max=0.1, w_bar=0.01, c_o=(3.0,)):
    return SimpleNamespace(rho_o=rho_o, L_max=l_max, w_bar=w_bar,
                           c_o=np.asarray(c_o, dtype=float))


@pytest.fixture(scope="module")
def bench_sched(bench_cert, bench_spec):
    return mpc.build_schedule(bench_cert, bench_spec, 5)


@pytest.fixture(scope="module")
def bench_term(bench_cert):
    return mpc.TerminalData(P_f=mpc.compute_pf(bench_cert.A_delta, 1.0))


class TestBuildSchedule:
    def test_decoupled_recursion(self):
        spec = fake_spec(rho_o=0.8, l_max=0.0, w_bar=0.0)
        sched = mpc.build_schedule(fake_cert(), spec, 4)
        for i, (a, b) in enumerate(zip(sched.a, sched.b)):
            np.testing.assert_allclose(a, 0.8 ** i * spec.c_o, atol=1e-15)
            np.testing.assert_allclose(b, 0.0, atol=1e-15)

    def test_zero_horizon(self):
        sched = mpc.build_schedule(fake_cert(), fake_spec(), 0)
        assert sched.horizon == 0
        np.testing.assert_array_equal(sched.a[0], [3.0])
        np.testing.assert_array_equal(sched.b[0], [0.0])

    def test_matches_independent_recursion(self, bench_cert, bench_spec, bench_sched):
        a = bench_spec.c_o.copy()
        b = np.zeros_like(a)
        for i in range(6):
            np.testing.assert_allclose(bench_sched.a[i], a, atol=1e-12)
            np.testing.assert_allclose(bench_sched.b[i], b, atol=1e-12)
            a_next = bench_spec.rho_o * a + bench_cert.rho_s ** i \
                * bench_cert.c_su * bench_spec.L_max * bench_cert.c_s
            b_next = b + a * bench_spec.w_bar
            a, b = a_next, b_next

    def test_monotone_nonnegative(self, bench_sched):
        for a in bench_sched.a:
            assert np.all(a >= 0.0)
        for b0, b1 in zip(bench_sched.b, bench_sched.b[1:]):
            assert np.all(b1 >= b0)


class TestEoStep:
    def test_fixed_point(self):
        e_inf = 0.01 / (1.0 - 0.95)
        assert mpc.eo_step(e_inf, 0.95, 0.01) == pytest.approx(e_inf)

    def test_monotone_decay_from_initial_estimate(self):
        e = 0.5
        e_inf = 0.01 / (1.0 - 0.95)
        prev = e
        for _ in range(300):
            e = mpc.eo_step(e, 0.95, 0.01)
            assert e <= prev
            prev = e
        assert e == pytest.approx(e_inf, abs=1e-4)

    def test_geometric_decay_without_noise(self):
        e = 0.5
        for _ in range(10):
            e = mpc.eo_step(e, 0.9, 0.0)
        assert e == pytest.approx(0.5 * 0.9 ** 10, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mpc.eo_step(-0.1, 0.9, 0.0)


class TestComputePf:
    def test_zero_dynamics(self):
        np.testing.assert_allclose(mpc.compute_pf(np.zeros((2, 2)), 1.0),
                                   1.1 * np.eye(2), atol=1e-12)

    def test_strict_lyapunov_decrease(self, bench_cert):
        p_f = mpc.compute_pf(bench_cert.A_delta, 1.0)
        m = bench_cert.A_delta.T @ p_f @ bench_cert.A_delta - p_f + 1.0 * np.eye(2)
        assert np.max(np.linalg.eigvalsh(0.5 * (m + m.T))) < 0.0


class TestTerminalAlpha:
    def test_symmetric_setpoint(self, bench_sched, bench_term, bench_w):
        # centered set-point with symmetric bounds: both sides give the
        # same radius, so alpha equals either one
        alpha = mpc.terminal_alpha(bench_sched, bench_term, bench_w.W_y,
                                   [0.0], [-1.0], [1.0], 0.1, 0.2)
        e_t = max(0.2, bench_sched.e_bar_inf)
        margin = bench_sched.a[5][0] * e_t + bench_sched.b[5][0] + 0.2
        expect = np.sqrt(bench_term.lam_min) / np.linalg.norm(bench_w.W_y[0]) \
            * (1.0 - margin)
        assert alpha == pytest.approx(expect, abs=1e-12)
        assert bench_term.alpha_k == alpha

    def test_uses_e_bar_inf_floor(self, bench_sched, bench_term, bench_w):
        # an error proxy below its asymptotic bound e_bar_inf gives the
        # radius at e_bar_inf
        args = (bench_sched, bench_term, bench_w.W_y, [0.0], [-1.0], [1.0], 0.1)
        floor = mpc.terminal_alpha(*args, bench_sched.e_bar_inf)
        assert floor > 0.0
        assert mpc.terminal_alpha(*args, 0.0) == floor

    def test_rejects_boundary_setpoint(self, bench_sched, bench_term, bench_w):
        lo, hi = mpc.admissible_band(bench_sched, -1.0, 1.0, 0.1, 0.2)
        with pytest.raises(InfeasibleSetpointError):
            mpc.terminal_alpha(bench_sched, bench_term, bench_w.W_y,
                               [hi[0]], [-1.0], [1.0], 0.1, 0.2)

    def test_two_output_band_edges(self):
        # both edges of each output's band are rejected by terminal_alpha,
        # while a set-point strictly inside gets a positive radius; at
        # output 0's edges the radius formula alone rounds to +1e-15
        w = small_net(seed=2, n=3, m=2, p=2)
        cert = lstm.incremental_lyapunov(w)
        spec = observer.select_gains(w)
        sched = mpc.build_schedule(cert, spec, 5)
        term = mpc.TerminalData(P_f=mpc.compute_pf(cert.A_delta, 1.0))
        y_lb, y_ub, e_o = np.array([-1.0, -0.8]), np.array([1.0, 0.6]), 0.2
        lo, hi = mpc.admissible_band(sched, y_lb, y_ub, spec.d_max, e_o)
        mid = 0.5 * (lo + hi)
        assert np.all(lo < mid) and np.all(mid < hi)
        assert mpc.terminal_alpha(sched, term, w.W_y, mid, y_lb, y_ub,
                                  spec.d_max, e_o) > 0.0
        for j in range(2):
            for edge in (lo, hi):
                y0 = mid.copy()
                y0[j] = edge[j]
                with pytest.raises(InfeasibleSetpointError, match=f"output {j}"):
                    mpc.terminal_alpha(sched, term, w.W_y, y0, y_lb, y_ub,
                                       spec.d_max, e_o)

    def test_band_trivial_case(self):
        sched = mpc.build_schedule(fake_cert(), fake_spec(l_max=0.0, w_bar=0.0,
                                                          c_o=(0.0,)), 3)
        lo, hi = mpc.admissible_band(sched, -1.0, 1.0, 0.0, 0.0)
        np.testing.assert_allclose(lo, [-1.0])
        np.testing.assert_allclose(hi, [1.0])


def feasible_instance(w, cert, spec, seed, n_horizon, y0=0.1, e_o=None):
    """A solvable problem instance near the equilibrium of y0."""
    sched = mpc.build_schedule(cert, spec, n_horizon)
    term = mpc.TerminalData(P_f=mpc.compute_pf(cert.A_delta, 1.0))
    ref = refcalc.solve_reference(w, [y0], [0.0])
    e_o = sched.e_bar_inf if e_o is None else e_o
    mpc.terminal_alpha(sched, term, w.W_y, [y0], [-1.0], [1.0], spec.d_max, e_o)
    rng = np.random.default_rng(seed)
    x_hat = lstm.LstmState(ref.x_bar.c + rng.uniform(-0.02, 0.02, w.n),
                           ref.x_bar.h + rng.uniform(-0.02, 0.02, w.n))
    return sched, term, ref, x_hat, e_o


class TestConstraints:
    @pytest.mark.parametrize("n_horizon", [1, 5, 10])
    def test_matches_per_stage_loop(self, n_horizon):
        # two outputs, so the per-stage upper/lower interleaving shows
        w = small_net(seed=2, n=3, m=2, p=2)
        sched = mpc.build_schedule(fake_cert(c_s=(1.5, 0.7)),
                                   fake_spec(c_o=(3.0, 2.0)), n_horizon)
        term = mpc.TerminalData(P_f=[[2.0, 0.3], [0.3, 1.0]], alpha_k=0.4)
        rng = np.random.default_rng(n_horizon)
        ref = SimpleNamespace(x_bar=random_invariant_state(w, rng))
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_horizon, w.m))
        c, h, _ = lstm.rollout(w, x0.c, x0.h, u)
        y_lb, y_ub, e_o, d_max = np.array([-0.9, -1.0]), np.array([1.0, 0.8]), 0.2, 0.1
        expect = []
        for i in range(n_horizon):
            y = w.W_y @ h[i] + w.b_y
            tight = sched.a[i] * e_o + sched.b[i] + d_max
            expect += [y + tight - y_ub, y_lb + tight - y]
        ev = np.array([np.linalg.norm(c[-1] - ref.x_bar.c),
                       np.linalg.norm(h[-1] - ref.x_bar.h)])
        expect.append([ev @ term.P_f @ ev - term.alpha_k ** 2])
        g, ev_out = mpc._constraints(w, mpc._tightening(sched, e_o, d_max), term,
                                     ref, y_lb, y_ub, c, h)
        np.testing.assert_allclose(g, np.concatenate(expect), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ev_out, ev)


class TestSolveFhocp:
    def test_equilibrium_is_optimal(self, bench_w, bench_cert, bench_spec):
        sched, term, ref, _, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 0, 5)
        sol = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                              ref.x_bar, e_o, ref, [-1.0], [1.0])
        np.testing.assert_allclose(sol.u_seq, np.tile(ref.u_bar, (5, 1)), atol=1e-7)
        assert sol.cost < 1e-12
        assert sol.max_violation <= 1e-7

    def test_matches_grid_oracle(self, bench_w, bench_cert, bench_spec):
        sched, term, ref, x_hat, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 1, 2)
        sol = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                              x_hat, e_o, ref, [-1.0], [1.0])
        assert sol.max_violation <= 1e-7
        grid = np.linspace(-1.0, 1.0, 201)
        best = np.inf
        for u0 in grid:
            for u1 in grid:
                u_seq = np.array([[u0], [u1]])
                if mpc.candidate_violation(bench_w, bench_spec, sched, term,
                                           x_hat, e_o, ref, [-1.0], [1.0],
                                           u_seq) > 0.0:
                    continue
                c, h, _ = lstm.rollout(bench_w, x_hat.c, x_hat.h, u_seq)
                dx = np.hstack([c[:2], h[:2]]) - np.concatenate(
                    [ref.x_bar.c, ref.x_bar.h])
                ev = np.array([np.linalg.norm(c[2] - ref.x_bar.c),
                               np.linalg.norm(h[2] - ref.x_bar.h)])
                cost = float(np.sum(dx ** 2) + np.sum((u_seq - ref.u_bar) ** 2)
                             + ev @ term.P_f @ ev)
                best = min(best, cost)
        assert sol.cost <= best + 1e-3

    def test_warm_start_at_optimum_returns_quickly(self, bench_w, bench_cert,
                                                   bench_spec):
        sched, term, ref, x_hat, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 2, 5)
        sol = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                              x_hat, e_o, ref, [-1.0], [1.0])
        again = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                                x_hat, e_o, ref, [-1.0], [1.0], warm=sol.u_seq)
        assert again.cost <= sol.cost + 1e-9
        assert again.solver_iterations <= sol.solver_iterations

    def test_never_worse_than_candidate(self, bench_w, bench_cert, bench_spec):
        sched, term, ref, x_hat, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 3, 5)
        warm = np.tile(ref.u_bar, (5, 1)) + 0.05
        cand_violation = mpc.candidate_violation(
            bench_w, bench_spec, sched, term, x_hat, e_o, ref, [-1.0], [1.0], warm)
        sol = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                              x_hat, e_o, ref, [-1.0], [1.0], warm=warm)
        assert sol.candidate_violation == pytest.approx(cand_violation, abs=1e-12)
        if cand_violation <= 1e-7:
            c, h, _ = lstm.rollout(bench_w, x_hat.c, x_hat.h, warm)
            dx = np.hstack([c[:5], h[:5]]) - np.concatenate(
                [ref.x_bar.c, ref.x_bar.h])
            ev = np.array([np.linalg.norm(c[5] - ref.x_bar.c),
                           np.linalg.norm(h[5] - ref.x_bar.h)])
            cand_cost = float(np.sum(dx ** 2) + np.sum((warm - ref.u_bar) ** 2)
                              + ev @ term.P_f @ ev)
            assert sol.cost <= cand_cost + 1e-9

    def test_solution_shapes(self, bench_w, bench_cert, bench_spec):
        sched, term, ref, x_hat, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 4, 5)
        sol = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                              x_hat, e_o, ref, [-1.0], [1.0])
        assert sol.u_seq.shape == (5, bench_w.m)
        assert np.max(np.abs(sol.u_seq)) <= bench_w.u_max + 1e-12


def _fd_jacobian(fun, u, eps=1e-6):
    """Central-difference Jacobian of a vector function of the (N, m) plan."""
    u = np.asarray(u, dtype=float)
    cols = []
    for idx in np.ndindex(u.shape):
        up, um = u.copy(), u.copy()
        up[idx] += eps
        um[idx] -= eps
        cols.append((np.atleast_1d(fun(up)) - np.atleast_1d(fun(um))) / (2 * eps))
    return np.stack(cols, axis=-1)


class TestDenseQp:
    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(seed)
        n_v, n_c = 4 + seed, 3 + 2 * seed
        b_mat = rng.normal(size=(n_v, n_v))
        hess = b_mat @ b_mat.T + 0.5 * np.eye(n_v)
        grad = 5.0 * rng.normal(size=n_v)        # pushes d0 out of the set
        a_mat = rng.normal(size=(n_c, n_v))
        b_vec = rng.uniform(0.1, 1.0, n_c)        # d = 0 is strictly feasible
        d, lam = mpc._dense_qp(hess, grad, a_mat, b_vec)
        slack = b_vec - a_mat @ d
        assert np.count_nonzero(lam) >= 1
        np.testing.assert_allclose(hess @ d + grad + a_mat.T @ lam, 0.0, atol=1e-9)
        assert np.min(slack) >= -1e-9
        assert np.min(lam) >= 0.0
        assert np.max(np.abs(lam * slack)) <= 1e-9

    def test_infeasible_qp_returns_none(self):
        # d_0 <= -1 and -d_0 <= -1 have no common point
        a_mat = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert mpc._dense_qp(np.eye(2), np.zeros(2), a_mat,
                             np.array([-1.0, -1.0, -0.5])) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_active_set_enumeration(self, seed):
        # The strictly convex QP has one minimizer: the equality-constrained
        # solution of the one active set whose multipliers are >= 0 and
        # whose point satisfies every row.
        rng = np.random.default_rng(100 + seed)
        n_v, n_c = 5, 8
        b_mat = rng.normal(size=(n_v, n_v))
        hess = b_mat @ b_mat.T + 0.5 * np.eye(n_v)
        grad = 5.0 * rng.normal(size=n_v)
        a_mat = rng.normal(size=(n_c, n_v))
        b_vec = rng.uniform(0.1, 1.0, n_c)
        found = []
        for size in range(n_v + 1):
            for act in itertools.combinations(range(n_c), size):
                a_act = a_mat[list(act)]
                kkt = np.block([[hess, a_act.T], [a_act, np.zeros((size, size))]])
                sol = np.linalg.solve(kkt, np.concatenate([-grad, b_vec[list(act)]]))
                if np.all(sol[n_v:] >= 0) and np.all(a_mat @ sol[:n_v] <= b_vec + 1e-12):
                    found.append(sol[:n_v])
        assert len(found) == 1
        d, _ = mpc._dense_qp(hess, grad, a_mat, b_vec)
        np.testing.assert_allclose(d, found[0], atol=1e-10)


class TestFhocpKkt:
    """solve_fhocp returns a KKT point of the nonlinear problem when an
    output bound or the terminal set is active."""

    @pytest.mark.parametrize("n_horizon", [5, 10])
    @pytest.mark.parametrize("active", ["output", "terminal"])
    def test_active_constraint_kkt(self, bench_w, bench_cert, bench_spec,
                                   n_horizon, active):
        nnls = pytest.importorskip("scipy.optimize").nnls
        w, y0 = bench_w, 0.1
        sched, term, ref, x_hat, e_o = feasible_instance(
            w, bench_cert, bench_spec, 2, n_horizon, y0=y0)
        if active == "output":
            # below the unconstrained plan's tightened stage-1 output
            y_ub = 0.30
        else:
            # shrink the terminal radius through the set-point margin
            _, hi = mpc.admissible_band(sched, -1.0, 1.0,
                                        bench_spec.d_max, e_o)
            y_ub = 1.0 - (hi[0] - y0) + {5: 0.075, 10: 0.03}[n_horizon]
            mpc.terminal_alpha(sched, term, w.W_y, [y0], [-1.0], [y_ub],
                               bench_spec.d_max, e_o)
        sol = mpc.solve_fhocp(w, bench_spec, sched, term,
                              x_hat, e_o, ref, [-1.0], [y_ub])
        assert sol.status == "optimal"
        tight = mpc._tightening(sched, e_o, bench_spec.d_max)
        x_bar = np.concatenate([ref.x_bar.c, ref.x_bar.h])

        def cost(u_seq):
            c, h, _ = lstm.rollout(w, x_hat.c, x_hat.h, u_seq)
            dx = np.hstack([c[:n_horizon], h[:n_horizon]]) - x_bar
            ev = np.array([np.linalg.norm(c[-1] - ref.x_bar.c),
                           np.linalg.norm(h[-1] - ref.x_bar.h)])
            return float(np.sum(dx ** 2) + np.sum((u_seq - ref.u_bar) ** 2)
                         + ev @ term.P_f @ ev)

        def constraints(u_seq):
            c, h, _ = lstm.rollout(w, x_hat.c, x_hat.h, u_seq)
            return mpc._constraints(w, tight, term, ref, np.array([-1.0]),
                                    np.array([y_ub]), c, h)[0]

        u = sol.u_seq
        g = constraints(u)
        assert np.max(g) <= 1e-7
        # the targeted rows: the outputs of stages 1..N-1 or the terminal set
        rows = np.arange(2, len(g) - 1) if active == "output" else [len(g) - 1]
        assert np.max(g[rows]) >= -1e-7
        grad = _fd_jacobian(cost, u)[0]
        jac = _fd_jacobian(constraints, u)
        act = np.flatnonzero(g >= -1e-6)
        normals = [jac[i] for i in act]
        for j, u_j in enumerate(u.ravel()):      # active input bounds
            if abs(u_j) >= w.u_max - 1e-9:
                normals.append(np.sign(u_j) * np.eye(u.size)[j])
        lam, residual = nnls(np.array(normals).T, -grad)
        assert residual <= 1e-6
        assert np.max(lam[:len(act)][np.isin(act, rows)]) > 0.0

    def test_unreachable_terminal_set_raises(self, bench_w, bench_cert, bench_spec):
        # a terminal radius too small to reach in 5 steps from an
        # infeasible candidate: no plan, so the solve reports the loss
        sched, term, ref, x_hat, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 2, 5)
        _, hi = mpc.admissible_band(sched, -1.0, 1.0, bench_spec.d_max, e_o)
        y_ub = 1.0 - (hi[0] - 0.1) + 0.04
        mpc.terminal_alpha(sched, term, bench_w.W_y, [0.1], [-1.0], [y_ub],
                           bench_spec.d_max, e_o)
        with pytest.raises(FeasibilityLossError, match="candidate violation"):
            mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                            x_hat, e_o, ref, [-1.0], [y_ub])

    def test_warm_start_at_kkt_point_stays(self, bench_w, bench_cert, bench_spec):
        sched, term, ref, x_hat, e_o = feasible_instance(
            bench_w, bench_cert, bench_spec, 2, 10)
        sol = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                              x_hat, e_o, ref, [-1.0], [0.30])
        again = mpc.solve_fhocp(bench_w, bench_spec, sched, term,
                                x_hat, e_o, ref, [-1.0], [0.30], warm=sol.u_seq)
        np.testing.assert_allclose(again.u_seq, sol.u_seq, atol=1e-8)
        assert again.solver_iterations <= 2


class TestShiftedCandidate:
    def test_shift_and_append(self):
        prev = SimpleNamespace(u_seq=np.array([[0.1], [0.2], [0.3]]))
        cand = mpc.shifted_candidate(prev, np.array([0.9]))
        np.testing.assert_allclose(cand, [[0.2], [0.3], [0.9]])


class TestController:
    def test_tracks_equilibrium(self, bench_w, bench_cert, bench_spec):
        cfg = mpc.ControllerConfig(horizon=5, e_o0=0.05)
        ctrl = mpc.Controller(bench_w, bench_cert, bench_spec, cfg)
        y0 = 0.1
        ref = refcalc.solve_reference(bench_w, [y0], [0.0])
        chi = AugmentedState(ref.x_bar.copy(), np.zeros(1))
        u, sol, ref_out = ctrl.step(chi, np.array([y0]))
        np.testing.assert_allclose(u, ref.u_bar, atol=1e-6)
        assert sol.max_violation <= 1e-7
        # e_o proxy advanced by the affine recursion
        assert ctrl.e_o == pytest.approx(
            bench_spec.rho_o * cfg.e_o0 + bench_spec.w_bar)
