"""Unit tests for constraint tightening, terminal ingredients and the solver."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import nnls

from lstmpc import lstm, mpc, observer, refcalc
from lstmpc.errors import DimensionError, FeasibilityLossError, InfeasibleSetpointError
from lstmpc.observer import AugmentedState

from conftest import random_invariant_state, small_net


def fake_cert(rho_s=0.9, c_su=2.0, c_s=(1.5,)):
    return SimpleNamespace(rho_s=rho_s, c_su=c_su, c_s=np.asarray(c_s, dtype=float))


def fake_spec(rho_o=0.95, l_max=0.1, w_bar=0.01, c_o=(3.0,), d_max=0.1):
    return SimpleNamespace(rho_o=rho_o, L_max=l_max, w_bar=w_bar, d_max=d_max,
                           c_o=np.asarray(c_o, dtype=float))


def fake_certificate(spec, n_horizon):
    """A Certificate of the fake model and ``spec`` at ``n_horizon``."""
    cert = fake_cert()
    return mpc.Certificate(cert, spec, *mpc.build_schedule(cert, spec, n_horizon),
                           np.eye(2), 1.0)


class TestBuildSchedule:
    def test_decoupled_recursion(self):
        spec = fake_spec(rho_o=0.8, l_max=0.0, w_bar=0.0)
        for i, (a, b) in enumerate(zip(*mpc.build_schedule(fake_cert(), spec, 4))):
            np.testing.assert_allclose(a, 0.8 ** i * spec.c_o, atol=1e-15)
            np.testing.assert_allclose(b, 0.0, atol=1e-15)

    def test_zero_horizon(self):
        certificate = fake_certificate(fake_spec(), 0)
        assert certificate.horizon == 0
        np.testing.assert_array_equal(certificate.a, [[3.0]])
        np.testing.assert_array_equal(certificate.b, [[0.0]])

    def test_matches_independent_recursion(self, bench_cert, bench_spec, bench_certificate):
        a = bench_spec.c_o.copy()
        b = np.zeros_like(a)
        for i in range(6):
            np.testing.assert_allclose(bench_certificate.a[i], a, atol=1e-12)
            np.testing.assert_allclose(bench_certificate.b[i], b, atol=1e-12)
            a_next = bench_spec.rho_o * a + bench_cert.rho_s ** i \
                * bench_cert.c_su * bench_spec.L_max * bench_cert.c_s
            b_next = b + a * bench_spec.w_bar
            a, b = a_next, b_next

    def test_monotone_nonnegative(self, bench_certificate):
        for a in bench_certificate.a:
            assert np.all(a >= 0.0)
        for b0, b1 in zip(bench_certificate.b, bench_certificate.b[1:]):
            assert np.all(b1 >= b0)


class TestEoStep:
    def test_fixed_point(self):
        certificate = fake_certificate(fake_spec(rho_o=0.95, w_bar=0.01), 1)
        e_inf = 0.01 / (1.0 - 0.95)
        assert certificate.e_bar_inf == pytest.approx(e_inf)
        assert certificate.next_e_o(e_inf) == pytest.approx(e_inf)

    def test_monotone_decay_from_initial_estimate(self):
        certificate = fake_certificate(fake_spec(rho_o=0.95, w_bar=0.01), 1)
        e = 0.5
        e_inf = 0.01 / (1.0 - 0.95)
        prev = e
        for _ in range(300):
            e = certificate.next_e_o(e)
            assert e <= prev
            prev = e
        assert e == pytest.approx(e_inf, abs=1e-4)

    def test_geometric_decay_without_noise(self):
        certificate = fake_certificate(fake_spec(rho_o=0.9, w_bar=0.0), 1)
        e = 0.5
        for _ in range(10):
            e = certificate.next_e_o(e)
        assert e == pytest.approx(0.5 * 0.9 ** 10, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fake_certificate(fake_spec(rho_o=0.9, w_bar=0.0), 1).next_e_o(-0.1)


class TestComputePf:
    def test_zero_dynamics(self):
        np.testing.assert_allclose(mpc.compute_pf(np.zeros((2, 2)), 1.0),
                                   1.1 * np.eye(2), atol=1e-12)

    def test_strict_lyapunov_decrease(self, bench_cert):
        p_f = mpc.compute_pf(bench_cert.A_delta, 1.0)
        m = bench_cert.A_delta.T @ p_f @ bench_cert.A_delta - p_f + 1.0 * np.eye(2)
        assert np.max(np.linalg.eigvalsh(0.5 * (m + m.T))) < 0.0


class TestTerminalAlpha:
    def test_symmetric_setpoint(self, bench_w, bench_certificate):
        # centered set-point with symmetric bounds: both sides give the
        # same radius, so alpha equals either one
        assert bench_certificate.spec.d_max == 0.1
        alpha = bench_certificate.terminal_alpha(bench_w.W_y, [0.0], [-1.0], [1.0], 0.2)
        e_t = max(0.2, bench_certificate.e_bar_inf)
        margin = bench_certificate.a[5][0] * e_t + bench_certificate.b[5][0] + 0.2
        expect = np.sqrt(bench_certificate.lam_min) / np.linalg.norm(bench_w.W_y[0]) \
            * (1.0 - margin)
        assert alpha == pytest.approx(expect, abs=1e-12)
        assert bench_certificate.lam_min == np.linalg.eigvalsh(bench_certificate.P_f)[0]
        ctrl = mpc.Controller(bench_w, bench_certificate, mpc.ControllerConfig(e_o0=0.2))
        assert ctrl.problem_at(None, None, [0.0]).alpha == alpha

    def test_uses_e_bar_inf_floor(self, bench_w, bench_certificate):
        # an error proxy below its asymptotic bound e_bar_inf gives the
        # radius at e_bar_inf
        args = (bench_w.W_y, [0.0], [-1.0], [1.0])
        floor = bench_certificate.terminal_alpha(*args, bench_certificate.e_bar_inf)
        assert floor > 0.0
        assert bench_certificate.terminal_alpha(*args, 0.0) == floor

    def test_rejects_boundary_setpoint(self, bench_w, bench_certificate):
        lo, hi = bench_certificate.admissible_band(-1.0, 1.0, 0.2)
        with pytest.raises(InfeasibleSetpointError):
            bench_certificate.terminal_alpha(bench_w.W_y, [hi[0]], [-1.0], [1.0], 0.2)

    def test_two_output_band_edges(self):
        # both edges of each output's band are rejected by terminal_alpha,
        # while a set-point strictly inside gets a positive radius; at
        # output 0's edges the radius formula alone rounds to +1e-15
        w = small_net(seed=2, n=3, m=2, p=2)
        certificate = mpc.certify(w, observer.select_gains(w))
        y_lb, y_ub, e_o = np.array([-1.0, -0.8]), np.array([1.0, 0.6]), 0.2
        lo, hi = certificate.admissible_band(y_lb, y_ub, e_o)
        mid = 0.5 * (lo + hi)
        assert np.all(lo < mid) and np.all(mid < hi)
        assert certificate.terminal_alpha(w.W_y, mid, y_lb, y_ub, e_o) > 0.0
        for j in range(2):
            for edge in (lo, hi):
                y0 = mid.copy()
                y0[j] = edge[j]
                with pytest.raises(InfeasibleSetpointError, match=f"output {j}"):
                    certificate.terminal_alpha(w.W_y, y0, y_lb, y_ub, e_o)

    def test_band_trivial_case(self):
        certificate = fake_certificate(fake_spec(l_max=0.0, w_bar=0.0, c_o=(0.0,),
                                                 d_max=0.0), 3)
        lo, hi = certificate.admissible_band(-1.0, 1.0, 0.0)
        np.testing.assert_allclose(lo, [-1.0])
        np.testing.assert_allclose(hi, [1.0])


def feasible_instance(w, spec, seed, n_horizon, y0=0.1, y_ub=1.0):
    """A solvable instance near the equilibrium of y0 at e_o = e_bar_inf:
    (controller, its problem) for the observer ``spec`` and the output
    bounds [-1, y_ub]."""
    ctrl = mpc.Controller(w, mpc.certify(w, spec, n_horizon), mpc.ControllerConfig(y_ub=y_ub))
    ctrl.e_o = ctrl.certificate.e_bar_inf
    ref = refcalc.solve_reference(w, [y0], [0.0])
    rng = np.random.default_rng(seed)
    x_hat = lstm.LstmState(ref.x_bar.c + rng.uniform(-0.02, 0.02, w.n),
                           ref.x_bar.h + rng.uniform(-0.02, 0.02, w.n))
    return ctrl, ctrl.problem_at(x_hat, ref, [y0])


def with_y_ub(problem, y_ub):
    """The problem with a new upper output bound and the same terminal radius."""
    return dataclasses.replace(problem, y_ub=np.array([y_ub]))


def oracle_cost(problem, u_seq):
    """FHOCP cost written out apart from Problem.evaluate: weighted stage and
    input terms plus the terminal ev' P_f ev."""
    ref, n_h = problem.ref, len(u_seq)
    c, h, _ = lstm.rollout(problem.w, problem.x_hat.c, problem.x_hat.h, u_seq)
    dx = np.hstack([c[:n_h], h[:n_h]]) - np.concatenate([ref.x_bar.c, ref.x_bar.h])
    ev = np.array([np.linalg.norm(c[n_h] - ref.x_bar.c),
                   np.linalg.norm(h[n_h] - ref.x_bar.h)])
    return float(problem.q_weight * np.sum(dx ** 2)
                 + problem.r_weight * np.sum((u_seq - ref.u_bar) ** 2)
                 + ev @ problem.P_f @ ev)


class TestConstraints:
    @pytest.mark.parametrize("n_horizon", [1, 5, 10])
    def test_matches_per_stage_loop(self, n_horizon):
        # two outputs, so the per-stage upper/lower interleaving shows
        w = small_net(seed=2, n=3, m=2, p=2)
        a, b = mpc.build_schedule(fake_cert(c_s=(1.5, 0.7)),
                                  fake_spec(c_o=(3.0, 2.0)), n_horizon)
        p_f, alpha = np.array([[2.0, 0.3], [0.3, 1.0]]), 0.4
        rng = np.random.default_rng(n_horizon)
        ref = SimpleNamespace(x_bar=random_invariant_state(w, rng), u_bar=np.full(w.m, 0.1))
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_horizon, w.m))
        c, h, _ = lstm.rollout(w, x0.c, x0.h, u)
        y_lb, y_ub, e_o, d_max = np.array([-0.9, -1.0]), np.array([1.0, 0.8]), 0.2, 0.1
        expect, tight = [], []
        for i in range(n_horizon):
            y = w.W_y @ h[i] + w.b_y
            tight.append(a[i] * e_o + b[i] + d_max)
            expect += [y + tight[i] - y_ub, y_lb + tight[i] - y]
        ev = np.array([np.linalg.norm(c[-1] - ref.x_bar.c),
                       np.linalg.norm(h[-1] - ref.x_bar.h)])
        expect.append([ev @ p_f @ ev - alpha ** 2])
        problem = mpc.Problem(w, x0, ref, np.array(tight), y_lb, y_ub, p_f, alpha,
                              q_weight=2.0, r_weight=0.5)
        cost, g, aux = problem.evaluate(u)
        np.testing.assert_allclose(g, np.concatenate(expect), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(aux[3], ev)
        assert cost == pytest.approx(oracle_cost(problem, u), rel=1e-12)


class TestQpModel:
    """The SQP's linearization against central differences of the problem:
    this pins the (stage, c/h, column) layout of the sensitivities."""

    @pytest.mark.parametrize("net, n_horizon", [("bench", 5), ("small", 3)])
    def test_matches_central_differences(self, bench_w, net, n_horizon):
        w = bench_w if net == "bench" else small_net(seed=2, n=3, m=2, p=2)
        a, b = mpc.build_schedule(fake_cert(c_s=np.full(w.p, 1.5)),
                                  fake_spec(c_o=np.full(w.p, 3.0)), n_horizon)
        rng = np.random.default_rng(20 + n_horizon)
        ref = SimpleNamespace(x_bar=random_invariant_state(w, rng),
                              u_bar=rng.uniform(-0.5, 0.5, w.m))
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-0.9, 0.9, (n_horizon, w.m))
        tight = a[:n_horizon] * 0.2 + b[:n_horizon] + 0.1
        problem = mpc.Problem(w, x0, ref, tight, np.full(w.p, -1.0), np.full(w.p, 1.0),
                              np.array([[2.0, 0.3], [0.3, 1.0]]), 0.4,
                              q_weight=2.0, r_weight=0.5)
        _, g, aux = problem.evaluate(u)
        grad, _, a_mat, b_vec = problem.qp_model(u, g, aux, 0.0)
        n_g = len(g) - 2 * w.p        # the rows of stages 1..N-1 and the terminal row
        assert a_mat.shape == (n_g + 2 * u.size, u.size)
        np.testing.assert_array_equal(b_vec[:n_g], -g[2 * w.p:])
        fd_grad = _fd_jacobian(lambda v: oracle_cost(problem, v), u)[0]
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-8)
        fd_g = _fd_jacobian(lambda v: problem.evaluate(v)[1], u)
        np.testing.assert_allclose(a_mat[:n_g], fd_g[2 * w.p:], rtol=1e-6, atol=1e-8)


class TestSolveFhocp:
    def test_equilibrium_is_optimal(self, bench_w, bench_spec):
        _, problem = feasible_instance(bench_w, bench_spec, 0, 5)
        ref = problem.ref
        sol = mpc.solve_fhocp(dataclasses.replace(problem, x_hat=ref.x_bar))
        np.testing.assert_allclose(sol.u_seq, np.tile(ref.u_bar, (5, 1)), atol=1e-7)
        assert sol.cost < 1e-12
        assert sol.max_violation <= 1e-7

    def test_matches_grid_oracle(self, bench_w, bench_spec):
        _, problem = feasible_instance(bench_w, bench_spec, 1, 2)
        sol = mpc.solve_fhocp(problem)
        assert sol.max_violation <= 1e-7
        grid = np.linspace(-1.0, 1.0, 201)
        assert bench_w.u_max == 1.0       # every grid plan is inside the input box
        best = np.inf
        for u0 in grid:
            for u1 in grid:
                u_seq = np.array([[u0], [u1]])
                if problem.evaluate(u_seq)[1].max() > 0.0:
                    continue
                best = min(best, oracle_cost(problem, u_seq))
        assert sol.cost <= best + 1e-3

    def test_warm_start_at_optimum_returns_quickly(self, bench_w, bench_spec):
        _, problem = feasible_instance(bench_w, bench_spec, 2, 5)
        sol = mpc.solve_fhocp(problem)
        again = mpc.solve_fhocp(problem, warm=sol.u_seq)
        assert again.cost <= sol.cost + 1e-9
        assert again.solver_iterations <= sol.solver_iterations

    def test_never_worse_than_candidate(self, bench_w, bench_spec):
        _, problem = feasible_instance(bench_w, bench_spec, 3, 5)
        warm = np.tile(problem.ref.u_bar, (5, 1)) + 0.05
        assert np.max(np.abs(warm)) <= bench_w.u_max   # the solve keeps it as is
        cand_violation = problem.evaluate(warm)[1].max()
        sol = mpc.solve_fhocp(problem, warm=warm)
        assert sol.candidate_violation == pytest.approx(cand_violation, abs=1e-12)
        if cand_violation <= 1e-7:
            assert sol.cost <= oracle_cost(problem, warm) + 1e-9

    def test_solution_shapes(self, bench_w, bench_spec):
        _, problem = feasible_instance(bench_w, bench_spec, 4, 5)
        sol = mpc.solve_fhocp(problem)
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


def full_dual_qp(hess, grad, a_mat, b_vec):
    """``mpc._dense_qp`` without its early exit: the Lawson-Hanson dual
    iteration from lam = 0 on every QP."""
    sol = np.linalg.solve(hess, np.column_stack([grad, a_mat.T]))
    d0, h_at = -sol[:, 0], sol[:, 1:]
    m_mat = a_mat @ h_at
    q = b_vec - a_mat @ d0
    tol = 1e-12 * max(1.0, float(np.max(np.abs(q))))
    lam = np.zeros(len(q))
    free = np.zeros(len(q), dtype=bool)
    for _ in range(3 * len(q) + 10):
        slack = m_mat @ lam + q
        j = int(np.argmin(np.where(free, np.inf, slack)))
        if free[j] or slack[j] >= -tol:
            return d0 - h_at @ lam, lam
        free[j] = True
        while True:
            idx = np.flatnonzero(free)
            z = np.zeros_like(lam)
            try:
                z[idx] = np.linalg.solve(m_mat[np.ix_(idx, idx)], -q[idx])
            except np.linalg.LinAlgError:
                return None
            if np.all(z[idx] > 0.0):
                lam = z
                break
            neg = idx[z[idx] <= 0.0]
            t = float(np.min(lam[neg] / (lam[neg] - z[neg])))
            lam = lam + t * (z - lam)
            free &= lam > 0.0
            lam[~free] = 0.0
    return None


def seeded_qp(seed, feasible_minimizer):
    """A strictly convex QP; its unconstrained minimizer satisfies every
    row, or ``grad`` pushes it out of the set, which contains d = 0."""
    rng = np.random.default_rng(seed)
    n_v, n_c = 4 + seed, 3 + 2 * seed
    b_mat = rng.normal(size=(n_v, n_v))
    hess = b_mat @ b_mat.T + 0.5 * np.eye(n_v)
    grad = 5.0 * rng.normal(size=n_v)
    a_mat = rng.normal(size=(n_c, n_v))
    b_vec = rng.uniform(0.1, 1.0, n_c)
    if feasible_minimizer:
        b_vec += a_mat @ np.linalg.solve(hess, -grad)
    return hess, grad, a_mat, b_vec


class TestDenseQp:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_minimizer_equals_full_dual_path(self, seed):
        qp = seeded_qp(seed, feasible_minimizer=True)
        d, lam = mpc._dense_qp(*qp)
        d_ref, lam_ref = full_dual_qp(*qp)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(lam, lam_ref)
        assert not lam.any()

    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_conditions(self, seed):
        hess, grad, a_mat, b_vec = seeded_qp(seed, feasible_minimizer=False)
        d, lam = mpc._dense_qp(hess, grad, a_mat, b_vec)
        d_ref, lam_ref = full_dual_qp(hess, grad, a_mat, b_vec)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(lam, lam_ref)
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
    def test_active_constraint_kkt(self, bench_w, bench_spec, n_horizon, active):
        w, y0 = bench_w, 0.1
        ctrl, problem = feasible_instance(w, bench_spec, 2, n_horizon, y0=y0)
        if active == "output":
            # below the unconstrained plan's tightened stage-1 output
            problem = with_y_ub(problem, 0.30)
        else:
            # shrink the terminal radius through the set-point margin
            _, hi = ctrl.certificate.admissible_band(-1.0, 1.0, ctrl.e_o)
            y_ub = 1.0 - (hi[0] - y0) + {5: 0.075, 10: 0.03}[n_horizon]
            _, problem = feasible_instance(w, bench_spec, 2, n_horizon,
                                           y0=y0, y_ub=y_ub)
        sol = mpc.solve_fhocp(problem)
        assert sol.status == "optimal"
        u = sol.u_seq
        g = problem.evaluate(u)[1]
        assert np.max(g) <= 1e-7
        # the targeted rows: the outputs of stages 1..N-1 or the terminal set
        rows = np.arange(2, len(g) - 1) if active == "output" else [len(g) - 1]
        assert np.max(g[rows]) >= -1e-7
        grad = _fd_jacobian(lambda v: oracle_cost(problem, v), u)[0]
        jac = _fd_jacobian(lambda v: problem.evaluate(v)[1], u)
        act = np.flatnonzero(g >= -1e-6)
        normals = [jac[i] for i in act]
        for j, u_j in enumerate(u.ravel()):      # active input bounds
            if abs(u_j) >= w.u_max - 1e-9:
                normals.append(np.sign(u_j) * np.eye(u.size)[j])
        lam, residual = nnls(np.array(normals).T, -grad)
        assert residual <= 1e-6
        assert np.max(lam[:len(act)][np.isin(act, rows)]) > 0.0

    def test_unreachable_terminal_set_raises(self, bench_w, bench_spec):
        # a terminal radius too small to reach in 5 steps from an
        # infeasible candidate: no plan, so the solve reports the loss
        ctrl, _ = feasible_instance(bench_w, bench_spec, 2, 5)
        _, hi = ctrl.certificate.admissible_band(-1.0, 1.0, ctrl.e_o)
        y_ub = 1.0 - (hi[0] - 0.1) + 0.04
        _, problem = feasible_instance(bench_w, bench_spec, 2, 5, y_ub=y_ub)
        with pytest.raises(FeasibilityLossError, match="candidate violation"):
            mpc.solve_fhocp(problem)

    def test_warm_start_at_kkt_point_stays(self, bench_w, bench_spec):
        problem = with_y_ub(feasible_instance(bench_w, bench_spec, 2, 10)[1],
                            0.30)
        sol = mpc.solve_fhocp(problem)
        again = mpc.solve_fhocp(problem, warm=sol.u_seq)
        np.testing.assert_allclose(again.u_seq, sol.u_seq, atol=1e-8)
        assert again.solver_iterations <= 2


class TestStatus:
    """A converged-mode plan is "optimal" only when the step test passed."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_iteration_cap_is_stalled(self, bench_w, bench_spec, seed):
        # an active output bound: the SQP converges only linearly here
        problem = with_y_ub(feasible_instance(bench_w, bench_spec, seed, 10)[1],
                            0.30)
        sol = mpc.solve_fhocp(problem)
        assert sol.solver_iterations == mpc._SQP_MAX_ITER
        assert sol.status == "stalled"
        assert sol.max_violation <= 1e-7

    def test_failed_line_search_is_stalled(self, bench_w, bench_spec, monkeypatch):
        problem = with_y_ub(feasible_instance(bench_w, bench_spec, 2, 10)[1],
                            0.30)
        assert mpc.solve_fhocp(problem).status == "optimal"
        # two step halvings are too few on this instance after a few iterations
        monkeypatch.setattr(mpc, "_LINE_SEARCH_MAX", 2)
        sol = mpc.solve_fhocp(problem)
        assert 1 < sol.solver_iterations < mpc._SQP_MAX_ITER
        assert sol.status == "stalled"


class TestRealTimeIteration:
    """solve_fhocp(real_time=True) stops at its first feasible iterate; warm
    started again and again at a frozen state it reaches the converged plan."""

    @pytest.mark.parametrize("n_horizon, y_ub", [(5, 1.0), (10, 1.0), (10, 0.30)])
    def test_warm_started_calls_reach_converged_plan(self, bench_w, bench_spec,
                                                     n_horizon, y_ub):
        problem = with_y_ub(
            feasible_instance(bench_w, bench_spec, 2, n_horizon)[1], y_ub)
        converged = mpc.solve_fhocp(problem)
        assert converged.status == "optimal"
        warm = None
        for _ in range(30):
            sol = mpc.solve_fhocp(problem, warm=warm, real_time=True)
            assert sol.max_violation <= 1e-7
            if np.max(np.abs(sol.u_seq - converged.u_seq)) <= 1e-8:
                break
            warm = sol.u_seq
        else:
            pytest.fail("30 real-time calls did not reach the converged plan")

    def test_infeasible_start_iterates_to_first_feasible_iterate(
            self, bench_w, bench_spec, monkeypatch):
        # at y_ub = 0.30 the constant u_bar plan violates the output bound
        problem = with_y_ub(feasible_instance(bench_w, bench_spec, 2, 10)[1],
                            0.30)
        sol = mpc.solve_fhocp(problem, real_time=True)
        assert sol.candidate_violation > 0.1
        assert sol.status == "iterate"
        assert sol.max_violation <= 1e-7
        assert 1 < sol.solver_iterations < mpc.solve_fhocp(problem).solver_iterations
        # one iteration fewer leaves no feasible iterate and no feasible fallback
        monkeypatch.setattr(mpc, "_SQP_MAX_ITER", sol.solver_iterations - 1)
        with pytest.raises(FeasibilityLossError):
            mpc.solve_fhocp(problem, real_time=True)


class TestShiftedCandidate:
    def test_shift_and_append(self):
        prev = SimpleNamespace(u_seq=np.array([[0.1], [0.2], [0.3]]))
        cand = mpc.shifted_candidate(prev, np.array([0.9]))
        np.testing.assert_allclose(cand, [[0.2], [0.3], [0.9]])


class TestCertify:
    """certify builds the chain of constants that was put together by hand:
    model certificate, observer constants, margins and P_f."""

    def test_matches_hand_built_chain(self, bench):
        w, obs_doc = bench
        certificate = mpc.certify(w, obs_doc, 7, q_weight=2.5)
        cert = lstm.incremental_lyapunov(w)
        spec = observer.ObserverSpec.from_dict(obs_doc)
        spec = observer.derive_constants(w, spec, w_bar=spec.w_bar)
        a, b = mpc.build_schedule(cert, spec, 7)
        for name in ("P_s", "c_s", "A_delta"):
            np.testing.assert_array_equal(getattr(certificate.model, name), getattr(cert, name))
        for name in ("A_d", "P_o", "c_o", "L_mat"):
            np.testing.assert_array_equal(getattr(certificate.spec, name), getattr(spec, name))
        for name in ("rho_o", "L_max", "w_bar", "d_max"):
            assert getattr(certificate.spec, name) == getattr(spec, name)
        np.testing.assert_array_equal(certificate.a, a)
        np.testing.assert_array_equal(certificate.b, b)
        np.testing.assert_array_equal(certificate.P_f, mpc.compute_pf(cert.A_delta, 2.5))
        assert certificate.horizon == 7
        assert (certificate.q_weight, certificate.k_bar) == (2.5, None)

    def test_spec_and_section_agree_without_writing_to_the_spec(self, bench):
        w, obs_doc = bench
        spec = observer.ObserverSpec.from_dict(obs_doc)
        from_spec = mpc.certify(w, spec)
        assert spec.A_d is None and spec.P_o is None     # the caller's spec is left as is
        assert from_spec.spec is not spec
        assert from_spec.to_dict() == mpc.certify(w, obs_doc).to_dict()

    @pytest.mark.parametrize("gains", [None, {}])
    def test_without_gains_selects_them(self, bench_w, gains):
        certificate = mpc.certify(bench_w, gains, d_max=0.08, l_d=0.3, w_bar=0.005)
        spec = observer.select_gains(bench_w, d_max=0.08, l_d=0.3, w_bar=0.005)
        assert certificate.spec.to_dict() == spec.to_dict()
        np.testing.assert_array_equal(certificate.spec.P_o, spec.P_o)

    def test_without_gains_derives_once(self, bench_w, monkeypatch):
        calls = []
        derive = observer.derive_constants

        def counted(*args, **kwargs):
            calls.append(1)
            return derive(*args, **kwargs)

        monkeypatch.setattr(observer, "derive_constants", counted)
        mpc.certify(bench_w)
        assert len(calls) == 1

    def test_record_is_frozen(self, bench_certificate):
        # the certificate and the model and observer records it holds
        for record, names in ((bench_certificate, ("q_weight", "a", "lam_min")),
                              (bench_certificate.spec, ("rho_o", "w_bar", "L_d")),
                              (bench_certificate.model, ("rho_s", "P_s"))):
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 0.5)

    def test_arrays_are_read_only(self, bench_certificate):
        # an in-place write would move the tightening or the observer metric
        records = (bench_certificate, bench_certificate.spec, bench_certificate.model)
        for record in records:
            arrays = [f.name for f in dataclasses.fields(record)
                      if isinstance(getattr(record, f.name), np.ndarray)]
            assert arrays
            for name in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(record, name).flat[0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            bench_certificate.b[5] = -1.0

    @pytest.mark.parametrize("w_bar", [-0.01, np.nan])
    def test_rejects_negative_or_nan_w_bar(self, bench, w_bar):
        w, obs_doc = bench
        with pytest.raises(ValueError, match="w_bar"):
            mpc.certify(w, {**obs_doc, "w_bar": w_bar})
        with pytest.raises(ValueError, match="w_bar"):
            mpc.certify(w, w_bar=w_bar)

    def test_controller_reads_horizon_and_q_weight(self, bench_w, bench_spec):
        certificate = mpc.certify(bench_w, bench_spec, 7, q_weight=2.5)
        ctrl = mpc.Controller(bench_w, certificate, mpc.ControllerConfig(e_o0=0.05))
        problem = ctrl.problem_at(None, None, [0.1])
        assert problem.tight.shape == (7, 1)
        assert problem.q_weight == 2.5
        assert problem.P_f is certificate.P_f


class TestController:
    def test_problem_at_current_e_o(self, bench_w, bench_spec):
        ctrl, problem = feasible_instance(bench_w, bench_spec, 2, 5)
        certificate, e_o = ctrl.certificate, ctrl.e_o
        for i in range(5):
            np.testing.assert_array_equal(
                problem.tight[i], certificate.a[i] * e_o + certificate.b[i] + bench_spec.d_max)
        assert problem.tight.shape == (5, 1)
        assert problem.alpha == certificate.terminal_alpha(bench_w.W_y, [0.1],
                                                           [-1.0], [1.0], e_o)
        np.testing.assert_array_equal(problem.y_lb, [-1.0])
        np.testing.assert_array_equal(problem.y_ub, [1.0])
        assert problem.P_f is certificate.P_f
        assert problem.q_weight == ctrl.certificate.q_weight

    @pytest.mark.parametrize("y_lb, y_ub", [(0.5, -0.5), (0.2, 0.2), (np.nan, 1.0)])
    def test_rejects_bounds_not_ordered(self, bench_w, bench_certificate, y_lb, y_ub):
        cfg = mpc.ControllerConfig(y_lb=y_lb, y_ub=y_ub)
        with pytest.raises(ValueError, match="not below y_ub on output 0"):
            mpc.Controller(bench_w, bench_certificate, cfg)

    def test_rejects_bounds_of_wrong_shape(self, bench_w, bench_certificate):
        cfg = mpc.ControllerConfig(y_ub=np.array([0.8, 0.9, 1.0]))
        with pytest.raises(DimensionError, match=r"y_ub has shape \(3,\)"):
            mpc.Controller(bench_w, bench_certificate, cfg)

    def test_tracks_equilibrium(self, bench_w, bench_certificate, bench_spec):
        cfg = mpc.ControllerConfig(e_o0=0.05)
        ctrl = mpc.Controller(bench_w, bench_certificate, cfg)
        y0 = 0.1
        ref = refcalc.solve_reference(bench_w, [y0], [0.0])
        chi = AugmentedState(ref.x_bar.copy(), np.zeros(1))
        u, sol, ref_out = ctrl.step(chi, np.array([y0]))
        np.testing.assert_allclose(u, ref.u_bar, atol=1e-6)
        assert sol.max_violation <= 1e-7
        # e_o proxy advanced by the affine recursion
        assert ctrl.e_o == pytest.approx(
            bench_spec.rho_o * cfg.e_o0 + bench_spec.w_bar)

    def test_feasible_candidate_takes_one_iteration(self, bench_w, bench_certificate,
                                                    bench_spec):
        ctrl = mpc.Controller(bench_w, bench_certificate, mpc.ControllerConfig(e_o0=0.05))
        x_hat = feasible_instance(bench_w, bench_spec, 2, 5)[1].x_hat
        chi = AugmentedState(x_hat, np.zeros(1))
        for _ in range(3):
            u, sol, _ = ctrl.step(chi, np.array([0.1]))
            assert sol.candidate_violation <= 1e-7
            assert (sol.status, sol.solver_iterations) == ("iterate", 1)
            chi = AugmentedState(lstm.step(bench_w, chi.x, u), chi.d)

    def test_two_output_model_with_scalar_bounds(self):
        # ControllerConfig's default scalar y_lb/y_ub hold for every output;
        # the set-point is the output of the model's u = 0 attractor
        w = small_net(seed=2, n=3, m=2, p=2)
        certificate = mpc.certify(w, observer.select_gains(w))
        ctrl = mpc.Controller(w, certificate, mpc.ControllerConfig(e_o0=0.05))
        _, h, _ = lstm.rollout(w, np.zeros(3), np.zeros(3), np.zeros((300, 2)))
        y0 = w.W_y @ h[-1] + w.b_y
        ref = refcalc.solve_reference(w, y0, np.zeros(2))
        u, sol, _ = ctrl.step(AugmentedState(ref.x_bar.copy(), np.zeros(2)), y0)
        np.testing.assert_allclose(u, ref.u_bar, atol=1e-6)
        assert sol.max_violation <= 1e-7
        np.testing.assert_array_equal(ctrl.problem.y_ub, [1.0, 1.0])
        alpha = certificate.terminal_alpha(w.W_y, y0, [-1.0, -1.0], [1.0, 1.0], 0.05)
        assert alpha > 0.0
