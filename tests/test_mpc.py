"""Unit tests for constraint tightening, terminal ingredients and the solver."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import nnls

from lstmpc import lstm, mpc, numerics, observer, refcalc
from lstmpc.errors import (DimensionError, FeasibilityLossError, InfeasibleSetpointError,
                           InstabilityError)
from lstmpc.observer import AugmentedState

from conftest import gate, random_invariant_state, small_net, with_arrays


def fake_cert(rho_s=0.9, c_su=2.0, c_s=(1.5,), a_delta=((0.0, 0.0), (0.0, 0.0))):
    return SimpleNamespace(rho_s=rho_s, c_su=c_su, c_s=np.asarray(c_s, dtype=float),
                           A_delta=np.asarray(a_delta, dtype=float))


def fake_spec(rho_o=0.95, l_max=0.1, w_bar=0.01, c_o=(3.0,), d_max=0.1):
    return SimpleNamespace(rho_o=rho_o, L_max=l_max, w_bar=w_bar, d_max=d_max,
                           c_o=np.asarray(c_o, dtype=float))


def fake_certificate(spec, n_horizon, cert=None):
    """The Certificate formed from the fake model (or ``cert``) and ``spec`` at
    ``n_horizon`` and q_weight 1."""
    return mpc.Certificate(cert or fake_cert(), spec, n_horizon, 1.0)


class TestBuildSchedule:
    def test_decoupled_recursion(self):
        spec = fake_spec(rho_o=0.8, l_max=0.0, w_bar=0.0)
        certificate = fake_certificate(spec, 4)
        assert certificate.a.shape == certificate.b.shape == (5, 1)
        for i, (a, b) in enumerate(zip(certificate.a, certificate.b)):
            np.testing.assert_allclose(a, 0.8 ** i * spec.c_o, atol=1e-15)
            np.testing.assert_allclose(b, 0.0, atol=1e-15)

    def test_zero_horizon(self):
        # stage 0's margins are c_o and 0; the record itself rejects a horizon below 1
        certificate = fake_certificate(fake_spec(), 1)
        assert certificate.horizon == 1
        np.testing.assert_array_equal(certificate.a[0], [3.0])
        np.testing.assert_array_equal(certificate.b[0], [0.0])
        with pytest.raises(ValueError, match="^horizon must be a positive integer, got 0"):
            fake_certificate(fake_spec(), 0)

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
        certificate = fake_certificate(fake_spec(), 1)
        np.testing.assert_allclose(certificate.P_f, 1.1 * np.eye(2), atol=1e-12)
        assert certificate.lam_min == pytest.approx(1.1, abs=1e-12)

    def test_strict_lyapunov_decrease(self, bench_cert, bench_spec):
        # the terminal matrix is formed from the model certificate's A_delta
        p_f = fake_certificate(bench_spec, 1, cert=bench_cert).P_f
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
        ctrl = mpc.Controller(bench_w, bench_certificate, e_o0=0.2)
        assert ctrl.problem_at(None, None, [0.0]).alpha == alpha

    def test_uses_e_bar_inf_floor(self, bench_w, bench_certificate):
        # an error proxy below its asymptotic bound e_bar_inf gives the
        # radius at e_bar_inf
        args = (bench_w.W_y, [0.0], [-1.0], [1.0])
        floor = bench_certificate.terminal_alpha(*args, bench_certificate.e_bar_inf)
        assert floor > 0.0
        assert bench_certificate.terminal_alpha(*args, 0.0) == floor

    def test_rejects_boundary_setpoint(self, bench_w, bench_certificate):
        # a NaN set-point fails the band tests too, not slipping through to alpha = inf
        lo, hi = bench_certificate.admissible_band(-1.0, 1.0, 0.2)
        for y0 in (hi[0], np.nan):
            with pytest.raises(InfeasibleSetpointError, match="output 0"):
                bench_certificate.terminal_alpha(bench_w.W_y, [y0], [-1.0], [1.0], 0.2)

    def test_two_output_band_edges(self):
        # both edges of each output's band and a NaN are rejected by
        # terminal_alpha, while a set-point strictly inside gets a positive
        # radius; at output 0's edges the radius formula alone rounds to +1e-15
        w = small_net(seed=2, n=3, m=2, p=2)
        certificate = mpc.certify(w, observer.select_gains(w, w_bar=0.0))
        y_lb, y_ub, e_o = np.array([-1.0, -0.8]), np.array([1.0, 0.6]), 0.2
        lo, hi = certificate.admissible_band(y_lb, y_ub, e_o)
        mid = 0.5 * (lo + hi)
        assert np.all(lo < mid) and np.all(mid < hi)
        assert certificate.terminal_alpha(w.W_y, mid, y_lb, y_ub, e_o) > 0.0
        for j in range(2):
            for edge in (lo, hi, [np.nan] * 2):
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
    ctrl = mpc.Controller(w, mpc.certify(w, spec, n_horizon), y_ub=y_ub)
    ctrl.e_o = ctrl.certificate.e_bar_inf
    ref = refcalc.solve_reference(w, [y0], [0.0], lstm.Workspace(w.n, w.m, 1))
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
        certificate = fake_certificate(fake_spec(c_o=(3.0, 2.0)), n_horizon,
                                       cert=fake_cert(c_s=(1.5, 0.7)))
        a, b = certificate.a, certificate.b
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
                              q_weight=2.0, r_weight=0.5,
                              workspace=mpc.FhocpWorkspace(w, n_horizon))
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
        certificate = fake_certificate(fake_spec(c_o=np.full(w.p, 3.0)), n_horizon,
                                       cert=fake_cert(c_s=np.full(w.p, 1.5)))
        a, b = certificate.a, certificate.b
        rng = np.random.default_rng(20 + n_horizon)
        ref = SimpleNamespace(x_bar=random_invariant_state(w, rng),
                              u_bar=rng.uniform(-0.5, 0.5, w.m))
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-0.9, 0.9, (n_horizon, w.m))
        tight = a[:n_horizon] * 0.2 + b[:n_horizon] + 0.1
        problem = mpc.Problem(w, x0, ref, tight, np.full(w.p, -1.0), np.full(w.p, 1.0),
                              np.array([[2.0, 0.3], [0.3, 1.0]]), 0.4,
                              q_weight=2.0, r_weight=0.5,
                              workspace=mpc.FhocpWorkspace(w, n_horizon))
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


def seeded_qp(seed, feasible_minimizer, shape=None):
    """A strictly convex QP of ``shape`` (variables, rows), else 4 + seed by
    3 + 2 seed; its unconstrained minimizer satisfies every row, or ``grad``
    pushes it out of the set, which contains d = 0."""
    rng = np.random.default_rng(seed)
    n_v, n_c = shape or (4 + seed, 3 + 2 * seed)
    b_mat = rng.normal(size=(n_v, n_v))
    hess = b_mat @ b_mat.T + 0.5 * np.eye(n_v)
    grad = 5.0 * rng.normal(size=n_v)
    a_mat = rng.normal(size=(n_c, n_v))
    b_vec = rng.uniform(0.1, 1.0, n_c)
    if feasible_minimizer:
        b_vec += a_mat @ np.linalg.solve(hess, -grad)
    return hess, grad, a_mat, b_vec


# The seeded shapes, then the FHOCP's at N = 5 and N = 10 on the bench model:
# N inputs by 2(N-1) output rows, the terminal row and 2N input-box rows.
QP_CASES = pytest.mark.parametrize(
    "seed, shape", [*((seed, None) for seed in range(6)), (6, (5, 19)), (7, (10, 39))],
    ids=[*map(str, range(6)), "5x19", "10x39"])


class TestDenseQp:
    # Bit for bit against the dual path. _dense_qp's early exit solves
    # H [grad | 0] for d0: LAPACK's one-column solve rounds differently from
    # its solve of [grad | A'] (on 2,000 seeded 5x5 and 2,000 10x10 systems,
    # 3,865 one-column solves differed from that first column and no
    # two-column one did), which these exact tests would catch.
    @QP_CASES
    def test_feasible_minimizer_equals_full_dual_path(self, seed, shape):
        qp = seeded_qp(seed, feasible_minimizer=True, shape=shape)
        d, lam = mpc._dense_qp(*qp)
        d_ref, lam_ref = full_dual_qp(*qp)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(lam, lam_ref)
        assert not lam.any()

    @QP_CASES
    def test_kkt_conditions(self, seed, shape):
        hess, grad, a_mat, b_vec = seeded_qp(seed, feasible_minimizer=False, shape=shape)
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

    def test_non_finite_subproblem_returns_none(self):
        # an infinite Hessian solves to NaN: the dual iteration reports a
        # breakdown instead of reaching an empty ratio test
        a_mat = np.vstack((np.eye(3), -np.eye(3)))
        assert mpc._dense_qp(np.full((3, 3), np.inf), np.ones(3), a_mat, -np.ones(6)) is None

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
        spec = observer.derive_constants(w, spec)
        hand = mpc.Certificate(cert, spec, 7, 2.5)
        for name in ("P_s", "c_s", "A_delta"):
            np.testing.assert_array_equal(getattr(certificate.model, name), getattr(cert, name))
        for name in ("A_d", "P_o", "c_o", "L_mat"):
            np.testing.assert_array_equal(getattr(certificate.spec, name), getattr(spec, name))
        for name in ("rho_o", "L_max", "w_bar", "d_max"):
            assert getattr(certificate.spec, name) == getattr(spec, name)
        for name in ("a", "b", "P_f"):
            np.testing.assert_array_equal(getattr(certificate, name), getattr(hand, name))
        np.testing.assert_array_equal(
            certificate.P_f, numerics.solve_discrete_lyapunov(cert.A_delta, 1.1 * 2.5 * np.eye(2)))
        assert certificate.a.shape == (8, 1) and certificate.horizon == 7
        assert (certificate.q_weight, certificate.k_bar) == (2.5, None)

    def test_spec_and_section_agree_without_writing_to_the_spec(self, bench):
        w, obs_doc = bench
        spec = observer.ObserverSpec.from_dict(obs_doc)
        from_spec = mpc.certify(w, spec)
        # the caller's spec is left as is: gains only, no derived constant
        assert type(spec) is observer.ObserverSpec and not hasattr(spec, "P_o")
        assert type(from_spec.spec) is observer.ObserverCertificate
        assert from_spec.to_dict() == mpc.certify(w, obs_doc).to_dict()

    # only None means no gains: an empty section is missing every required key
    @pytest.mark.parametrize("gains", [None, {}])
    def test_without_gains_selects_them(self, bench, gains):
        # the default gains are select_gains', which are the shipped section's
        w, obs_doc = bench
        if gains is not None:
            with pytest.raises(ValueError, match=r"^missing observer fields must be empty, "
                               r"got \['L_d', 'L_f', 'L_i', 'L_o', 'd_max'\]"):
                mpc.certify(w, gains)
            return
        certificate = mpc.certify(w, gains)
        spec = observer.derive_constants(w, observer.select_gains(w))
        assert certificate.spec.to_dict() == spec.to_dict()
        np.testing.assert_array_equal(certificate.spec.P_o, spec.P_o)
        assert (certificate.to_dict() == mpc.certify(w, observer.select_gains(w)).to_dict()
                == mpc.certify(w, obs_doc).to_dict())

    def test_without_gains_derives_once(self, bench_w, monkeypatch):
        calls = []
        derive = observer.derive_constants

        def counted(*args, **kwargs):
            calls.append(1)
            return derive(*args, **kwargs)

        monkeypatch.setattr(observer, "derive_constants", counted)
        mpc.certify(bench_w)
        assert len(calls) == 1

    # no section (the default gains), the weights' own, and one without w_bar,
    # which certifies no increment and forms no other bound
    @pytest.mark.parametrize("with_section", [False, True, "without-w_bar"])
    def test_builds_the_model_certificate_once(self, bench, monkeypatch, with_section):
        calls = {"incremental_lyapunov": 0, "gate_bounds": 0}
        for name in calls:
            def counted(*args, _name=name, _func=getattr(lstm, name), **kwargs):
                calls[_name] += 1
                return _func(*args, **kwargs)
            monkeypatch.setattr(lstm, name, counted)
        w, obs_doc = bench
        gains = {False: None, True: obs_doc,
                 "without-w_bar": {k: v for k, v in obs_doc.items() if k != "w_bar"}}[with_section]
        assert mpc.certify(w, gains).spec.w_bar == (0.0 if with_section == "without-w_bar"
                                                    else 0.01)
        assert calls == {"incremental_lyapunov": 1, "gate_bounds": 1}

    @pytest.mark.parametrize("horizon", [0, -3, True, 5.0, None])
    def test_rejects_horizon_that_is_not_a_positive_int(self, bench, horizon):
        with pytest.raises(ValueError, match="^horizon must be a positive integer"):
            mpc.certify(*bench, horizon)

    def test_record_is_frozen(self, bench, bench_certificate):
        # the certificate and the model and observer records it holds
        for record, names in ((bench_certificate, ("q_weight", "a", "lam_min")),
                              (bench_certificate.spec, ("rho_o", "w_bar", "L_d")),
                              (bench_certificate.model, ("rho_s", "P_s"))):
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 0.5)
        # each record is formed whole from its inputs: no derived constant can be
        # passed to its constructor or swapped in by replace, which would keep the
        # other constants formed from the old value
        w = bench[0]
        cert, spec = bench_certificate.model, bench_certificate.spec
        gains = {name: getattr(spec, name) for name in ("L_f", "L_i", "L_o", "L_d", "d_max")}
        for record, inputs, build, derived in (
                (cert, {"w": w}, lambda **kw: lstm.StabilityCertificate(w, **kw),
                 {"A_delta", "B_delta", "rho_A", "r1", "r2", "P_s", "rho_s", "c_sl", "c_su",
                  "c_s"}),
                (spec, {"w": w}, lambda **kw: observer.ObserverCertificate(**gains, w=w, **kw),
                 {"A_d", "P_o", "rho_o", "c_ol", "c_ou", "c_o", "L_mat", "L_max",
                  "cell_radius_hat", "w_max", "injection"}),
                (bench_certificate, {}, lambda **kw: mpc.Certificate(cert, spec, 5, 1.0, **kw),
                 {"a", "b", "P_f", "lam_min"})):
            assert {f.name for f in dataclasses.fields(record) if not f.init} == derived
            for name in derived:
                with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                    dataclasses.replace(record, **inputs, **{name: getattr(record, name)})
                with pytest.raises(TypeError, match=name):
                    build(**{name: getattr(record, name)})
        # a gain swapped into a derived spec without the model would leave rho_o stale
        with pytest.raises(ValueError, match="InitVar 'w'"):
            dataclasses.replace(spec, L_d=0.5 * np.eye(w.p))
        net = small_net(seed=1, n=3)
        with pytest.raises(InstabilityError, match="model not certified"):
            lstm.StabilityCertificate(with_arrays(net, b_f=30.0, U_o=200.0 * gate(net, "U_o")))

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
            mpc.certify(w, observer.select_gains(w, w_bar=w_bar))

    # finite, but e_bar_inf = w_bar / (1 - rho_o) is not; at 1e308 the margins b neither
    @pytest.mark.parametrize("w_bar", [1e308, 6e306])
    def test_rejects_w_bar_whose_bound_overflows(self, bench, w_bar):
        w, obs_doc = bench
        with pytest.raises(ValueError, match="^w_bar must be small enough that e_bar_inf"):
            mpc.certify(w, {**obs_doc, "w_bar": w_bar})

    @pytest.mark.parametrize("q_weight", [np.nan, np.inf, 1e308, 8e307, 0.0])
    def test_rejects_non_finite_q_weight(self, bench_w, bench_spec, q_weight):
        # named where the terminal weight P_f, or the 2 P_f that its solve
        # and SPD check form, would overflow
        with pytest.raises(ValueError, match="^q_weight must be finite and positive"):
            mpc.certify(bench_w, bench_spec, 5, q_weight=q_weight)

    def test_controller_reads_horizon_and_q_weight(self, bench_w, bench_spec):
        certificate = mpc.certify(bench_w, bench_spec, 7, q_weight=2.5)
        ctrl = mpc.Controller(bench_w, certificate, e_o0=0.05)
        problem = ctrl.problem_at(None, None, [0.1])
        assert problem.tight.shape == (7, 1)
        assert problem.q_weight == 2.5
        assert problem.P_f is certificate.P_f


def solution_bits(sol):
    """A solution's plan bytes and its scalars, compared bit for bit."""
    return (sol.u_seq.tobytes(), repr(sol.cost), sol.status, sol.solver_iterations,
            repr(sol.max_violation), repr(sol.candidate_violation))


class TestWorkspace:
    def test_used_workspace_gives_the_fresh_solve(self, bench_w, bench_spec, monkeypatch):
        # an active output bound at N = 10, where the line search backtracks
        ctrl, problem = feasible_instance(bench_w, bench_spec, 2, 10, y0=0.1)
        problem = with_y_ub(problem, 0.30)
        assert problem.workspace is ctrl.workspace
        fresh = mpc.solve_fhocp(dataclasses.replace(
            problem, workspace=mpc.FhocpWorkspace(bench_w, 10)))
        rng = np.random.default_rng(5)
        for _ in range(3):     # earlier steps of the controller, on other estimates
            x_hat = lstm.LstmState(problem.x_hat.c + rng.uniform(-0.02, 0.02, bench_w.n),
                                   problem.x_hat.h + rng.uniform(-0.02, 0.02, bench_w.n))
            mpc.solve_fhocp(ctrl.problem_at(x_hat, problem.ref, [0.1]), real_time=True)
        evaluations = []
        evaluate = mpc.Problem.evaluate
        monkeypatch.setattr(mpc.Problem, "evaluate",
                            lambda self, *args: evaluations.append(1) or evaluate(self, *args))
        used = mpc.solve_fhocp(problem)
        assert len(evaluations) > used.solver_iterations + 1      # some trial was rejected
        assert solution_bits(used) == solution_bits(fresh)

    def test_a_later_solve_leaves_an_earlier_solution(self, bench_w, bench_spec):
        # every evaluation overwrites the workspace's one sweep: a solution
        # holds none of its arrays, so a second solve_fhocp or evaluate on
        # the same workspace leaves the first solution's plan, cost and
        # violation bit for bit as they were
        ctrl, problem = feasible_instance(bench_w, bench_spec, 2, 10, y0=0.1)
        problem = with_y_ub(problem, 0.30)
        first = mpc.solve_fhocp(problem)
        kept = first.u_seq.tobytes(), repr(first.cost), repr(first.max_violation)
        rng = np.random.default_rng(7)
        x_hat = lstm.LstmState(problem.x_hat.c + rng.uniform(-0.02, 0.02, bench_w.n),
                               problem.x_hat.h + rng.uniform(-0.02, 0.02, bench_w.n))
        other = ctrl.problem_at(x_hat, problem.ref, [0.1])
        assert other.workspace is problem.workspace is ctrl.workspace
        second = mpc.solve_fhocp(other)
        assert second.u_seq.tobytes() != kept[0]
        _, _, aux = problem.evaluate(rng.uniform(-0.5, 0.5, (10, bench_w.m)))
        assert aux[4] is ctrl.workspace.dx          # the evaluation wrote the one sweep
        assert (first.u_seq.tobytes(), repr(first.cost), repr(first.max_violation)) == kept


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
        with pytest.raises(ValueError, match="not below y_ub on output 0"):
            mpc.Controller(bench_w, bench_certificate, y_lb=y_lb, y_ub=y_ub)

    # r > 0 keeps the QP strictly convex; a negative or NaN e_o0 ends the
    # run in a bare error, and an infinite one tightens every bound away
    @pytest.mark.parametrize("setting, value", [
        ("r_weight", 0.0), ("r_weight", -1.0), ("r_weight", np.nan), ("r_weight", np.inf),
        ("r_weight", 1e308), ("r_weight", 8.9e307),
        ("e_o0", -0.5), ("e_o0", np.nan), ("e_o0", np.inf),
    ])
    def test_rejects_setting_the_solver_cannot_use(self, bench_w, bench_certificate,
                                                   setting, value):
        with pytest.raises(ValueError, match=f"^{setting} must be finite"):
            mpc.Controller(bench_w, bench_certificate, **{setting: value})

    def test_rejects_bounds_of_wrong_shape(self, bench_w, bench_certificate):
        with pytest.raises(DimensionError, match=r"y_ub has shape \(3,\)"):
            mpc.Controller(bench_w, bench_certificate, y_ub=np.array([0.8, 0.9, 1.0]))

    def test_tracks_equilibrium(self, bench_w, bench_certificate, bench_spec, bench_cell):
        e_o0 = 0.05
        ctrl = mpc.Controller(bench_w, bench_certificate, e_o0=e_o0)
        y0 = 0.1
        ref = refcalc.solve_reference(bench_w, [y0], [0.0], bench_cell)
        chi = AugmentedState(ref.x_bar.copy(), np.zeros(1))
        u, sol, ref_out = ctrl.step(chi, np.array([y0]))
        np.testing.assert_allclose(u, ref.u_bar, atol=1e-6)
        assert sol.max_violation <= 1e-7
        # e_o proxy advanced by the affine recursion
        assert ctrl.e_o == pytest.approx(
            bench_spec.rho_o * e_o0 + bench_spec.w_bar)

    def test_feasible_candidate_takes_one_iteration(self, bench_w, bench_certificate,
                                                    bench_spec, bench_cell):
        ctrl = mpc.Controller(bench_w, bench_certificate, e_o0=0.05)
        x_hat = feasible_instance(bench_w, bench_spec, 2, 5)[1].x_hat
        chi = AugmentedState(x_hat, np.zeros(1))
        for _ in range(3):
            u, sol, _ = ctrl.step(chi, np.array([0.1]))
            assert sol.candidate_violation <= 1e-7
            assert (sol.status, sol.solver_iterations) == ("iterate", 1)
            chi = AugmentedState(lstm.step(bench_w, chi.x, u, bench_cell), chi.d)

    def test_two_output_model_with_scalar_bounds(self):
        # Controller's default scalar y_lb/y_ub hold for every output;
        # the set-point is the output of the model's u = 0 attractor
        w = small_net(seed=2, n=3, m=2, p=2)
        certificate = mpc.certify(w, observer.select_gains(w, w_bar=0.0))
        ctrl = mpc.Controller(w, certificate, e_o0=0.05)
        _, h, _ = lstm.rollout(w, np.zeros(3), np.zeros(3), np.zeros((300, 2)))
        y0 = w.W_y @ h[-1] + w.b_y
        ref = refcalc.solve_reference(w, y0, np.zeros(2), lstm.Workspace(w.n, w.m, 1))
        u, sol, _ = ctrl.step(AugmentedState(ref.x_bar.copy(), np.zeros(2)), y0)
        np.testing.assert_allclose(u, ref.u_bar, atol=1e-6)
        assert sol.max_violation <= 1e-7
        np.testing.assert_array_equal(ctrl.problem.y_ub, [1.0, 1.0])
        alpha = certificate.terminal_alpha(w.W_y, y0, [-1.0, -1.0], [1.0, 1.0], 0.05)
        assert alpha > 0.0


class TestReadout:
    # the terminal radius divides by each output's readout norm, so a row of
    # zeros is named before any step instead of dividing by zero
    @pytest.mark.parametrize("net, row", [("bench", 0), ("small", 0), ("small", 1)])
    def test_rejects_a_readout_row_of_zeros(self, bench, net, row):
        if net == "bench":
            w, gains = bench
        else:
            w = small_net(seed=2, n=3, m=2, p=2)
            gains = observer.select_gains(w, w_bar=0.0)
        certificate = mpc.certify(w, gains)
        w_y = w.W_y.copy()
        w_y[row] = 0.0
        with pytest.raises(ValueError, match="^W_y must be a readout with no row of zeros"):
            mpc.Controller(with_arrays(w, W_y=w_y), certificate)


class TestNanReductions:
    # the step's maxima are taken on Python floats, whose builtin max and min
    # skip a NaN that is not first; each must still see the NaN as numpy does
    def test_a_plan_whose_g_holds_nan_is_infeasible(self, bench_w, bench_spec, monkeypatch):
        _, problem = feasible_instance(bench_w, bench_spec, 2, 5)
        evaluate = mpc.Problem.evaluate

        def with_nan(self, *args):
            cost, g, aux = evaluate(self, *args)
            g[:] = -1.0             # every row satisfied but one, which is NaN
            g[1] = np.nan
            return cost, g, aux

        monkeypatch.setattr(mpc.Problem, "evaluate", with_nan)
        with pytest.raises(FeasibilityLossError, match=r"candidate violation nan\)"):
            mpc.solve_fhocp(problem, real_time=True)

    @pytest.mark.parametrize("b_vec", [[1.0, np.nan, 1.0], [np.nan, 1.0, 1.0],
                                       [1.0, 1.0, np.nan]])
    def test_a_nan_slack_takes_the_dual_path(self, monkeypatch, b_vec):
        # d0 = 0, so the slack q is b_vec: a NaN fails q >= -tol, as in numpy
        dual = []
        monkeypatch.setattr(mpc, "_dual_qp", lambda *args: dual.append(1) or "dual")
        a_mat = np.vstack((np.eye(2), [[1.0, 1.0]]))
        assert mpc._dense_qp(np.eye(2), np.zeros(2), a_mat, np.array(b_vec)) == "dual"
        assert dual == [1]


def parent_sensitivities(w, sweep):
    """S from the step Jacobians of the last rollout in the workspace
    ``sweep``, one product and one copy per step."""
    jac = sweep.linearize()
    n2, n_t = 2 * w.n, len(jac)
    s = np.zeros((n_t + 1, n2, n_t * w.m))
    for t in range(n_t):
        np.matmul(jac[t, :, :n2], s[t, :, :t * w.m], out=s[t + 1, :, :t * w.m])
        s[t + 1, :, t * w.m:(t + 1) * w.m] = jac[t, :, n2:]
    return s


def parent_evaluate(problem, u_seq):
    """``Problem.evaluate`` in its products through @ and its sums through
    ndarray.sum: the formulas whose bits the step keeps."""
    w, ref, n_h = problem.w, problem.ref, len(problem.tight)
    sweep = lstm.Workspace(w.n, w.m, len(u_seq))
    c, h, _ = sweep.rollout(w, problem.x_hat.c, problem.x_hat.h, u_seq)
    y_pred = h[:n_h] @ w.W_y.T + w.b_y
    g = np.empty(2 * w.p * n_h + 1)
    g_out = g[:-1].reshape(n_h, 2, w.p)
    g_out[:, 0] = y_pred + problem.tight - problem.y_ub
    g_out[:, 1] = problem.y_lb + problem.tight - y_pred
    dx = np.concatenate((c - ref.x_bar.c, h - ref.x_bar.h), axis=1)
    e_c, e_h = dx[n_h].reshape(2, w.n)
    ev = np.sqrt([e_c.dot(e_c), e_h.dot(e_h)])
    phi = float(ev @ problem.P_f @ ev)
    g[-1] = phi - problem.alpha ** 2
    cost = problem.q_weight * float((dx[:n_h] ** 2).sum()) \
        + problem.r_weight * float(((u_seq - ref.u_bar) ** 2).sum()) + phi
    return cost, g, (c, h, sweep, ev, dx)


def parent_qp_model(problem, u_seq, g, aux, lam_term):
    """``Problem.qp_model`` in its products through @, on the rollout of
    ``parent_evaluate``, with A and b stacked whole."""
    w, ref, n_h = problem.w, problem.ref, len(problem.tight)
    n_u, n_out = n_h * w.m, 2 * w.p * (n_h - 1)
    _, _, sweep, ev, dx = aux
    s = parent_sensitivities(w, sweep)
    s_x = s[1:n_h].reshape(-1, n_u)
    grad = 2.0 * problem.q_weight * (dx[1:n_h].ravel() @ s_x) \
        + 2.0 * problem.r_weight * (u_seq - ref.u_bar).ravel()
    hess = 2.0 * problem.q_weight * (s_x.T @ s_x) + 2.0 * problem.r_weight * np.eye(n_u)
    p2 = 2.0 * problem.P_f
    g_ev = p2 @ ev
    k_t = 1.0 + lam_term
    v = np.zeros((2, n_u))
    for j, (e, s_j, ev_j, g_j) in enumerate(zip(
            dx[n_h].reshape(2, w.n), s[n_h].reshape(2, w.n, n_u), ev.tolist(), g_ev.tolist())):
        ss = s_j.T @ s_j
        if ev_j > 0.0:
            v[j] = (e / ev_j) @ s_j
            hess += k_t * max(g_j, 0.0) / ev_j * (ss - v[j][:, None] * v[j])
        else:
            hess += k_t * p2[j, j] * ss
    hess += k_t * (v.T @ p2 @ v)
    d_term = g_ev @ v
    grad += d_term
    out = w.W_y @ s[1:n_h, w.n:]
    a_mat = np.vstack((np.stack((out, -out), axis=1).reshape(n_out, n_u), d_term,
                       np.eye(n_u), -np.eye(n_u)))
    u_flat = u_seq.ravel()
    b_vec = np.concatenate((-g[2 * w.p:], w.u_max - u_flat, w.u_max + u_flat))
    return grad, hess, a_mat, b_vec


class TestParentFormulas:
    """The step's products through ndarray.dot, its sums through
    np.add.reduce and its buffers give the bits of the @ formulas."""

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_horizon", [5, 10])
    @pytest.mark.parametrize("terminal", ["both-errors", "no-cell-error"])
    def test_evaluate_and_qp_model_bits(self, bench_w, net, n_horizon, terminal):
        w = bench_w if net == "bench" else small_net(seed=2, n=3, m=2, p=2)
        rng = np.random.default_rng(30 + n_horizon)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-0.9, 0.9, (n_horizon, w.m))
        x_bar = random_invariant_state(w, rng)
        if terminal == "no-cell-error":      # ev_0 = 0: the Hessian's other branch
            c, _, _ = lstm.rollout(w, x0.c, x0.h, u)
            x_bar = lstm.LstmState(c[-1].copy(), x_bar.h)
        ref = SimpleNamespace(x_bar=x_bar, u_bar=rng.uniform(-0.5, 0.5, w.m))
        problem = mpc.Problem(w, x0, ref, rng.uniform(0.0, 0.2, (n_horizon, w.p)),
                              np.full(w.p, -1.0), np.full(w.p, 1.0),
                              np.array([[2.0, 0.3], [0.3, 1.0]]), 0.4,
                              q_weight=2.0, r_weight=0.5,
                              workspace=mpc.FhocpWorkspace(w, n_horizon))
        cost, g, aux = problem.evaluate(u)
        want_cost, want_g, want_aux = parent_evaluate(problem, u)
        assert (terminal == "no-cell-error") == (aux[3][0] == 0.0)
        assert np.float64(cost).tobytes() == np.float64(want_cost).tobytes()
        for got, want in zip((g, aux[3], aux[4]), (want_g, want_aux[3], want_aux[4])):
            assert got.tobytes() == want.tobytes()
        assert aux[2].sensitivities().tobytes() \
            == parent_sensitivities(w, want_aux[2]).tobytes()
        for lam_term in (0.0, 0.7):
            got = problem.qp_model(u, g, aux, lam_term)
            want = parent_qp_model(problem, u, want_g, want_aux, lam_term)
            for name, a, b in zip(("grad", "hess", "A", "b"), got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_horizon", [5, 10])
    def test_dot_is_matmul_at_the_step_shapes(self, bench_w, net, n_horizon):
        # each product of a step, at its shapes and memory layouts: a
        # transposed readout, s_x' s_x and S_N's c, h blocks (BLAS' syrk),
        # the tangent's strided columns, the rollout's preactivations
        w = bench_w if net == "bench" else small_net(seed=2, n=3, m=2, p=2)
        n, m, p, n_h = w.n, w.m, w.p, n_horizon
        n_u, n_g = n_h * m, 2 * p * n_h + 1
        rng = np.random.default_rng(n_horizon)
        for _ in range(5):
            s = rng.normal(size=(n_h + 1, 2 * n, n_u))
            s_x = s[1:n_h].reshape(-1, n_u)
            s_j = s[n_h].reshape(2, n, n_u)[1]
            h, dx = rng.normal(size=(n_h + 1, n)), rng.normal(size=(n_h + 1, 2 * n))
            ev, p2, v = rng.normal(size=2), rng.normal(size=(2, 2)), rng.normal(size=(2, n_u))
            jac_inv = rng.normal(size=(2 * n + m, 2 * n + m))
            pairs = [
                (h[:n_h], w.W_y.T), (ev, p2), (ev, ev), (dx[1:n_h].ravel(), s_x),
                (s_x.T, s_x), (p2, ev), (s_j.T, s_j), (dx[n_h, :n], s_j), (v.T, p2),
                (v.T @ p2, v), (ev, v), (rng.normal(size=(n_g - 2 * p + 2 * n_u, n_u)),
                                         rng.normal(size=n_u)),
                (rng.normal(size=n_u), rng.normal(size=n_u)), (w.W_y, h[0]),
                (jac_inv, rng.normal(size=2 * n + m)),
                (jac_inv[:, 2 * n:], rng.normal(size=p)),
                (rng.normal(size=m), w.W_half.T), (rng.normal(size=(n_h, m)), w.W_half.T),
                (rng.normal(size=(4 * n, p)), rng.normal(size=p)),
                (rng.normal(size=(p, p)), rng.normal(size=p)),
            ]
            for k, (a, b) in enumerate(pairs):
                assert a.dot(b).tobytes() == np.matmul(a, b).tobytes(), k
