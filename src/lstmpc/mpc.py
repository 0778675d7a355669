"""Robust output-constrained MPC with constraint tightening.

Each controller step builds one ``Problem``, the finite-horizon optimal
control problem on the identified model: quadratic tracking cost toward
the equilibrium produced by the reference calculator, output bounds
tightened along the horizon by coefficients (a_i, b_i) that account for
the observer error proxy e_o, disturbance uncertainty and model
contraction, and a terminal level-set constraint whose radius alpha(k)
shrinks with the admissible set-point margin. ``solve_fhocp(problem)``
solves it; ``Problem.evaluate`` also checks any other plan against it.

``certify`` builds these constants once into a frozen ``Certificate``,
whose methods give the e_o recursion, the terminal radius and the
admissible set-point band; d_max, rho_o and w_bar live only in its spec.

The solver is single-shooting sequential quadratic programming (SQP) over
the N*m free inputs: each iteration solves ``Problem.qp_model``'s dense
QP with ``_dense_qp``, and Armijo backtracking on the l1 merit
J + nu sum max(0, g), nu >= 1.1 times the largest multiplier and never
decreased, sets the step length. ``Controller.step`` solves in
real-time-iteration mode (Diehl, Bock & Schloeder, 2005), from the
left-shifted previous plan: stability and recursive feasibility need only
a feasible plan that costs no more than that feasible shifted candidate
(suboptimal MPC, Scokaert, Mayne & Rawlings, 1999). Every solve of a
controller runs on the one ``FhocpWorkspace`` it allocates (Houska,
Ferreau & Diehl, 2011, run each sample on memory allocated once), whose
one ``lstm.Workspace`` each ``Problem.evaluate`` overwrites; every
``Problem`` is given the workspace it solves in.

A step's vectors hold 5 to 21 entries, where numpy's Python-level entry
points cost more than the arithmetic, so the step does without them and
keeps every bit: its products go through ``ndarray.dot``, the C routine
that ``@`` reaches through the matmul ufunc, and through an explicit
``np.matmul`` where the output is strided or 3-D; its exact maxima are
taken on Python floats by ``numerics.largest`` and ``numerics.magnitude``,
which see a NaN as ``ndarray.max`` does; its sums go through
``np.add.reduce``, the reduction ``ndarray.sum`` wraps, in numpy's
pairwise order.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import lstm, observer, plant, refcalc
from .errors import (NONNEGATIVE, POSITIVE, POSITIVE_INT, DimensionError,
                     FeasibilityLossError, InfeasibleSetpointError, check)
from .numerics import (eig_extrema_spd, freeze_arrays, largest, magnitude,
                       solve_discrete_lyapunov)

_sum = np.add.reduce     # a whole array's pairwise sum, without ndarray.sum's wrapper

# the readout rule of a Certificate's W_y
_READOUT = (lambda v: bool(np.all(np.any(v != 0.0, axis=1))),
            "a readout with no row of zeros, since the terminal radius divides by each row's norm")


def _terminal_weight(a_delta, q_weight):
    """(P_f, its smallest eigenvalue) of A_delta^T P_f A_delta - P_f = -1.1 q I,
    or None where forming them, or the 2 P_f that the solve, the SPD check
    and the solver's terminal Hessian form, overflows."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            p_f = solve_discrete_lyapunov(a_delta, np.diag([1.1 * q_weight] * 2))
            return p_f, eig_extrema_spd(p_f)[0]
        except FloatingPointError:
            return None


@dataclass(frozen=True)
class Certificate:
    """One model's chain of constants, from ``certify``, formed whole from the
    model's certificate, the observer's ``spec`` of the same weights ``model.w``
    (W_y with no row of zeros), a positive int ``horizon`` N and ``q_weight`` q:
    the (N+1, p) margins a, b of stages 0..N (y_ub - a_i e_o - b_i) and the
    terminal P_f, A_delta^T P_f A_delta - P_f = -1.1 q I, with its smallest
    eigenvalue ``lam_min``; with ``estimate_k_bar``, ``k_bar`` is K_bar's (value,
    argmax) over pH 6.5-8.5 and +-d_max. No derived constant is a constructor
    argument; arrays are read-only copies."""

    model: lstm.StabilityCertificate
    spec: observer.ObserverCertificate
    horizon: int
    q_weight: float
    estimate_k_bar: InitVar[bool] = False
    k_bar: tuple | None = field(init=False)
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    P_f: np.ndarray = field(init=False)
    lam_min: float = field(init=False)

    def __post_init__(self, estimate_k_bar):
        check("horizon", self.horizon, POSITIVE_INT)
        cert, spec = self.model, self.spec
        w = cert.w
        check("spec.w", spec.w, (lambda v: v is w, "model.w, the weights of the model certificate"))
        check("W_y", w.W_y, _READOUT)
        q = self.q_weight
        terminal = _terminal_weight(np.asarray(cert.A_delta, dtype=float), q) \
            if POSITIVE[0](q) else None
        check("q_weight", q, (lambda v: terminal is not None,
                              "finite and positive, with the terminal weight P_f and 2 P_f finite"))
        a = [np.asarray(spec.c_o, dtype=float).copy()]
        b = [np.zeros_like(a[0])]
        with np.errstate(over="ignore"):      # an overflowing w_bar is named below
            for i in range(self.horizon):
                a.append(spec.rho_o * a[i] + cert.rho_s ** i * cert.c_su * spec.L_max * cert.c_s)
                b.append(b[i] + a[i] * spec.w_bar)
        check("w_bar", spec.w_bar, (lambda v: np.isfinite([self.e_bar_inf, *np.ravel(b)]).all(),
                                    "small enough that e_bar_inf and the margins b are finite"))
        k_bar = None
        if estimate_k_bar:
            if w.u_range is None or w.y_range is None:
                raise ValueError("the K_bar estimate needs weights with u_range and y_range")
            nrm = plant.Normalizer(*w.u_range, *w.y_range)
            k_bar = refcalc.estimate_k_bar(w, (nrm.normalize_y(6.5), nrm.normalize_y(8.5)),
                                           (-spec.d_max, spec.d_max))
        p_f, lam_min = terminal
        freeze_arrays(self, a=np.array(a), b=np.array(b), P_f=p_f, lam_min=lam_min, k_bar=k_bar)

    @property
    def e_bar_inf(self):
        """Fixed point w_bar / (1 - rho_o) of the e_o recursion."""
        return self.spec.w_bar / (1.0 - self.spec.rho_o)

    def next_e_o(self, e_o):
        """Affine proxy update rho_o e_o + w_bar of the observer-error bound."""
        check("e_o", e_o, NONNEGATIVE)
        return self.spec.rho_o * e_o + self.spec.w_bar

    def terminal_margin(self, e_o):
        """Stage-N output margin a_N max(e_o, e_bar_inf) + b_N + 2 d_max, (p,)."""
        n_h = self.horizon
        return self.a[n_h] * max(e_o, self.e_bar_inf) + self.b[n_h] + 2.0 * self.spec.d_max

    def admissible_band(self, y_lb, y_ub, e_o):
        """Open set-point band (lo, hi) with positive terminal radius (per output)."""
        margin = self.terminal_margin(e_o)
        return np.atleast_1d(y_lb) + margin, np.atleast_1d(y_ub) - margin

    def terminal_alpha(self, y0, y_lb, y_ub, e_o):
        """Radius of the terminal level set for the set-point y0, with (p,)
        output bounds y_lb, y_ub: positive only strictly inside
        ``admissible_band``. A set-point on an edge of the band or outside
        it raises InfeasibleSetpointError, even where the radius rounds to
        a positive value. The radius is formed on Python floats, which round
        as numpy's scalars do, from the model's readout ``W_y``.
        """
        w_y = self.model.w.W_y
        y0 = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
        margin = self.terminal_margin(e_o).tolist()
        sq = math.sqrt(self.lam_min)
        alpha = math.inf
        for j in range(len(y0)):
            wy = math.sqrt(w_y[j].dot(w_y[j]))
            a_ub = sq / wy * (y_ub[j] - y0[j] - margin[j])
            a_lb = sq / wy * (y0[j] - y_lb[j] - margin[j])
            # written so that a NaN set-point fails them too
            if not (a_ub > 0.0 and y0[j] < y_ub[j] - margin[j]):
                raise InfeasibleSetpointError(f"set-point too close to upper bound on output {j}")
            if not (a_lb > 0.0 and y0[j] > y_lb[j] + margin[j]):
                raise InfeasibleSetpointError(f"set-point too close to lower bound on output {j}")
            alpha = min(alpha, a_ub, a_lb)
        return float(alpha)

    def to_dict(self):
        """The constants as ``lstmpc certify`` prints them."""
        cert, spec = self.model, self.spec
        doc = {
            "model": {"rho_A_delta": cert.rho_A, "r1": cert.r1, "r2": cert.r2,
                      "certified": cert.certified, "rho_s": cert.rho_s, "c_sl": cert.c_sl,
                      "c_su": cert.c_su, "c_s": cert.c_s.tolist(), "P_s": cert.P_s.tolist()},
            "observer": {"rho_A_d": spec.rho_A_d, "rho_o": spec.rho_o,
                         "c_ol": spec.c_ol, "c_ou": spec.c_ou, "c_o": spec.c_o.tolist(),
                         "L_max": spec.L_max, "w_bar": spec.w_bar,
                         "e_bar_inf": self.e_bar_inf, "P_o": spec.P_o.tolist()},
            "tightening": {"a": self.a.tolist(), "b": self.b.tolist()},
        }
        if self.k_bar is not None:
            doc["k_bar"] = {"value": self.k_bar[0], "argmax": self.k_bar[1]}
        return doc


def certify(w, gains=None, horizon=5, q_weight=1.0, *, k_bar=False):
    """The ``Certificate`` of the weights ``w`` at a positive int ``horizon``.

    ``gains`` is an ``ObserverSpec`` (left unchanged) or the weights' JSON
    observer section (``observer.section_spec``), either with its own d_max
    and w_bar; None means ``observer.select_gains(w)``. The chain is
    composed here only: one model certificate, one
    ``observer.derive_constants``; ``k_bar`` is the Certificate's
    ``estimate_k_bar``."""
    cert = lstm.incremental_lyapunov(w)
    if gains is None:
        gains = observer.select_gains(w)
    elif not isinstance(gains, observer.ObserverSpec):
        gains = observer.section_spec(w, gains)
    return Certificate(cert, observer.derive_constants(w, gains), horizon, q_weight, k_bar)


@dataclass
class MpcSolution:
    """Feasible input plan returned by the optimizer."""

    u_seq: np.ndarray          # (N, m)
    cost: float
    status: str                # see solve_fhocp
    solver_iterations: int
    max_violation: float
    candidate_violation: float  # warm-start plan's own violation


class FhocpWorkspace:
    """The arrays that the FHOCP solves of one horizon reuse, allocated once
    by ``Controller``: the ``lstm.Workspace`` ``sweep`` of every plan's rollout, which runs on the
    problem's weights, and the plan's state errors ``dx``, which each
    ``Problem.evaluate`` overwrites; the QP's A and b, whose input-box rows
    [I; -I] are set here; and I."""

    def __init__(self, w, n_horizon):
        n_u, n_out = n_horizon * w.m, 2 * w.p * (n_horizon - 1)
        self.sweep = lstm.Workspace(w.n, w.m, n_horizon)
        self.dx = np.empty((n_horizon + 1, 2 * w.n))
        self.eye = np.eye(n_u)
        self.a_mat = np.empty((n_out + 1 + 2 * n_u, n_u))
        self.a_mat[n_out + 1:n_out + 1 + n_u] = self.eye
        np.negative(self.eye, out=self.a_mat[n_out + 1 + n_u:])
        self.b_vec = np.empty(n_out + 1 + 2 * n_u)


_SQP_MAX_ITER = 50       # SQP iterations per solve
_LINE_SEARCH_MAX = 40    # step halvings before the line search gives up
_STEP_TOL = 1e-10        # stop once max |delta u| falls below this
_FEAS_TOL = 1e-7         # constraint slack counted as feasible


@dataclass
class Problem:
    """The tightened FHOCP of one control step, from ``Controller.problem_at``,
    on the controller's weights ``w``.

    ``tight`` holds the output-bound offsets a_i e_o + b_i + d_max of
    stages 0..N-1, (N, p); ``y_lb`` and ``y_ub`` are (p,). ``workspace``,
    an ``FhocpWorkspace`` of the weights and the horizon, holds the buffers
    of its solves. The lower bounds' y_lb + tight is formed once, on
    construction.
    """

    w: lstm.LstmWeights
    x_hat: lstm.LstmState
    ref: refcalc.ReferencePair
    tight: np.ndarray
    y_lb: np.ndarray
    y_ub: np.ndarray
    P_f: np.ndarray
    alpha: float
    q_weight: float
    r_weight: float
    workspace: FhocpWorkspace = field(repr=False, compare=False)

    def __post_init__(self):
        self._lb_tight = self.y_lb + self.tight

    def evaluate(self, u_seq):
        """(cost, g, ev) of the (N, m) plan ``u_seq``, the plan's own values:
        g <= 0 stacks per stage the tightened upper then lower output bound,
        then the terminal set; ev is (|c_N - c_bar|, |h_N - h_bar|). The
        rollout and the state errors of stages 0..N, (N+1, 2n), go to the
        ``workspace``'s ``sweep`` and ``dx``, which ``qp_model`` reads and the
        next evaluation overwrites."""
        w, ref, n_h, n = self.w, self.ref, len(self.tight), self.w.n
        dx = self.workspace.dx
        c, h, _ = self.workspace.sweep.rollout(w, self.x_hat.c, self.x_hat.h, u_seq)
        y_pred = h[:n_h].dot(w.W_y.T) + w.b_y   # outputs at stages 0..N-1
        g = np.empty(2 * w.p * n_h + 1)
        g_out = g[:-1].reshape(n_h, 2, w.p)
        g_out[:, 0] = y_pred + self.tight - self.y_ub
        g_out[:, 1] = self._lb_tight - y_pred
        np.subtract(c, ref.x_bar.c, dx[:, :n])      # each output positional
        np.subtract(h, ref.x_bar.h, dx[:, n:])
        e_c, e_h = dx[n_h].reshape(2, n)
        ev = np.sqrt([e_c.dot(e_c), e_h.dot(e_h)])      # the two terminal 2-norms
        phi = float(ev.dot(self.P_f).dot(ev))
        g[-1] = phi - self.alpha ** 2
        cost = self.q_weight * float(_sum(dx[:n_h] ** 2, axis=None)) \
            + self.r_weight * float(_sum((u_seq - ref.u_bar) ** 2, axis=None)) + phi
        return cost, g, ev

    def qp_model(self, u_seq, g, ev, lam_term):
        """The SQP's QP at ``u_seq``, whose ``evaluate``, the ``workspace``'s
        last, gave g and ev and wrote its sweep and dx: exact gradient,
        generalized Gauss-Newton Hessian and linearized constraints A d <= b
        (output rows of stages 1..N-1, the terminal row, then the input box).
        ``lam_term`` is the terminal row's last multiplier: phi enters the
        Lagrangian as (1 + lam_term) phi, so its curvature does too. A and b
        are the ``workspace``'s, which the next call overwrites."""
        w, ref, n_h = self.w, self.ref, len(self.tight)
        n_u, n_out = n_h * w.m, 2 * w.p * (n_h - 1)
        ws = self.workspace
        dx, s = ws.dx, ws.sweep.sensitivities()     # S: (N+1, 2n, N*m), rows c then h
        s_x = s[1:n_h].reshape(-1, n_u)         # stages 1..N-1, laid out like dx[1:N]
        grad = 2.0 * self.q_weight * dx[1:n_h].ravel().dot(s_x) \
            + 2.0 * self.r_weight * (u_seq - ref.u_bar).ravel()
        hess = 2.0 * self.q_weight * s_x.T.dot(s_x) + 2.0 * self.r_weight * ws.eye
        # Terminal phi = ev'P_f ev: exact Hessian in (c_N, h_N), carried
        # through S_N; v_j = e_hat_j' S_N is d(ev_j)/du. The scalars are
        # Python floats, which round as numpy's do.
        p2 = 2.0 * self.P_f
        g_ev = p2.dot(ev)
        k_t = 1.0 + lam_term
        v = np.zeros((2, n_u))
        for j, (e, s_j, ev_j, g_j) in enumerate(zip(
                dx[n_h].reshape(2, w.n), s[n_h].reshape(2, w.n, n_u),   # S_N's c, h rows
                ev.tolist(), g_ev.tolist())):
            ss = s_j.T.dot(s_j)
            if ev_j > 0.0:
                (e / ev_j).dot(s_j, v[j])
                hess += k_t * max(g_j, 0.0) / ev_j * (ss - v[j][:, None] * v[j])
            else:
                hess += k_t * p2[j, j] * ss
        hess += k_t * v.T.dot(p2).dot(v)
        d_term = g_ev.dot(v)
        grad += d_term
        # the output rows, upper then lower per stage, filled from one
        # contiguous product
        out = np.matmul(w.W_y, s[1:n_h, w.n:])  # (N-1, p, N*m), a 3-D product
        a_mat, b_vec = ws.a_mat, ws.b_vec
        out_rows = a_mat[:n_out].reshape(n_h - 1, 2, w.p, n_u)
        out_rows[:, 0] = out
        np.negative(out, out=out_rows[:, 1])
        a_mat[n_out] = d_term
        u_flat = u_seq.ravel()
        np.negative(g[2 * w.p:], out=b_vec[:n_out + 1])
        np.subtract(w.u_max, u_flat, out=b_vec[n_out + 1:n_out + 1 + n_u])
        np.add(w.u_max, u_flat, out=b_vec[n_out + 1 + n_u:])
        return grad, hess, a_mat, b_vec


def _dense_qp(hess, grad, a_mat, b_vec):
    """min 1/2 d'Hd + grad'd subject to A d <= b, for symmetric positive definite H.

    Solves the dual min 1/2 lam'M lam + (b - A d0)'lam over lam >= 0, with
    M = A H^-1 A' and d0 = -H^-1 grad, by a Lawson-Hanson active-set
    method; the dual gradient M lam + b - A d0 is the primal slack
    b - A d. When d0 violates no row, lam = 0 is the dual's solution and
    M is never formed. Returns (d, lam), or None when the method breaks
    down (a singular active set or no convergence, as on an infeasible QP).

    The exit's test needs d0 alone, so it solves H [grad | 0]: LAPACK's
    one-column solve rounds differently from its solve of [grad | A'],
    whose first column a second, zero column gives bit for bit. Only a
    violated row leads to ``_dual_qp``, which forms H^-1 A' and M.
    """
    rhs = np.zeros((len(grad), 2))
    rhs[:, 0] = grad
    d0 = -np.linalg.solve(hess, rhs)[:, 0]
    q = b_vec - a_mat.dot(d0)
    qs = q.tolist()
    top = magnitude(qs)     # NaN, which takes the dual, when q holds one
    if top == top and min(qs) >= -1e-12 * max(1.0, top):
        return d0, np.zeros(len(q))
    return _dual_qp(hess, grad, a_mat, b_vec)


def _dual_qp(hess, grad, a_mat, b_vec):
    """``_dense_qp``'s dual active-set iteration from lam = 0."""
    sol = np.linalg.solve(hess, np.column_stack([grad, a_mat.T]))
    d0, h_at = -sol[:, 0], sol[:, 1:]
    q = b_vec - a_mat @ d0
    tol = 1e-12 * max(1.0, float(abs(q).max()))
    lam = np.zeros(len(q))
    m_mat = a_mat @ h_at
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
            if not np.isfinite(z[idx]).all():
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


def solve_fhocp(problem, warm=None, real_time=False):
    """Single-shooting SQP solve of ``problem``.

    ``warm`` is the initial input plan (N, m); when omitted the plan is
    the constant equilibrium input. With ``real_time`` the SQP also stops
    after its first iteration that ends feasible; repeated warm-started
    calls converge to the same plan as the default mode. The status is
    "optimal" when the step test passed, "iterate" when the real-time stop
    came first, "stalled" when the iteration cap, a failed line search or
    a failed QP did, and "candidate-fallback" when the feasible warm start
    costs less than every feasible iterate.

    Each iterate carries its plan's own values, cost, g and ev; the sweep
    and dx are the problem's ``workspace``'s, which each evaluation
    overwrites. One sweep is enough: ``qp_model`` reads the accepted
    iterate's sweep before a trial overwrites it, the accepted trial is the
    last one evaluated, and after a failed line search only the plan, cost
    and violation are read. So the next step's candidate, the last sweep's
    plan shifted from the state it predicted, is ``lstm.Workspace.rollout``'s
    shifted sweep: one cell step in place of N, with the same bytes. Its
    guard compares the start and the inputs by their bytes, so a fallback,
    a rejected trial or an estimate that the observer's injection moved
    runs the full sweep.
    """
    n_h, m, u_max = len(problem.tight), problem.w.m, problem.w.u_max
    n_g0 = 2 * problem.w.p     # stage-0 output rows: independent of u

    def project(u_seq):
        return np.minimum(np.maximum(u_seq, -u_max), u_max)

    def merit(cost, g, nu):
        return cost + nu * float(_sum(np.maximum(g, 0.0), axis=None))

    u0 = np.tile(problem.ref.u_bar, (n_h, 1)) if warm is None \
        else np.asarray(warm, dtype=float).reshape(n_h, m)
    u0 = project(u0)

    cand_cost, cand_g, cand_ev = problem.evaluate(u0)
    cand_viol = largest(cand_g.tolist())    # each plan's max(g), taken once
    cand_feasible = cand_viol <= _FEAS_TOL

    u, cost, g, ev, viol = u0, cand_cost, cand_g, cand_ev, cand_viol
    best_u, best_cost, best_viol = None, np.inf, None
    nu = 0.0                   # l1 merit weight, never decreased
    lam_term = 0.0
    n_g = len(cand_g) - n_g0   # QP rows that linearize g
    iterations = 0
    stop = "stalled"           # until the step test or the real-time stop ends the loop
    for iterations in range(1, _SQP_MAX_ITER + 1):
        grad, hess, a_mat, b_vec = problem.qp_model(u, g, ev, lam_term)
        qp = _dense_qp(hess, grad, a_mat, b_vec)
        if qp is None:
            break
        d, lam = qp
        lams = lam[:n_g].tolist()
        lam_term = lams[-1]
        nu = max(nu, 1.1 * largest(lams))
        # a step this small is taken as is: rounding can fail Armijo on it
        tiny = magnitude(d.tolist()) < _STEP_TOL
        d = d.reshape(n_h, m)
        ref_val = merit(cost, g, nu)
        slope = float(grad.dot(d.ravel())) \
            - nu * float(_sum(np.maximum(g[n_g0:], 0.0), axis=None))
        t = 1.0
        for _ls in range(_LINE_SEARCH_MAX):
            u_t = project(u + t * d)
            cost_t, g_t, ev_t = problem.evaluate(u_t)
            if tiny or merit(cost_t, g_t, nu) <= ref_val + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        step = magnitude((u_t - u).ravel().tolist())
        u, cost, g, ev = u_t, cost_t, g_t, ev_t
        viol = largest(g.tolist())
        if viol <= _FEAS_TOL and cost < best_cost:
            best_u, best_cost, best_viol = u, cost, viol
        if step < _STEP_TOL:
            stop = "optimal"
            break
        if real_time and viol <= _FEAS_TOL:
            stop = "iterate"
            break
    if u is not u0 and viol <= _FEAS_TOL:
        # A feasible stopping point is the solution: an earlier iterate can
        # undercut its cost only by spending the _FEAS_TOL slack.
        best_u, best_cost, best_viol = u, cost, viol

    if best_u is None and not cand_feasible:
        raise FeasibilityLossError(
            f"no feasible input plan (candidate violation {cand_viol:.3g})")
    if cand_feasible and (best_u is None or cand_cost < best_cost):
        best_u, best_cost, best_viol, stop = u0, cand_cost, cand_viol, "candidate-fallback"
    return MpcSolution(u_seq=best_u, cost=best_cost, status=stop,
                       solver_iterations=iterations, max_violation=best_viol,
                       candidate_violation=cand_viol)


def shifted_candidate(prev_solution, u_bar):
    """Left-shift the previous plan and append the new equilibrium input."""
    u_prev = np.asarray(prev_solution.u_seq, dtype=float)
    return np.concatenate((u_prev[1:], np.atleast_1d(u_bar)[None, :]))


class Controller:
    """Receding-horizon wrapper: holds warm-start and the e_o recursion.

    The ``certificate`` fixes the model, its weights ``certificate.model.w``,
    the horizon, state weight, margins and P_f; ``r_weight`` > 0,
    e_o(0) = ``e_o0`` >= 0 and the (p,) or scalar output
    bounds complete the FHOCP; InfeasibleSetpointError if they leave no
    admissible set-point at e_o0. Each step runs the reference calculation
    in the controller's one-step ``lstm.Workspace`` ``cell``, builds its
    ``Problem`` on the controller's ``workspace``, both built once, keeps it
    as ``problem`` until the next step, and solves it once in real time,
    warm-started at the shifted previous plan, which it applies when no
    feasible iterate costs less.
    """

    def __init__(self, certificate, *, r_weight=1.0, e_o0=0.5, y_lb=-1.0, y_ub=1.0):
        w = certificate.model.w
        # the QP's Hessian is at least 2 r I: r > 0 keeps it strictly convex;
        # over the input box, the input cost r sum |u_k - u_bar|^2 reaches N m (2 u_max)^2 r
        largest = max(2.0, certificate.horizon * w.m * (2.0 * w.u_max) ** 2)
        check("r_weight", r_weight, (
            lambda v: POSITIVE[0](v) and largest * v < math.inf,
            f"finite and positive, with {largest:g} times it finite: the QP Hessian's 2 r "
            f"and the largest input cost N m (2 u_max)^2 r"))
        check("e_o0", e_o0, NONNEGATIVE)
        bounds = []
        for name, bound in (("y_lb", y_lb), ("y_ub", y_ub)):
            bound = np.atleast_1d(np.asarray(bound, dtype=float))
            if bound.shape not in ((1,), (w.p,)):
                raise DimensionError(f"{name} has shape {bound.shape}; "
                                     f"the model has {w.p} output(s)")
            bounds.append(np.broadcast_to(bound, (w.p,)))
        self.y_lb, self.y_ub = bounds
        bad = np.flatnonzero(~(self.y_lb < self.y_ub))
        if bad.size:
            raise ValueError(f"y_lb is not below y_ub on output {bad[0]}")
        lo, hi = certificate.admissible_band(self.y_lb, self.y_ub, e_o0)
        if (j := np.flatnonzero(~(lo < hi))).size:
            spec = certificate.spec
            raise InfeasibleSetpointError(
                f"empty admissible band ({lo[j[0]]:.4g}, {hi[j[0]]:.4g}) on output {j[0]} at e_o0 "
                f"= {e_o0}: d_max = {spec.d_max}, L_d = {spec.L_d.tolist()}, w_bar = {spec.w_bar}")
        self.certificate = certificate
        self.r_weight, self.e_o = r_weight, e_o0
        self.workspace = FhocpWorkspace(w, certificate.horizon)
        self.cell = lstm.Workspace(w.n, w.m, 1)
        self.problem = self.prev_solution = self.prev_ref = None

    def problem_at(self, x_hat, ref, y0):
        """The tightened FHOCP at the current e_o from the estimate
        ``x_hat`` toward ``ref``, with the terminal radius of the set-point
        ``y0``; raises InfeasibleSetpointError outside the admissible band."""
        cert, e_o = self.certificate, self.e_o
        alpha = cert.terminal_alpha(y0, self.y_lb, self.y_ub, e_o)
        n_h = cert.horizon
        return Problem(cert.model.w, x_hat, ref,
                       cert.a[:n_h] * e_o + cert.b[:n_h] + cert.spec.d_max,
                       self.y_lb, self.y_ub, cert.P_f, alpha,
                       cert.q_weight, self.r_weight, self.workspace)

    def step(self, chi_hat, y0):
        """Compute the input for the current estimate and set-point."""
        ref = refcalc.solve_reference(self.certificate.model.w, y0, chi_hat.d, self.cell,
                                      self.prev_ref)
        self.problem = self.problem_at(chi_hat.x, ref, y0)
        warm = shifted_candidate(self.prev_solution, ref.u_bar) \
            if self.prev_solution is not None else None
        sol = solve_fhocp(self.problem, warm=warm, real_time=True)
        self.prev_solution = sol
        self.prev_ref = ref
        self.e_o = self.certificate.next_e_o(self.e_o)
        return sol.u_seq[0], sol, ref
