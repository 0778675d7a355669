"""Robust output-constrained MPC with constraint tightening.

Each controller step solves a finite-horizon optimal control problem on
the identified model: quadratic tracking cost toward the equilibrium
produced by the reference calculator, output bounds tightened along the
horizon by coefficients (a_i, b_i) that account for the observer error
proxy e_o, disturbance uncertainty and model contraction, and a terminal
level-set constraint whose radius alpha(k) shrinks with the admissible
set-point margin. The tightened output offsets are fixed for one solve.

The solver is single-shooting sequential quadratic programming (SQP) over
the N*m free inputs. Each iteration takes predictions from
``lstm.rollout`` and their input sensitivities from ``lstm.sensitivities``
and builds a dense QP in the step d:

- the exact cost gradient;
- a generalized Gauss-Newton Hessian: the state and input terms' 2q S'S
  and 2r I, plus the exact Hessian of the terminal cost in (c_N, h_N)
  carried through S_N and weighted by one plus the terminal row's
  multiplier;
- the linearized output rows of stages 1..N-1 (stage 0 does not depend
  on u), the linearized terminal row and the input box.

The Hessian is at least 2r I, so the QP is strictly convex; a
Lawson-Hanson active-set method solves its dual. Armijo backtracking on
the l1 merit J + nu sum max(0, g), with nu at least 1.1 times the largest
multiplier and never decreased, sets the step length. The loop stops when
max |delta u| < 1e-10 or the line search fails. The left-shifted previous
plan (with the new equilibrium input appended) is both the warm start
and a certified feasible fallback.

``Controller.step`` solves in real-time-iteration mode (Diehl, Bock &
Schloeder, 2005): the loop also stops at its first feasible iterate, which
is usually after one iteration, and each sample carries the iteration on
from the last plan. Stability and recursive feasibility need only a
feasible plan that costs no more than the feasible shifted candidate
(suboptimal MPC, Scokaert, Mayne & Rawlings, 1999), and the returned plan
is always the better feasible one of the iterate and the candidate. A
solution's status says which it is: "optimal" (the step test passed),
"iterate" (the real-time stop came first), "stalled" (the iteration cap,
a failed line search or a failed QP ended the loop first) or
"candidate-fallback".
"""

from dataclasses import dataclass, field

import numpy as np

from . import lstm, refcalc
from .errors import FeasibilityLossError, InfeasibleSetpointError
from .numerics import eig_extrema_spd, solve_discrete_lyapunov


@dataclass
class TighteningSchedule:
    """Per-stage output-constraint margins y_ub - a_i e_o - b_i."""

    a: np.ndarray        # (N+1, p), stages 0..N
    b: np.ndarray        # (N+1, p)
    rho_o: float
    w_bar: float

    @property
    def horizon(self):
        return len(self.a) - 1

    @property
    def e_bar_inf(self):
        return self.w_bar / (1.0 - self.rho_o)


def build_schedule(cert, spec, n_horizon):
    """Populate the margin recursions a_0..a_N, b_0..b_N."""
    a = [np.asarray(spec.c_o, dtype=float).copy()]
    b = [np.zeros_like(a[0])]
    for i in range(n_horizon):
        a.append(spec.rho_o * a[i] + cert.rho_s ** i * cert.c_su * spec.L_max * cert.c_s)
        b.append(b[i] + a[i] * spec.w_bar)
    return TighteningSchedule(a=np.array(a), b=np.array(b), rho_o=spec.rho_o,
                              w_bar=spec.w_bar)


def eo_step(e_o, rho_o, w_bar):
    """Affine proxy update for the observer-error bound."""
    if e_o < 0:
        raise ValueError("e_o must be nonnegative")
    return rho_o * e_o + w_bar


def compute_pf(a_delta, q):
    """Terminal matrix: A^T P A - P = -1.1 q I, q the largest state weight."""
    return solve_discrete_lyapunov(np.asarray(a_delta, dtype=float), 1.1 * q * np.eye(2))


@dataclass
class TerminalData:
    """Terminal cost matrix and the current terminal-set radius."""

    P_f: np.ndarray
    alpha_k: float = 0.0
    lam_min: float = field(init=False)

    def __post_init__(self):
        self.P_f = np.asarray(self.P_f, dtype=float)
        self.lam_min = eig_extrema_spd(self.P_f)[0]


def terminal_alpha(sched, term, w_y, y0, y_lb, y_ub, d_max, e_o):
    """Radius of the terminal level set for the current set-point.

    Positive only while the set-point keeps enough margin from both output
    bounds once the stage-N tightening and twice the disturbance bound are
    subtracted, i.e. lies strictly inside ``admissible_band``. A set-point
    on an edge of the band or outside it is inadmissible, even where the
    radius rounds to a positive value.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    y_lb = np.broadcast_to(np.asarray(y_lb, dtype=float), y0.shape)
    y_ub = np.broadcast_to(np.asarray(y_ub, dtype=float), y0.shape)
    margin = _terminal_margin(sched, d_max, e_o)
    sq = np.sqrt(term.lam_min)
    alpha = np.inf
    for j in range(len(y0)):
        wy = np.linalg.norm(w_y[j])
        a_ub = sq / wy * (y_ub[j] - y0[j] - margin[j])
        a_lb = sq / wy * (y0[j] - y_lb[j] - margin[j])
        if a_ub <= 0.0 or y0[j] >= y_ub[j] - margin[j]:
            raise InfeasibleSetpointError(f"set-point too close to upper bound on output {j}")
        if a_lb <= 0.0 or y0[j] <= y_lb[j] + margin[j]:
            raise InfeasibleSetpointError(f"set-point too close to lower bound on output {j}")
        alpha = min(alpha, a_ub, a_lb)
    term.alpha_k = float(alpha)
    return float(alpha)


def admissible_band(sched, y_lb, y_ub, d_max, e_o):
    """Open set-point band (lo, hi) with positive terminal radius (per output)."""
    margin = _terminal_margin(sched, d_max, e_o)
    return np.atleast_1d(y_lb) + margin, np.atleast_1d(y_ub) - margin


def _terminal_margin(sched, d_max, e_o):
    """Stage-N output margin a_N max(e_o, e_bar_inf) + b_N + 2 d_max, (p,)."""
    n_h = sched.horizon
    return sched.a[n_h] * max(e_o, sched.e_bar_inf) + sched.b[n_h] + 2.0 * d_max


@dataclass
class MpcSolution:
    """Feasible input plan returned by the optimizer."""

    u_seq: np.ndarray          # (N, m)
    cost: float
    status: str                # "optimal" | "iterate" | "stalled" | "candidate-fallback"
    solver_iterations: int
    max_violation: float
    candidate_violation: float = np.nan   # warm-start plan's own violation


_SQP_MAX_ITER = 50       # SQP iterations per solve
_LINE_SEARCH_MAX = 40    # step halvings before the line search gives up
_STEP_TOL = 1e-10        # stop once max |delta u| falls below this
_FEAS_TOL = 1e-7         # constraint slack counted as feasible


def _tightening(sched, e_o, d_max):
    """Output-bound offsets a_i e_o + b_i + d_max of stages 0..N-1, (N, p)."""
    n_h = sched.horizon
    return sched.a[:n_h] * e_o + sched.b[:n_h] + d_max


def _constraints(w, tight, term, ref, y_lb, y_ub, c, h):
    """Stacked inequality values g <= 0: per stage the tightened upper then
    lower output bound, then the terminal set. ``tight`` is _tightening's."""
    n_h = len(tight)
    y_pred = h[:n_h] @ w.W_y.T + w.b_y      # outputs at stages 0..N-1
    g = np.empty(2 * w.p * n_h + 1)
    g_out = g[:-1].reshape(n_h, 2, w.p)
    g_out[:, 0] = y_pred + tight - y_ub
    g_out[:, 1] = y_lb + tight - y_pred
    ec = np.linalg.norm(c[n_h] - ref.x_bar.c)
    eh = np.linalg.norm(h[n_h] - ref.x_bar.h)
    ev = np.array([ec, eh])
    g[-1] = float(ev @ term.P_f @ ev) - term.alpha_k ** 2
    return g, ev


def _dense_qp(hess, grad, a_mat, b_vec):
    """min 1/2 d'Hd + grad'd subject to A d <= b, for symmetric positive definite H.

    Solves the dual min 1/2 lam'M lam + (b - A d0)'lam over lam >= 0, with
    M = A H^-1 A' and d0 = -H^-1 grad, by a Lawson-Hanson active-set
    method; the dual gradient M lam + b - A d0 is the primal slack
    b - A d. Returns (d, lam), or None when the method breaks down
    (a singular active set or no convergence, as on an infeasible QP).
    """
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


def solve_fhocp(w, spec, sched, term, x_hat, e_o, ref, y_lb, y_ub,
                warm=None, q_weight=1.0, r_weight=1.0, real_time=False):
    """Single-shooting SQP solve of the tightened problem.

    ``warm`` is the initial input plan (N, m); when omitted the plan is
    the constant equilibrium input. Falls back to the warm start whenever
    the optimizer cannot improve on a feasible one. With ``real_time`` the
    SQP also stops after its first iteration that ends feasible; a plan it
    returns before the step test passed has status "iterate", not
    "optimal". A plan is "optimal" only when the step test passed; when
    the iteration cap, a failed line search or a failed QP ended the loop
    first it is "stalled". Repeated warm-started calls converge to the
    same plan as the default mode.
    """
    n_h = sched.horizon
    m, p = w.m, w.p
    n_u = n_h * m
    d_max = spec.d_max
    u_max = w.u_max
    x_bar = np.concatenate([ref.x_bar.c, ref.x_bar.h])
    u_bar = ref.u_bar
    y_lb = np.atleast_1d(np.asarray(y_lb, dtype=float))
    y_ub = np.atleast_1d(np.asarray(y_ub, dtype=float))
    tight = _tightening(sched, e_o, d_max)
    p2 = 2.0 * term.P_f
    eye = np.eye(n_u)
    n_g0 = 2 * p               # stage-0 output rows: independent of u

    def evaluate(u_seq):
        c, h, cache = lstm.rollout(w, x_hat.c, x_hat.h, u_seq)
        g, ev = _constraints(w, tight, term, ref, y_lb, y_ub, c, h)
        dx = np.hstack([c[:n_h], h[:n_h]]) - x_bar
        cost = q_weight * float((dx ** 2).sum()) \
            + r_weight * float(((u_seq - u_bar) ** 2).sum()) \
            + float(ev @ term.P_f @ ev)
        return cost, g, (c, h, cache, ev, dx)

    def qp_model(u_seq, g, aux, lam_term):
        # Exact gradient, generalized Gauss-Newton Hessian and the
        # linearized constraints A d <= b (output rows of stages 1..N-1,
        # the terminal row, then the input box). ``lam_term`` is the
        # terminal row's last multiplier: phi enters the Lagrangian as
        # (1 + lam_term) phi, so its curvature does too.
        c, h, cache, ev, dx = aux
        s_c, s_h = lstm.sensitivities(w, c, cache)
        s_x = np.concatenate([s_c[1:n_h], s_h[1:n_h]], axis=1).reshape(-1, n_u)
        grad = 2.0 * q_weight * (dx[1:].ravel() @ s_x) \
            + 2.0 * r_weight * (u_seq - u_bar).ravel()
        hess = 2.0 * q_weight * (s_x.T @ s_x) + 2.0 * r_weight * eye
        # Terminal phi = ev'P_f ev: exact Hessian in (c_N, h_N), carried
        # through S_N; v_j = e_hat_j' S_N is d(ev_j)/du.
        g_ev = p2 @ ev
        k_t = 1.0 + lam_term
        v = np.zeros((2, n_u))
        for j, (e, s) in enumerate(((c[n_h] - ref.x_bar.c, s_c[n_h]),
                                    (h[n_h] - ref.x_bar.h, s_h[n_h]))):
            ss = s.T @ s
            if ev[j] > 0.0:
                v[j] = (e / ev[j]) @ s
                hess += k_t * max(g_ev[j], 0.0) / ev[j] * (ss - np.outer(v[j], v[j]))
            else:
                hess += k_t * p2[j, j] * ss
        hess += k_t * (v.T @ p2 @ v)
        d_term = g_ev @ v
        grad += d_term
        out = w.W_y @ s_h[1:n_h]           # (N-1, p, N*m)
        a_mat = np.vstack([np.stack([out, -out], axis=1).reshape(-1, n_u),
                           d_term, eye, -eye])
        u_flat = u_seq.ravel()
        b_vec = np.concatenate([-g[n_g0:], u_max - u_flat, u_max + u_flat])
        return grad, hess, a_mat, b_vec

    def project(u_seq):
        return np.minimum(np.maximum(u_seq, -u_max), u_max)

    def merit(cost, g, nu):
        return cost + nu * float(np.maximum(g, 0.0).sum())

    u0 = np.tile(u_bar, (n_h, 1)) if warm is None else np.asarray(warm, dtype=float).reshape(n_h, m)
    u0 = project(u0)

    cand_cost, cand_g, cand_aux = evaluate(u0)
    cand_feasible = float(np.max(cand_g)) <= _FEAS_TOL

    u, cost, g, aux = u0, cand_cost, cand_g, cand_aux
    best_u, best_cost, best_g = None, np.inf, None
    nu = 0.0                   # l1 merit weight, never decreased
    lam_term = 0.0
    n_g = len(cand_g) - n_g0   # QP rows that linearize g
    iterations = 0
    stop = "stalled"           # until the step test or the real-time stop ends the loop
    for _ in range(_SQP_MAX_ITER):
        iterations += 1
        grad, hess, a_mat, b_vec = qp_model(u, g, aux, lam_term)
        qp = _dense_qp(hess, grad, a_mat, b_vec)
        if qp is None:
            break
        d, lam = qp
        lam_term = float(lam[n_g - 1])
        nu = max(nu, 1.1 * float(np.max(lam[:n_g])))
        d = d.reshape(n_h, m)
        # a step this small is taken as is: rounding can fail Armijo on it
        tiny = float(np.max(np.abs(d))) < _STEP_TOL
        ref_val = merit(cost, g, nu)
        slope = float(grad @ d.ravel()) - nu * float(np.maximum(g[n_g0:], 0.0).sum())
        t = 1.0
        for _ls in range(_LINE_SEARCH_MAX):
            u_t = project(u + t * d)
            cost_t, g_t, aux_t = evaluate(u_t)
            if tiny or merit(cost_t, g_t, nu) <= ref_val + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        step = float(np.max(np.abs(u_t - u)))
        u, cost, g, aux = u_t, cost_t, g_t, aux_t
        if float(np.max(g)) <= _FEAS_TOL and cost < best_cost:
            best_u, best_cost, best_g = u, cost, g
        if step < _STEP_TOL:
            stop = "optimal"
            break
        if real_time and float(np.max(g)) <= _FEAS_TOL:
            stop = "iterate"
            break
    if u is not u0 and float(np.max(g)) <= _FEAS_TOL:
        # A feasible stopping point is the solution: an earlier iterate can
        # undercut its cost only by spending the _FEAS_TOL slack.
        best_u, best_cost, best_g = u, cost, g

    use_candidate = False
    if best_u is None:
        if not cand_feasible:
            raise FeasibilityLossError(
                f"no feasible input plan (candidate violation {float(np.max(cand_g)):.3g})")
        use_candidate = True
    elif cand_feasible and cand_cost < best_cost:
        use_candidate = True

    if use_candidate:
        u_fin, cost_fin, g_fin = u0, cand_cost, cand_g
        status = "candidate-fallback"
    else:
        u_fin, cost_fin, g_fin = best_u, best_cost, best_g
        status = stop
    return MpcSolution(u_seq=u_fin, cost=cost_fin, status=status,
                       solver_iterations=iterations,
                       max_violation=float(np.max(g_fin)),
                       candidate_violation=float(np.max(cand_g)))


def shifted_candidate(prev_solution, u_bar):
    """Left-shift the previous plan and append the new equilibrium input."""
    u_prev = np.asarray(prev_solution.u_seq, dtype=float)
    return np.vstack([u_prev[1:], np.atleast_1d(u_bar)[None, :]])


def candidate_violation(w, spec, sched, term, x_hat, e_o, ref, y_lb, y_ub, u_seq):
    """Max constraint value of a given plan (<= 0 means feasible)."""
    c, h, _ = lstm.rollout(w, x_hat.c, x_hat.h,
                           np.asarray(u_seq, dtype=float).reshape(sched.horizon, w.m))
    g, _ = _constraints(w, _tightening(sched, e_o, spec.d_max), term, ref,
                        y_lb, y_ub, c, h)
    if np.max(np.abs(np.asarray(u_seq))) > w.u_max * (1 + 1e-12):
        return float(max(np.max(g), np.max(np.abs(u_seq)) - w.u_max))
    return float(np.max(g))


@dataclass
class ControllerConfig:
    horizon: int = 5
    q_weight: float = 1.0
    r_weight: float = 1.0
    e_o0: float = 0.5
    y_lb: float | np.ndarray = -1.0
    y_ub: float | np.ndarray = 1.0


class Controller:
    """Receding-horizon wrapper: holds warm-start and the e_o recursion.

    Each step is one real-time solve of ``solve_fhocp``, warm-started at
    the shifted previous plan, which stops at the first feasible SQP
    iterate. The applied plan is the cheaper feasible one of that iterate
    and the shifted candidate; its status is "iterate", "optimal" when the
    step test passed first, "stalled" when the iteration cap or a failed
    line search came first, or "candidate-fallback".
    """

    def __init__(self, w, cert, spec, config=None):
        self.w = w
        self.spec = spec
        self.config = config or ControllerConfig()
        self.sched = build_schedule(cert, spec, self.config.horizon)
        self.term = TerminalData(P_f=compute_pf(cert.A_delta, self.config.q_weight))
        self.e_o = self.config.e_o0
        self.prev_solution = None
        self.prev_ref = None

    def step(self, chi_hat, y0):
        """Compute the input for the current estimate and set-point."""
        cfg = self.config
        y_lb = np.atleast_1d(np.asarray(cfg.y_lb, dtype=float))
        y_ub = np.atleast_1d(np.asarray(cfg.y_ub, dtype=float))
        ref = refcalc.solve_reference(self.w, y0, chi_hat.d,
                                      warm_start=self.prev_ref)
        terminal_alpha(self.sched, self.term, self.w.W_y, y0, y_lb, y_ub,
                       self.spec.d_max, self.e_o)
        warm = shifted_candidate(self.prev_solution, ref.u_bar) \
            if self.prev_solution is not None else None
        sol = solve_fhocp(self.w, self.spec, self.sched, self.term,
                          chi_hat.x, self.e_o, ref, y_lb, y_ub, warm=warm,
                          q_weight=cfg.q_weight, r_weight=cfg.r_weight,
                          real_time=True)
        self.prev_solution = sol
        self.prev_ref = ref
        self.e_o = eo_step(self.e_o, self.spec.rho_o, self.spec.w_bar)
        return sol.u_seq[0], sol, ref
