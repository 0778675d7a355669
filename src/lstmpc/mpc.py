"""Robust output-constrained MPC with constraint tightening.

Each controller step solves a finite-horizon optimal control problem on
the identified model: quadratic tracking cost toward the equilibrium
produced by the reference calculator, output bounds tightened along the
horizon by coefficients (a_i, b_i) that account for the observer error
proxy e_o, disturbance uncertainty and model contraction, and a terminal
level-set constraint whose radius alpha(k) shrinks with the admissible
set-point margin. The solver is single shooting with an augmented
Lagrangian over the N*m free inputs, minimized by projected
Barzilai-Borwein steps with nonmonotone Armijo backtracking. The
tightened output offsets are fixed for one solve; predictions come from
``lstm.rollout`` and the gradient from ``lstm.adjoint`` fed with this
problem's stage adjoints. The left-shifted previous optimum (with the
new equilibrium input appended) is both the warm start and a certified
feasible fallback.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lstm
from .errors import FeasibilityLossError, InfeasibleSetpointError
from .lstm import LstmState
from .numerics import eig_extrema_spd, solve_discrete_lyapunov


@dataclass
class TighteningSchedule:
    """Per-stage output-constraint margins y_ub - a_i e_o - b_i."""

    a: list
    b: list
    rho_o: float
    rho_s: float
    c_su: float
    L_max: float
    w_bar: float
    c_s: np.ndarray
    c_o: np.ndarray

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
    return TighteningSchedule(a=a, b=b, rho_o=spec.rho_o, rho_s=cert.rho_s,
                              c_su=cert.c_su, L_max=spec.L_max, w_bar=spec.w_bar,
                              c_s=np.asarray(cert.c_s, dtype=float),
                              c_o=np.asarray(spec.c_o, dtype=float))


def eo_step(e_o, rho_o, w_bar):
    """Affine proxy update for the observer-error bound."""
    if e_o < 0:
        raise ValueError("e_o must be nonnegative")
    return rho_o * e_o + w_bar


def compute_pf(a_delta, q, margin=0.1):
    """Terminal matrix: A^T P A - P = -(q + margin*q) I, strict with slack."""
    return solve_discrete_lyapunov(np.asarray(a_delta, dtype=float),
                                   (1.0 + margin) * q * np.eye(2))


@dataclass
class TerminalData:
    """Terminal cost matrix and the current terminal-set radius."""

    P_f: np.ndarray
    q: float
    alpha_k: float = 0.0
    e_tilde: float = 0.0
    lam_min: float = field(init=False)

    def __post_init__(self):
        self.P_f = np.asarray(self.P_f, dtype=float)
        self.lam_min = eig_extrema_spd(self.P_f)[0]


def terminal_alpha(sched, term, w_y, y0, y_lb, y_ub, d_max, e_o):
    """Radius of the terminal level set for the current set-point.

    Positive only while the set-point keeps enough margin from both output
    bounds once the stage-N tightening and twice the disturbance bound are
    subtracted; a nonpositive radius is an inadmissible set-point.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    y_lb = np.atleast_1d(np.asarray(y_lb, dtype=float))
    y_ub = np.atleast_1d(np.asarray(y_ub, dtype=float))
    e_tilde = max(e_o, sched.e_bar_inf)
    n_h = sched.horizon
    sq = np.sqrt(term.lam_min)
    alpha = np.inf
    for j in range(len(y0)):
        wy = np.linalg.norm(w_y[j])
        margin = sched.a[n_h][j] * e_tilde + sched.b[n_h][j] + 2.0 * d_max
        a_ub = sq / wy * (y_ub[j] - y0[j] - margin)
        a_lb = sq / wy * (y0[j] - y_lb[j] - margin)
        if a_ub <= 0.0:
            raise InfeasibleSetpointError(f"set-point too close to upper bound on output {j}")
        if a_lb <= 0.0:
            raise InfeasibleSetpointError(f"set-point too close to lower bound on output {j}")
        alpha = min(alpha, a_ub, a_lb)
    term.alpha_k = float(alpha)
    term.e_tilde = float(e_tilde)
    return float(alpha)


def admissible_band(sched, term, y_lb, y_ub, d_max, e_o):
    """(lo, hi) set-point band with positive terminal radius (per output)."""
    e_tilde = max(e_o, sched.e_bar_inf)
    n_h = sched.horizon
    margin = sched.a[n_h] * e_tilde + sched.b[n_h] + 2.0 * d_max
    return np.atleast_1d(y_lb) + margin, np.atleast_1d(y_ub) - margin


@dataclass
class MpcSolution:
    """Feasible input plan returned by the optimizer."""

    u_seq: np.ndarray          # (N, m)
    x_seq: list                # LstmState, 0..N
    cost: float
    status: str                # "optimal" | "candidate-fallback"
    solver_iterations: int
    max_violation: float
    candidate_violation: float = np.nan   # warm-start plan's own violation


def _tightening(sched, e_o, d_max):
    """Output-bound offsets a_i e_o + b_i + d_max of stages 0..N-1, (N, p)."""
    n_h, p = sched.horizon, len(sched.a[0])
    a = np.asarray(sched.a[:n_h], dtype=float).reshape(n_h, p)
    b = np.asarray(sched.b[:n_h], dtype=float).reshape(n_h, p)
    return a * e_o + b + d_max


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


def solve_fhocp(w, cert, spec, sched, term, x_hat, e_o, ref, y_lb, y_ub,
                warm=None, q_weight=1.0, r_weight=1.0, feas_tol=1e-7,
                mu0=10.0, mu_max=1e6, outer_max=12, inner_max=400,
                grad_tol=1e-9):
    """Single-shooting augmented-Lagrangian solve of the tightened problem.

    ``warm`` is the initial input plan (N, m); when omitted the plan is
    the constant equilibrium input. Falls back to the warm start whenever
    the optimizer cannot improve on a feasible one.
    """
    n_h = sched.horizon
    m = w.m
    d_max = spec.d_max
    u_max = w.u_max
    x_bar = np.concatenate([ref.x_bar.c, ref.x_bar.h])
    u_bar = ref.u_bar
    y_lb = np.atleast_1d(np.asarray(y_lb, dtype=float))
    y_ub = np.atleast_1d(np.asarray(y_ub, dtype=float))
    stacks = lstm.stacked(w)
    tight = _tightening(sched, e_o, d_max)

    def evaluate(u_seq):
        c, h, cache = lstm.rollout(w, x_hat.c, x_hat.h, u_seq, stacks=stacks)
        g, ev = _constraints(w, tight, term, ref, y_lb, y_ub, c, h)
        dx = np.hstack([c[:n_h], h[:n_h]]) - x_bar
        cost = q_weight * float((dx ** 2).sum()) \
            + r_weight * float(((u_seq - u_bar) ** 2).sum()) \
            + float(ev @ term.P_f @ ev)
        return cost, g, (c, h, cache, ev, dx)

    def al_value(u_seq, lam, mu):
        cost, g, aux = evaluate(u_seq)
        act = np.maximum(0.0, lam + mu * g)
        val = cost + float((act ** 2 - lam ** 2).sum()) / (2.0 * mu)
        return val, cost, g, aux, act

    def al_grad(u_seq, aux, act):
        # Stage adjoints of the smooth augmented objective.
        c, h, cache, ev, dx = aux
        n = w.n
        dc_stage = np.zeros((n_h + 1, n))
        dh_stage = np.zeros((n_h + 1, n))
        du_stage = 2.0 * r_weight * (u_seq - u_bar)
        dc_stage[:n_h] += 2.0 * q_weight * dx[:, :n]
        dh_stage[:n_h] += 2.0 * q_weight * dx[:, n:]
        act_out = act[:-1].reshape(n_h, 2, w.p)
        dh_stage[:n_h] += (act_out[:, 0, :] - act_out[:, 1, :]) @ w.W_y
        # Terminal: cost term + constraint multiplier share a factor.
        ec, eh = ev
        coef = 1.0 + act[-1]
        pe = term.P_f @ ev
        if ec > 0.0:
            dc_stage[n_h] += coef * 2.0 * pe[0] * (c[n_h] - ref.x_bar.c) / ec
        if eh > 0.0:
            dh_stage[n_h] += coef * 2.0 * pe[1] * (h[n_h] - ref.x_bar.h) / eh
        dz = lstm.adjoint(w, c, cache, dc_stage, dh_stage, stacks)
        return du_stage + dz @ stacks[0]

    def project(u_seq):
        return np.minimum(np.maximum(u_seq, -u_max), u_max)

    u0 = np.tile(u_bar, (n_h, 1)) if warm is None else np.asarray(warm, dtype=float).reshape(n_h, m)
    u0 = project(u0)

    cand_cost, cand_g, cand_aux = evaluate(u0)
    cand_feasible = float(np.max(cand_g)) <= feas_tol

    u = u0.copy()
    lam = np.zeros(2 * w.p * n_h + 1)
    mu = mu0
    best_u, best_cost = None, np.inf
    iterations = 0
    for _outer in range(outer_max):
        val, cost, g, aux, act = al_value(u, lam, mu)
        grad = al_grad(u, aux, act)
        prev_u = prev_grad = None
        pg_norm = np.inf
        recent = [val]      # nonmonotone line-search reference window
        for _inner in range(inner_max):
            iterations += 1
            pg_norm = float(np.linalg.norm(u - project(u - grad)))
            if pg_norm < grad_tol:
                break
            # Spectral (Barzilai-Borwein) initial step with nonmonotone
            # Armijo backtracking (reference = worst of the last 10 values).
            if prev_u is None:
                step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
            else:
                su = u - prev_u
                sg = grad - prev_grad
                denom = float((su * sg).sum())
                step = float((su * su).sum()) / denom if denom > 1e-300 else 1.0
                step = min(max(step, 1e-10), 1e10)
            val_ref = max(recent)
            improved = False
            for _ls in range(40):
                u_new = project(u - step * grad)
                val_new, cost_n, g_n, aux_n, act_n = al_value(u_new, lam, mu)
                if val_new <= val_ref + 1e-4 * float((grad * (u_new - u)).sum()):
                    prev_u, prev_grad = u, grad
                    u, val, cost, g = u_new, val_new, cost_n, g_n
                    grad = al_grad(u_new, aux_n, act_n)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            recent.append(val)
            if len(recent) > 10:
                recent.pop(0)
        viol = float(np.max(g))
        if viol <= feas_tol and cost < best_cost:
            best_u, best_cost = u.copy(), cost
        lam = np.maximum(0.0, lam + mu * g)
        if viol <= feas_tol and pg_norm < 10.0 * grad_tol:
            break
        mu = min(mu * 10.0, mu_max)

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
        c, h = cand_aux[0], cand_aux[1]
    else:
        u_fin, cost_fin = best_u, best_cost
        _, g_fin, (c, h, *_) = evaluate(u_fin)
        status = "optimal"
    x_seq = [LstmState(c[k].copy(), h[k].copy()) for k in range(n_h + 1)]
    return MpcSolution(u_seq=u_fin, x_seq=x_seq, cost=cost_fin, status=status,
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
    """Receding-horizon wrapper: holds warm-start and the e_o recursion."""

    def __init__(self, w, cert, spec, config=None):
        from . import refcalc   # local import avoids a cycle at module load
        self._refcalc = refcalc
        self.w = w
        self.cert = cert
        self.spec = spec
        self.config = config or ControllerConfig()
        self.sched = build_schedule(cert, spec, self.config.horizon)
        q = self.config.q_weight      # = lambda_max of the diagonal state weight
        self.term = TerminalData(P_f=compute_pf(cert.A_delta, q), q=q)
        self.e_o = self.config.e_o0
        self.prev_solution = None
        self.prev_ref = None

    def step(self, chi_hat, y0):
        """Compute the input for the current estimate and set-point."""
        cfg = self.config
        y_lb = np.atleast_1d(np.asarray(cfg.y_lb, dtype=float))
        y_ub = np.atleast_1d(np.asarray(cfg.y_ub, dtype=float))
        ref = self._refcalc.solve_reference(self.w, y0, chi_hat.d,
                                            warm_start=self.prev_ref)
        terminal_alpha(self.sched, self.term, self.w.W_y, y0, y_lb, y_ub,
                       self.spec.d_max, self.e_o)
        warm = shifted_candidate(self.prev_solution, ref.u_bar) \
            if self.prev_solution is not None else None
        sol = solve_fhocp(self.w, self.cert, self.spec, self.sched, self.term,
                          chi_hat.x, self.e_o, ref, y_lb, y_ub, warm=warm,
                          q_weight=cfg.q_weight, r_weight=cfg.r_weight)
        self.prev_solution = sol
        self.prev_ref = ref
        self.e_o = eo_step(self.e_o, self.spec.rho_o, self.spec.w_bar)
        return sol.u_seq[0], sol, ref
