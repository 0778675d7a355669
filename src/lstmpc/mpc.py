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
the N*m free inputs. Each iteration takes predictions from
``lstm.rollout`` and their input sensitivities from ``lstm.sensitivities``
(the recurrence over ``lstm.step_jacobians``, the model's one
linearization) and builds a dense QP in the step d:

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

from . import lstm, observer, plant, refcalc
from .errors import DimensionError, FeasibilityLossError, InfeasibleSetpointError
from .numerics import eig_extrema_spd, freeze_arrays, solve_discrete_lyapunov, spectral_radius


def build_schedule(cert, spec, n_horizon):
    """The margin recursions a_0..a_N, b_0..b_N, as two (N+1, p) arrays."""
    a = [np.asarray(spec.c_o, dtype=float).copy()]
    b = [np.zeros_like(a[0])]
    for i in range(n_horizon):
        a.append(spec.rho_o * a[i] + cert.rho_s ** i * cert.c_su * spec.L_max * cert.c_s)
        b.append(b[i] + a[i] * spec.w_bar)
    return np.array(a), np.array(b)


def compute_pf(a_delta, q):
    """Terminal matrix: A^T P A - P = -1.1 q I, q the largest state weight."""
    return solve_discrete_lyapunov(np.asarray(a_delta, dtype=float), 1.1 * q * np.eye(2))


@dataclass(frozen=True)
class Certificate:
    """One model's chain of constants, from ``certify``: its contraction
    certificate, the observer spec with its derived constants, the output
    margins y_ub - a_i e_o - b_i of stages 0..N and the terminal matrix P_f
    with its smallest eigenvalue, at one horizon and ``q_weight``;
    ``k_bar`` is (value, argmax) on request. Its arrays are read-only
    copies."""

    model: lstm.StabilityCertificate
    spec: observer.ObserverSpec
    a: np.ndarray        # (N+1, p), stages 0..N
    b: np.ndarray        # (N+1, p)
    P_f: np.ndarray
    q_weight: float
    k_bar: tuple | None = None
    lam_min: float = field(init=False)

    def __post_init__(self):
        freeze_arrays(self)
        object.__setattr__(self, "lam_min", eig_extrema_spd(self.P_f)[0])

    @property
    def horizon(self):
        return len(self.a) - 1

    @property
    def e_bar_inf(self):
        """Fixed point w_bar / (1 - rho_o) of the e_o recursion."""
        return self.spec.w_bar / (1.0 - self.spec.rho_o)

    def next_e_o(self, e_o):
        """Affine proxy update rho_o e_o + w_bar of the observer-error bound."""
        if e_o < 0:
            raise ValueError("e_o must be nonnegative")
        return self.spec.rho_o * e_o + self.spec.w_bar

    def terminal_margin(self, e_o):
        """Stage-N output margin a_N max(e_o, e_bar_inf) + b_N + 2 d_max, (p,)."""
        n_h = self.horizon
        return self.a[n_h] * max(e_o, self.e_bar_inf) + self.b[n_h] + 2.0 * self.spec.d_max

    def admissible_band(self, y_lb, y_ub, e_o):
        """Open set-point band (lo, hi) with positive terminal radius (per output)."""
        margin = self.terminal_margin(e_o)
        return np.atleast_1d(y_lb) + margin, np.atleast_1d(y_ub) - margin

    def terminal_alpha(self, w_y, y0, y_lb, y_ub, e_o):
        """Radius of the terminal level set for the set-point y0, with (p,)
        output bounds y_lb, y_ub.

        Positive only while the set-point keeps enough margin from both
        output bounds once the stage-N tightening and twice the disturbance
        bound are subtracted, i.e. lies strictly inside ``admissible_band``.
        A set-point on an edge of the band or outside it is inadmissible,
        even where the radius rounds to a positive value.
        """
        y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        margin = self.terminal_margin(e_o)
        sq = np.sqrt(self.lam_min)
        alpha = np.inf
        for j in range(len(y0)):
            wy = np.sqrt(w_y[j].dot(w_y[j]))
            a_ub = sq / wy * (y_ub[j] - y0[j] - margin[j])
            a_lb = sq / wy * (y0[j] - y_lb[j] - margin[j])
            if a_ub <= 0.0 or y0[j] >= y_ub[j] - margin[j]:
                raise InfeasibleSetpointError(f"set-point too close to upper bound on output {j}")
            if a_lb <= 0.0 or y0[j] <= y_lb[j] + margin[j]:
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
            "observer": {"rho_A_d": spectral_radius(spec.A_d), "rho_o": spec.rho_o,
                         "c_ol": spec.c_ol, "c_ou": spec.c_ou, "c_o": spec.c_o.tolist(),
                         "L_max": spec.L_max, "w_bar": spec.w_bar,
                         "e_bar_inf": self.e_bar_inf, "P_o": spec.P_o.tolist()},
            "tightening": {"a": self.a.tolist(), "b": self.b.tolist()},
        }
        if self.k_bar is not None:
            doc["k_bar"] = {"value": self.k_bar[0], "argmax": self.k_bar[1]}
        return doc


def certify(w, gains=None, horizon=5, q_weight=1.0, *, d_max=0.1, l_d=0.1, w_bar=0.01,
            k_bar=False):
    """The ``Certificate`` of the weights ``w``.

    ``gains`` is an ``ObserverSpec`` (left unchanged) or the weights' JSON
    observer section, either with its own d_max and w_bar; without gains,
    ``observer.select_gains`` picks them from ``d_max``, ``l_d`` and
    ``w_bar``. ``k_bar`` estimates K_bar over pH 6.5-8.5 and +-d_max.
    """
    if k_bar and (w.u_range is None or w.y_range is None):
        raise ValueError("the K_bar estimate needs weights with u_range and y_range")
    cert = lstm.incremental_lyapunov(w)
    if not gains:
        spec = observer.select_gains(w, d_max=d_max, l_d=l_d, w_bar=w_bar)
    else:
        if isinstance(gains, dict):
            gains = observer.ObserverSpec.from_dict(gains)
        spec = observer.derive_constants(w, gains, w_bar=gains.w_bar)
    estimate = None
    if k_bar:
        nrm = plant.Normalizer(*w.u_range, *w.y_range)
        estimate = refcalc.estimate_k_bar(w, (nrm.normalize_y(6.5), nrm.normalize_y(8.5)),
                                          (-spec.d_max, spec.d_max))
    a, b = build_schedule(cert, spec, horizon)
    return Certificate(cert, spec, a, b, compute_pf(cert.A_delta, q_weight), q_weight, estimate)


@dataclass
class MpcSolution:
    """Feasible input plan returned by the optimizer."""

    u_seq: np.ndarray          # (N, m)
    cost: float
    status: str                # "optimal" | "iterate" | "stalled" | "candidate-fallback"
    solver_iterations: int
    max_violation: float
    candidate_violation: float  # warm-start plan's own violation


_SQP_MAX_ITER = 50       # SQP iterations per solve
_LINE_SEARCH_MAX = 40    # step halvings before the line search gives up
_STEP_TOL = 1e-10        # stop once max |delta u| falls below this
_FEAS_TOL = 1e-7         # constraint slack counted as feasible


@dataclass
class Problem:
    """The tightened FHOCP of one control step, from ``Controller.problem_at``.

    ``tight`` holds the output-bound offsets a_i e_o + b_i + d_max of
    stages 0..N-1, (N, p); ``y_lb`` and ``y_ub`` are (p,).
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

    def evaluate(self, u_seq):
        """(cost, g, aux) of the (N, m) plan ``u_seq``. g <= 0 stacks per
        stage the tightened upper then lower output bound, then the
        terminal set; aux is the rollout that ``qp_model`` linearizes,
        with the state errors dx of stages 0..N, (N+1, 2n)."""
        w, ref, n_h = self.w, self.ref, len(self.tight)
        c, h, cache = lstm.rollout(w, self.x_hat.c, self.x_hat.h, u_seq)
        y_pred = h[:n_h] @ w.W_y.T + w.b_y      # outputs at stages 0..N-1
        g = np.empty(2 * w.p * n_h + 1)
        g_out = g[:-1].reshape(n_h, 2, w.p)
        g_out[:, 0] = y_pred + self.tight - self.y_ub
        g_out[:, 1] = self.y_lb + self.tight - y_pred
        dx = np.concatenate((c - ref.x_bar.c, h - ref.x_bar.h), axis=1)
        e_c, e_h = dx[n_h].reshape(2, w.n)
        ev = np.sqrt([e_c.dot(e_c), e_h.dot(e_h)])      # the two terminal 2-norms
        phi = float(ev @ self.P_f @ ev)
        g[-1] = phi - self.alpha ** 2
        cost = self.q_weight * float((dx[:n_h] ** 2).sum()) \
            + self.r_weight * float(((u_seq - ref.u_bar) ** 2).sum()) + phi
        return cost, g, (c, h, cache, ev, dx)

    def qp_model(self, u_seq, g, aux, lam_term):
        """The SQP's QP at ``u_seq``: exact gradient, generalized Gauss-Newton
        Hessian and linearized constraints A d <= b (output rows of stages
        1..N-1, the terminal row, then the input box). ``lam_term`` is the
        terminal row's last multiplier: phi enters the Lagrangian as
        (1 + lam_term) phi, so its curvature does too."""
        w, ref, n_h = self.w, self.ref, len(self.tight)
        n_u = n_h * w.m
        c, h, cache, ev, dx = aux
        s = lstm.sensitivities(w, c, cache)     # (N+1, 2n, N*m), rows c then h
        s_x = s[1:n_h].reshape(-1, n_u)         # stages 1..N-1, laid out like dx[1:N]
        eye = np.eye(n_u)
        grad = 2.0 * self.q_weight * (dx[1:n_h].ravel() @ s_x) \
            + 2.0 * self.r_weight * (u_seq - ref.u_bar).ravel()
        hess = 2.0 * self.q_weight * (s_x.T @ s_x) + 2.0 * self.r_weight * eye
        # Terminal phi = ev'P_f ev: exact Hessian in (c_N, h_N), carried
        # through S_N; v_j = e_hat_j' S_N is d(ev_j)/du.
        p2 = 2.0 * self.P_f
        g_ev = p2 @ ev
        k_t = 1.0 + lam_term
        v = np.zeros((2, n_u))
        for j, (e, s_j) in enumerate(zip(dx[n_h].reshape(2, w.n),
                                         s[n_h].reshape(2, w.n, n_u))):   # S_N's c, h rows
            ss = s_j.T @ s_j
            if ev[j] > 0.0:
                v[j] = (e / ev[j]) @ s_j
                hess += k_t * max(g_ev[j], 0.0) / ev[j] * (ss - v[j][:, None] * v[j])
            else:
                hess += k_t * p2[j, j] * ss
        hess += k_t * (v.T @ p2 @ v)
        d_term = g_ev @ v
        grad += d_term
        out = w.W_y @ s[1:n_h, w.n:]            # (N-1, p, N*m)
        out_rows = np.concatenate((out, -out), axis=1).reshape(-1, n_u)   # upper, lower per stage
        a_mat = np.concatenate((out_rows, d_term[None], eye, -eye))
        u_flat = u_seq.ravel()
        b_vec = np.concatenate([-g[2 * w.p:], w.u_max - u_flat, w.u_max + u_flat])
        return grad, hess, a_mat, b_vec


def _dense_qp(hess, grad, a_mat, b_vec):
    """min 1/2 d'Hd + grad'd subject to A d <= b, for symmetric positive definite H.

    Solves the dual min 1/2 lam'M lam + (b - A d0)'lam over lam >= 0, with
    M = A H^-1 A' and d0 = -H^-1 grad, by a Lawson-Hanson active-set
    method; the dual gradient M lam + b - A d0 is the primal slack
    b - A d. When d0 violates no row, lam = 0 is the dual's solution and
    M is never formed. Returns (d, lam), or None when the method breaks
    down (a singular active set or no convergence, as on an infeasible QP).
    """
    sol = np.linalg.solve(hess, np.column_stack([grad, a_mat.T]))
    d0, h_at = -sol[:, 0], sol[:, 1:]
    q = b_vec - a_mat @ d0
    tol = 1e-12 * max(1.0, float(abs(q).max()))
    lam = np.zeros(len(q))
    if q.min() >= -tol:
        return d0, lam
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
    the constant equilibrium input. Falls back to the warm start whenever
    the optimizer cannot improve on a feasible one. With ``real_time`` the
    SQP also stops after its first iteration that ends feasible; a plan it
    returns before the step test passed has status "iterate", not
    "optimal". A plan is "optimal" only when the step test passed; when
    the iteration cap, a failed line search or a failed QP ended the loop
    first it is "stalled". Repeated warm-started calls converge to the
    same plan as the default mode.
    """
    n_h, m, u_max = len(problem.tight), problem.w.m, problem.w.u_max
    n_g0 = 2 * problem.w.p     # stage-0 output rows: independent of u

    def project(u_seq):
        return np.minimum(np.maximum(u_seq, -u_max), u_max)

    def merit(cost, g, nu):
        return cost + nu * float(np.maximum(g, 0.0).sum())

    u0 = np.tile(problem.ref.u_bar, (n_h, 1)) if warm is None \
        else np.asarray(warm, dtype=float).reshape(n_h, m)
    u0 = project(u0)

    cand_cost, cand_g, cand_aux = problem.evaluate(u0)
    cand_feasible = float(cand_g.max()) <= _FEAS_TOL

    u, cost, g, aux = u0, cand_cost, cand_g, cand_aux
    best_u, best_cost, best_g = None, np.inf, None
    nu = 0.0                   # l1 merit weight, never decreased
    lam_term = 0.0
    n_g = len(cand_g) - n_g0   # QP rows that linearize g
    iterations = 0
    stop = "stalled"           # until the step test or the real-time stop ends the loop
    for iterations in range(1, _SQP_MAX_ITER + 1):
        grad, hess, a_mat, b_vec = problem.qp_model(u, g, aux, lam_term)
        qp = _dense_qp(hess, grad, a_mat, b_vec)
        if qp is None:
            break
        d, lam = qp
        lam_term = float(lam[n_g - 1])
        nu = max(nu, 1.1 * float(lam[:n_g].max()))
        d = d.reshape(n_h, m)
        # a step this small is taken as is: rounding can fail Armijo on it
        tiny = float(abs(d).max()) < _STEP_TOL
        ref_val = merit(cost, g, nu)
        slope = float(grad @ d.ravel()) - nu * float(np.maximum(g[n_g0:], 0.0).sum())
        t = 1.0
        for _ls in range(_LINE_SEARCH_MAX):
            u_t = project(u + t * d)
            cost_t, g_t, aux_t = problem.evaluate(u_t)
            if tiny or merit(cost_t, g_t, nu) <= ref_val + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        step = float(abs(u_t - u).max())
        u, cost, g, aux = u_t, cost_t, g_t, aux_t
        if float(g.max()) <= _FEAS_TOL and cost < best_cost:
            best_u, best_cost, best_g = u, cost, g
        if step < _STEP_TOL:
            stop = "optimal"
            break
        if real_time and float(g.max()) <= _FEAS_TOL:
            stop = "iterate"
            break
    if u is not u0 and float(g.max()) <= _FEAS_TOL:
        # A feasible stopping point is the solution: an earlier iterate can
        # undercut its cost only by spending the _FEAS_TOL slack.
        best_u, best_cost, best_g = u, cost, g

    if best_u is None and not cand_feasible:
        raise FeasibilityLossError(
            f"no feasible input plan (candidate violation {float(cand_g.max()):.3g})")
    if cand_feasible and (best_u is None or cand_cost < best_cost):
        best_u, best_cost, best_g, stop = u0, cand_cost, cand_g, "candidate-fallback"
    return MpcSolution(u_seq=best_u, cost=best_cost, status=stop,
                       solver_iterations=iterations,
                       max_violation=float(best_g.max()),
                       candidate_violation=float(cand_g.max()))


def shifted_candidate(prev_solution, u_bar):
    """Left-shift the previous plan and append the new equilibrium input."""
    u_prev = np.asarray(prev_solution.u_seq, dtype=float)
    return np.concatenate((u_prev[1:], np.atleast_1d(u_bar)[None, :]))


@dataclass
class ControllerConfig:
    r_weight: float = 1.0
    e_o0: float = 0.5
    y_lb: float | np.ndarray = -1.0
    y_ub: float | np.ndarray = 1.0


class Controller:
    """Receding-horizon wrapper: holds warm-start and the e_o recursion.

    The ``certificate`` fixes the horizon, state weight, margins and P_f.
    Each step builds its ``Problem``, kept as ``problem`` until the next,
    and solves it once in real time, warm-started at the shifted previous
    plan. The applied plan is the cheaper feasible one of the first
    feasible SQP iterate and the shifted candidate; its status is
    "iterate", "optimal" when the step test passed first, "stalled" when
    the iteration cap or a failed line search came first, or
    "candidate-fallback".
    """

    def __init__(self, w, certificate, config=None):
        self.w = w
        self.certificate = certificate
        self.config = config or ControllerConfig()
        bounds = []
        for name in ("y_lb", "y_ub"):
            bound = np.atleast_1d(np.asarray(getattr(self.config, name), dtype=float))
            if bound.shape not in ((1,), (w.p,)):
                raise DimensionError(f"{name} has shape {bound.shape}; "
                                     f"the model has {w.p} output(s)")
            bounds.append(np.broadcast_to(bound, (w.p,)))
        self.y_lb, self.y_ub = bounds
        bad = np.flatnonzero(~(self.y_lb < self.y_ub))
        if bad.size:
            raise ValueError(f"y_lb is not below y_ub on output {bad[0]}")
        self.e_o = self.config.e_o0
        self.problem = self.prev_solution = self.prev_ref = None

    def problem_at(self, x_hat, ref, y0):
        """The tightened FHOCP at the current e_o from the estimate
        ``x_hat`` toward ``ref``, with the terminal radius of the set-point
        ``y0``; raises InfeasibleSetpointError outside the admissible band."""
        cert, e_o = self.certificate, self.e_o
        alpha = cert.terminal_alpha(self.w.W_y, y0, self.y_lb, self.y_ub, e_o)
        n_h = cert.horizon
        return Problem(self.w, x_hat, ref, cert.a[:n_h] * e_o + cert.b[:n_h] + cert.spec.d_max,
                       self.y_lb, self.y_ub, cert.P_f, alpha,
                       cert.q_weight, self.config.r_weight)

    def step(self, chi_hat, y0):
        """Compute the input for the current estimate and set-point."""
        ref = refcalc.solve_reference(self.w, y0, chi_hat.d,
                                      warm_start=self.prev_ref)
        self.problem = self.problem_at(chi_hat.x, ref, y0)
        warm = shifted_candidate(self.prev_solution, ref.u_bar) \
            if self.prev_solution is not None else None
        sol = solve_fhocp(self.problem, warm=warm, real_time=True)
        self.prev_solution = sol
        self.prev_ref = ref
        self.e_o = self.certificate.next_e_o(self.e_o)
        return sol.u_seq[0], sol, ref
