"""Equilibrium reference calculator.

Solves x = f(x, u), y0 = g(x) + d_hat for the model state/input pair the
controller tracks. Only y0 - d_hat enters, so the equilibria form a curve
in it, which ``_track`` follows by predictor-corrector continuation
(Allgower & Georg, *Numerical Continuation Methods*, 1990). The corrector
is the simplified Newton method (Deuflhard, *Newton Methods for Nonlinear
Problems*, 2004) on one ``lstm`` kernel step per iterate: the residual
comes from the step's next state, and the inverse Jacobian of the last
accepted equilibrium is reused until the residual stops falling fast
enough; only then is the analytic Jacobian rebuilt from the step's
``lstm.step_jacobians``. Each solved pair carries the inverse Jacobian at
its equilibrium, so the next control step's corrector starts with one.
Its last p columns are the curve's tangent, the equilibrium's sensitivity
to y0 - d_hat, from which K_bar bounds how fast the set-point may move."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import lstm
from .errors import InfeasibleReferenceError
from .lstm import LstmState

_TOL = 1e-10        # max |residual| of an accepted equilibrium
_CONTRACTION = 0.1  # a reused inverse Jacobian must cut max |residual| by this factor
_COND_MAX = 1e12    # largest kappa_inf of an inverted Jacobian


@dataclass
class ReferencePair:
    """Model equilibrium consistent with a set-point and disturbance estimate;
    ``jac_inv`` is the inverse of the equilibrium residual's Jacobian J
    there, if known."""

    x_bar: LstmState
    u_bar: np.ndarray
    residual: float
    jac_inv: np.ndarray | None = None

    @property
    def tangent(self):
        """d(c, h, u)/d(y0 - d_hat) = J^-1 [0; I], the last p columns of
        ``jac_inv``; None without it."""
        if self.jac_inv is None:
            return None
        return self.jac_inv[:, 2 * self.x_bar.c.size:]


def _cell_step(w, xi):
    """One kernel step at xi = (c, h, u): ``lstm.rollout``'s (c, h, cache)."""
    n = w.n
    return lstm.rollout(w, xi[:n], xi[n:2 * n], xi[None, 2 * n:])


def _residual(w, xi, y0_eff, cell):
    """F(xi) = [step(x,u) - x; g(x) - y0_eff], xi = (c, h, u), from the
    ``_cell_step`` at xi.

    ``y0_eff`` = y0 - d_hat; only this difference enters the problem.
    """
    n = w.n
    cs, hs, _ = cell
    return np.concatenate([cs[1] - xi[:n], hs[1] - xi[n:2 * n],
                           w.W_y @ xi[n:2 * n] + w.b_y - y0_eff])


def _jacobian(w, cell):
    """Analytic dF/dxi of ``_residual`` from the ``_cell_step`` at xi:
    [A_0 - I | B_0; 0 W_y 0] with A_0, B_0 the step's ``lstm.step_jacobians``.
    y0_eff only shifts F, so it does not enter the Jacobian.
    """
    n = w.n
    cs, _, cache = cell
    a, b = lstm.step_jacobians(w, cs, cache)
    jac = np.zeros((2 * n + w.p, 2 * n + w.m))
    jac[:2 * n, :2 * n] = a[0]
    diag = np.arange(2 * n)
    jac[diag, diag] -= 1.0
    jac[:2 * n, 2 * n:] = b[0]
    jac[2 * n:, n:2 * n] = w.W_y
    return jac


def _inverse(jac):
    """J^-1, if J is invertible with kappa_inf = |J|_inf |J^-1|_inf <= 1e12."""
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular") from None
    # "not <=" also rejects the NaN of a non-finite J
    if not abs(jac).sum(axis=1).max() * abs(inv).sum(axis=1).max() <= _COND_MAX:
        raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular")
    return inv


def _newton(w, xi, y0_eff, jac_inv):
    """Simplified Newton from xi, one cell step per iterate; at most 50 steps.

    Each step is xi <- xi - J^-1 r with the inverse ``jac_inv`` in hand; a
    fresh one is inverted from the current cell step only when there is
    none, or when the residual did not fall by ``_CONTRACTION`` since the
    last step. Returns (xi, residual, J^-1) at the accepted iterate, J
    from the cell step that passed the residual test. An accepted input
    outside the +-u_max box raises like a diverging iteration.
    """
    res_prev = np.inf
    with np.errstate(all="ignore"):       # a diverging iterate may overflow
        for it in range(51):               # 50 steps, then a last residual test
            cell = _cell_step(w, xi)
            r = _residual(w, xi, y0_eff, cell)
            res = float(abs(r).max())
            if res < _TOL:
                if abs(xi[2 * w.n:]).max() > w.u_max + 1e-9:
                    raise InfeasibleReferenceError(
                        f"equilibrium input {xi[2 * w.n:]} outside the +-{w.u_max} box",
                        "box")
                return xi, res, _inverse(_jacobian(w, cell))
            if it == 50:
                break
            if jac_inv is None or not res < _CONTRACTION * res_prev:
                jac_inv = _inverse(_jacobian(w, cell))
            xi = xi - jac_inv @ r
            res_prev = res
    raise InfeasibleReferenceError("Newton iteration did not converge", "diverged")


def _cold_start(w):
    """Attractor of u = 0, reached by forward simulation."""
    x = w.zero_state()
    u = np.zeros(w.m)
    for _ in range(500):
        x = lstm.step(w, x, u)
    return np.concatenate([x.c, x.h, u])


def _track(w, xi, jac_inv, y0_eff):
    """Follow the equilibrium curve from xi's own output W_y h + b_y to y0_eff.

    Each step predicts along the tangent, the last p columns of the inverse
    Jacobian ``jac_inv`` at xi (not on a start without one), and corrects
    with ``_newton``, which reuses that inverse; a failed corrector halves
    the step and retries without it, a success doubles the step. Returns
    (xi, residual, J^-1) at y0_eff, and raises once the step falls below
    1/1024 of the path.
    """
    n = w.n
    delta = y0_eff - (w.W_y @ xi[n:2 * n] + w.b_y)
    reuse = jac_inv
    done, step = 0.0, 1.0
    while done < 1.0:
        step = min(step, 1.0 - done)   # dyadic, so the last sub-target is y0_eff
        guess = xi if jac_inv is None else xi + jac_inv[:, 2 * n:] @ (step * delta)
        try:
            xi, res, jac_inv = _newton(w, guess, y0_eff - (1.0 - done - step) * delta,
                                       reuse)
        except InfeasibleReferenceError:
            step /= 2
            if step < 1 / 1024:
                raise
            reuse = None
            continue
        reuse = jac_inv
        done += step
        step *= 2
    return xi, res, jac_inv


def solve_reference(w, y0, d_hat, warm_start=None):
    """Equilibrium for y0 - d_hat, tracked from the warm start; without one,
    or if that fails other than on the input box (a warm start need not be
    an equilibrium at all), from the attractor of u = 0, which is one by
    construction."""
    if w.m != w.p:
        raise InfeasibleReferenceError("reference calculation needs m == p", "singular")
    y0_eff = np.atleast_1d(np.subtract(y0, d_hat, dtype=float))
    tracked = None
    if warm_start is not None:
        xi0 = np.concatenate([warm_start.x_bar.c, warm_start.x_bar.h, warm_start.u_bar])
        try:
            tracked = _track(w, xi0, warm_start.jac_inv, y0_eff)
        except InfeasibleReferenceError as exc:
            if exc.reason == "box":
                raise
    xi, res, jac_inv = tracked or _track(w, _cold_start(w), None, y0_eff)
    n = w.n
    return ReferencePair(LstmState(xi[:n], xi[n:2 * n]), xi[2 * n:], res, jac_inv)


def estimate_k_bar(w, y0_range, d_range=(0.0, 0.0), grid_density=9):
    """Max equilibrium-state sensitivity over a grid of targets.

    Returns (k_bar, argmax (y0, d_hat)). Grid points with no admissible
    equilibrium are skipped with a warning. ``grid_density`` (at least 1)
    is the number of set-points on the grid.
    """
    if not grid_density >= 1:
        raise ValueError(f"grid_density must be at least 1, got {grid_density}")
    y0s = np.linspace(y0_range[0], y0_range[1], grid_density)
    ds = np.linspace(d_range[0], d_range[1], max(2, grid_density // 2)) \
        if d_range[1] > d_range[0] else np.array([d_range[0]])
    k_bar, arg = 0.0, None
    warm = None
    failed = []
    for d in ds:
        for y0 in y0s:
            try:
                ref = solve_reference(w, [y0], [d], warm_start=warm)
            except InfeasibleReferenceError as exc:
                failed.append((float(y0), float(d)))
                reason = exc.reason
                continue
            warm = ref
            k = float(np.linalg.norm(ref.tangent[:2 * w.n], 2))
            if arg is None or k > k_bar:
                k_bar, arg = k, (float(y0), float(d))
    if failed:
        warnings.warn(f"{len(failed)} grid points had no admissible equilibrium: "
                      f"{failed[:5]}{'...' if len(failed) > 5 else ''}")
    if arg is None:
        raise InfeasibleReferenceError("no grid point admitted an equilibrium", reason)
    return k_bar, arg
