"""Equilibrium reference calculator.

Solves x = f(x, u), y0 = g(x) + d_hat for the model state/input pair the
controller tracks. Only y0 - d_hat enters, so the equilibria form a curve
in it, which ``_track`` follows by predictor-corrector continuation
(Allgower & Georg, *Numerical Continuation Methods*, 1990). The corrector
is Newton's method on one ``lstm`` kernel step per iterate (residual from
its next state, analytic Jacobian from its local factors). Each solved
pair carries the curve's tangent, the equilibrium's sensitivity to
y0 - d_hat, from which K_bar bounds how fast the set-point may move."""

import warnings
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import lstm
from .errors import InfeasibleReferenceError
from .lstm import LstmState

_TOL = 1e-10     # max |residual| of an accepted equilibrium


@dataclass
class ReferencePair:
    """Model equilibrium consistent with a set-point and disturbance estimate;
    ``tangent`` is d(c, h, u)/d(y0 - d_hat) = J^-1 [0; I] there, if known."""

    x_bar: LstmState
    u_bar: np.ndarray
    residual: float
    tangent: np.ndarray | None = None


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
    """Analytic dF/dxi of ``_residual`` from the ``_cell_step`` at xi.

    From its local factors: dc+/dc = diag(f); dc+/d(h, u) sums the f, i
    and candidate gates' factors times their [U | W] rows; dh+ =
    (dh+/dc+) dc+ + (dh+/dz_o) d z_o; the readout rows are [0, W_y, 0].
    y0_eff only shifts F, so it does not enter the Jacobian.
    """
    n = w.n
    cs, _, cache = cell
    f, k_f, k_i, k_g, k_o, k_t = (k[0] for k in lstm.local_factors(cs, cache))
    uw = np.hstack([w.U, w.W])       # [U | W] rows, (f, i, o, c)
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


def _newton(w, xi, y0_eff):
    """Newton's method from xi, one cell step per iterate; at most 50 steps.

    Returns (xi, residual, Jacobian) at the accepted iterate, the Jacobian
    from the cell step that passed the residual test. An accepted input
    outside the +-u_max box raises like a diverging iteration.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # a diverging iterate may overflow
        for it in range(51):               # 50 steps, then a last residual test
            cell = _cell_step(w, xi)
            r = _residual(w, xi, y0_eff, cell)
            res = float(np.max(np.abs(r)))
            if res < _TOL:
                if np.max(np.abs(xi[2 * w.n:])) > w.u_max + 1e-9:
                    raise InfeasibleReferenceError(
                        f"equilibrium input {xi[2 * w.n:]} outside the +-{w.u_max} box")
                return xi, res, _jacobian(w, cell)
            if it == 50:
                break
            jac = _jacobian(w, cell)
            if not np.all(np.isfinite(jac)):
                raise InfeasibleReferenceError("equilibrium Jacobian is not finite")
            s = np.linalg.svd(jac, compute_uv=False)   # the 2-norm condition number
            if s[0] / s[-1] > 1e12:
                raise InfeasibleReferenceError("equilibrium Jacobian is singular")
            xi = xi + np.linalg.solve(jac, -r)
    raise InfeasibleReferenceError("Newton iteration did not converge")


def _cold_start(w):
    """Attractor of u = 0, reached by forward simulation."""
    x = w.zero_state()
    u = np.zeros(w.m)
    for _ in range(500):
        x = lstm.step(w, x, u)
    return np.concatenate([x.c, x.h, u])


def _track(w, xi, tangent, y0_eff):
    """Follow the equilibrium curve from xi's own output W_y h + b_y to y0_eff.

    Each step predicts along the tangent (not on a start without one) and
    corrects with ``_newton``; a failed corrector halves the step, a
    success doubles it. Returns (xi, residual, tangent) at y0_eff, and
    raises once the step falls below 1/1024 of the path.
    """
    n = w.n
    delta = y0_eff - (w.W_y @ xi[n:2 * n] + w.b_y)
    rhs = np.vstack([np.zeros((2 * n, w.p)), np.eye(w.p)])   # -dF/dy0_eff
    done, step = 0.0, 1.0
    while done < 1.0:
        step = min(step, 1.0 - done)   # dyadic, so the last sub-target is y0_eff
        guess = xi if tangent is None else xi + tangent @ (step * delta)
        try:
            xi, res, jac = _newton(w, guess, y0_eff - (1.0 - done - step) * delta)
        except InfeasibleReferenceError:
            step /= 2
            if step < 1 / 1024:
                raise
            continue
        tangent = np.linalg.solve(jac, rhs)
        done += step
        step *= 2
    return xi, res, tangent


def solve_reference(w, y0, d_hat, warm_start=None):
    """Equilibrium for y0 - d_hat, tracked from the warm start; without one,
    or if that fails (a warm start need not be an equilibrium at all), from
    the attractor of u = 0, which is one by construction."""
    if w.m != w.p:
        raise InfeasibleReferenceError("reference calculation needs m == p")
    y0_eff = np.atleast_1d(np.subtract(y0, d_hat, dtype=float))
    tracked = None
    if warm_start is not None:
        xi0 = np.concatenate([warm_start.x_bar.c, warm_start.x_bar.h, warm_start.u_bar])
        with suppress(InfeasibleReferenceError):
            tracked = _track(w, xi0, warm_start.tangent, y0_eff)
    xi, res, tangent = tracked or _track(w, _cold_start(w), None, y0_eff)
    n = w.n
    return ReferencePair(LstmState(xi[:n], xi[n:2 * n]), xi[2 * n:], res, tangent)


def estimate_k_bar(w, y0_range, d_range=(0.0, 0.0), grid_density=9):
    """Max equilibrium-state sensitivity over a grid of targets.

    Returns (k_bar, argmax (y0, d_hat)). Grid points with no admissible
    equilibrium are skipped with a warning.
    """
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
            except InfeasibleReferenceError:
                failed.append((float(y0), float(d)))
                continue
            warm = ref
            k = float(np.linalg.norm(ref.tangent[:2 * w.n], 2))
            if k > k_bar:
                k_bar, arg = k, (float(y0), float(d))
    if failed:
        warnings.warn(f"{len(failed)} grid points had no admissible equilibrium: "
                      f"{failed[:5]}{'...' if len(failed) > 5 else ''}")
    if arg is None:
        raise InfeasibleReferenceError("no grid point admitted an equilibrium")
    return k_bar, arg
