"""Equilibrium reference calculator.

Solves the coupled steady-state equations x = f(x, u), y0 = g(x) + d_hat
for the model state/input pair tracked by the controller by Newton's
method, with the residual's analytic Jacobian built from the local
derivative factors of one ``lstm`` kernel step, and estimates the worst-case
sensitivity of that equilibrium to set-point/disturbance changes (used
to reason about how fast the set-point may move).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import lstm
from .errors import InfeasibleReferenceError
from .lstm import LstmState

_TOL = 1e-10     # max |residual| of an accepted equilibrium


@dataclass
class ReferencePair:
    """Model equilibrium consistent with a set-point and disturbance estimate."""

    x_bar: LstmState
    u_bar: np.ndarray
    residual: float


def _residual(w, xi, y0_eff):
    """F(xi) = [step(x,u) - x; g(x) - y0_eff], xi = (c, h, u).

    ``y0_eff`` = y0 - d_hat; only this difference enters the problem.
    """
    n, m = w.n, w.m
    x = LstmState(xi[:n], xi[n:2 * n])
    u = xi[2 * n:]
    x_next = lstm.step(w, x, u)
    return np.concatenate([x_next.c - x.c, x_next.h - x.h,
                           w.W_y @ x.h + w.b_y - y0_eff])


def _jacobian(w, xi):
    """Analytic dF/dxi of ``_residual`` at xi = (c, h, u).

    From one kernel step at (c, h, u) and its local factors: dc+/dc =
    diag(f); dc+/d(h, u) sums the f, i and candidate gates' factors times
    their [U | W] rows; dh+ = (dh+/dc+) dc+ + (dh+/dz_o) d z_o; the readout
    rows are [0, W_y, 0]. y0_eff only shifts F, so it does not enter the
    Jacobian.
    """
    n = w.n
    c, h, u = xi[:n], xi[n:2 * n], xi[2 * n:]
    cs, _, cache = lstm.rollout(w, c, h, u[None, :])
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # u may transiently leave its box
        for _ in range(50):
            r = _residual(w, xi, y0_eff)
            if np.max(np.abs(r)) < _TOL:
                return xi, float(np.max(np.abs(r)))
            jac = _jacobian(w, xi)
            if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e12:
                raise InfeasibleReferenceError("equilibrium Jacobian is singular")
            xi = xi + np.linalg.solve(jac, -r)
        r = _residual(w, xi, y0_eff)
    if np.max(np.abs(r)) < _TOL:
        return xi, float(np.max(np.abs(r)))
    raise InfeasibleReferenceError("Newton iteration did not converge")


def _cold_start(w):
    """Attractor of u = 0, reached by forward simulation."""
    x = w.zero_state()
    u = np.zeros(w.m)
    for _ in range(500):
        x = lstm.step(w, x, u)
    return np.concatenate([x.c, x.h, u])


def _continuation(w, xi0, y0_eff):
    """Walk the target from the start point's own output in 10 sub-steps."""
    x0 = LstmState(xi0[:w.n], xi0[w.n:2 * w.n])
    y_start = w.W_y @ x0.h + w.b_y
    xi = xi0.copy()
    for step_frac in np.linspace(0.1, 1.0, 10):
        target = y_start + step_frac * (y0_eff - y_start)
        xi, res = _newton(w, xi, target)
    return xi, res


def solve_reference(w, y0, d_hat, warm_start=None):
    """Newton solve of the equilibrium system, with continuation fallback.

    If plain Newton from the warm start diverges, the effective target is
    walked from a known-solvable point in 10 linear sub-steps — first from
    the warm start's own output, and if that also diverges (the warm start
    need not be an equilibrium at all), from the attractor of u = 0, which
    is one by construction.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    d_hat = np.atleast_1d(np.asarray(d_hat, dtype=float))
    if w.m != w.p:
        raise InfeasibleReferenceError("reference calculation needs m == p")
    y0_eff = y0 - d_hat
    if warm_start is not None:
        xi0 = np.concatenate([warm_start.x_bar.c, warm_start.x_bar.h, warm_start.u_bar])
    else:
        xi0 = _cold_start(w)
    try:
        xi, res = _newton(w, xi0.copy(), y0_eff)
    except InfeasibleReferenceError:
        try:
            xi, res = _continuation(w, xi0, y0_eff)
        except InfeasibleReferenceError:
            xi, res = _continuation(w, _cold_start(w), y0_eff)
    n = w.n
    u_bar = xi[2 * n:]
    if np.max(np.abs(u_bar)) > w.u_max + 1e-9:
        raise InfeasibleReferenceError(
            f"equilibrium input {u_bar} outside the +-{w.u_max} box")
    return ReferencePair(LstmState(xi[:n], xi[n:2 * n]), u_bar, res)


def reference_sensitivity(w, ref):
    """d(x_bar, u_bar)/d(y0 - d_hat) at a solved reference (implicit function).

    The Jacobian of the equilibrium equations does not depend on the target.
    """
    xi = np.concatenate([ref.x_bar.c, ref.x_bar.h, ref.u_bar])
    jac = _jacobian(w, xi)
    rhs = np.vstack([np.zeros((2 * w.n, w.p)), np.eye(w.p)])
    return np.linalg.solve(jac, rhs)   # = -J^-1 dF/dy0_eff, dF/dy0_eff = -[0; I]


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
            sens = reference_sensitivity(w, ref)
            k = float(np.linalg.norm(sens[:2 * w.n], 2))
            if k > k_bar:
                k_bar, arg = k, (float(y0), float(d))
    if failed:
        warnings.warn(f"{len(failed)} grid points had no admissible equilibrium: "
                      f"{failed[:5]}{'...' if len(failed) > 5 else ''}")
    if arg is None:
        raise InfeasibleReferenceError("no grid point admitted an equilibrium")
    return k_bar, arg
