"""Equilibrium reference calculator.

Solves x = f(x, u), y0 = g(x) + d_hat for the model state/input pair the
controller tracks. Only y0 - d_hat enters, so the equilibria form a curve
in it, which ``_track`` follows by predictor-corrector continuation (Allgower & Georg, 1990) with the
simplified Newton corrector (Deuflhard, 2004) of ``_newton``. Each solved
pair carries the inverse Jacobian at its equilibrium, for the next control
step's corrector; its last p columns are the curve's tangent, from which
K_bar bounds how fast the set-point may move.

The tracker runs once per control step, on vectors of 2n+p entries: its
products go through ``ndarray.dot``, without the matmul ufunc's Python-level
dispatch, and the corrector's residual norm and input-box test are taken on
Python floats by ``numerics.magnitude``, which sees a NaN as
``abs(r).max()`` does, so no residual that holds a NaN passes the test."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import lstm
from .errors import POSITIVE_INT, DimensionError, InfeasibleReferenceError, check
from .lstm import LstmState
from .numerics import magnitude

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


def _cell_step(w, ws, xi):
    """One step of the weights ``w`` at xi = (c, h, u) in the workspace
    ``ws``: (c+, h+), views of its buffers, which its next step overwrites."""
    n = w.n
    return ws.step(w, xi[:n], xi[n:2 * n], xi[2 * n:])


def _residual(w, xi, y0_eff, cell, out):
    """Write F(xi) = [step(x,u) - x; g(x) - y0_eff], xi = (c, h, u), from the
    ``_cell_step`` at xi into ``out``, (2n+p,).

    ``y0_eff`` = y0 - d_hat; only this difference enters the problem.
    """
    n = w.n
    c_next, h_next = cell
    np.subtract(c_next, xi[:n], out=out[:n])
    np.subtract(h_next, xi[n:2 * n], out=out[n:2 * n])
    y = w.W_y.dot(xi[n:2 * n], out[2 * n:])
    y += w.b_y
    y -= y0_eff


def _jacobian(w, ws):
    """Analytic dF/dxi of ``_residual`` at the last ``_cell_step`` in the
    workspace ``ws``, [A_0 - I | B_0; 0 W_y 0], formed here from its
    ``linearize``'s [A_0 | B_0] and the weights' W_y; y0_eff only shifts F."""
    n2 = 2 * w.n
    jac = np.zeros((n2 + w.p, n2 + w.m))
    jac[:n2] = ws.linearize()[0]
    jac[n2:, w.n:n2] = w.W_y
    # the diagonal of the state columns, a strided view: no index array
    jac.reshape(-1)[:n2 * (jac.shape[1] + 1):jac.shape[1] + 1] -= 1.0
    return jac


def _inverse(jac):
    """J^-1, if J is invertible with kappa_inf = |J|_inf |J^-1|_inf <= 1e12."""
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular") from None
    # the ufuncs' reduce without the ndarray.sum/.max wrappers; "not <=" also
    # rejects the NaN of a non-finite J
    largest, row_sums = np.maximum.reduce, np.add.reduce
    if not largest(row_sums(np.abs(jac), 1)) * largest(row_sums(np.abs(inv), 1)) <= _COND_MAX:
        raise InfeasibleReferenceError("equilibrium Jacobian is singular", "singular")
    return inv


def _newton(w, ws, xi, y0_eff, jac_inv):
    """Simplified Newton from xi, one cell step per iterate in the workspace
    ``ws``; at most 50 steps.

    Each step is xi <- xi - J^-1 r with the inverse ``jac_inv`` in hand; a
    fresh one is inverted from the current cell step only when there is
    none, or when the residual did not fall by ``_CONTRACTION`` since the
    last step. Returns (xi, residual, J^-1) at the accepted iterate, J
    from the cell step that passed the residual test. An accepted input
    outside the +-u_max box raises like a diverging iteration. The iterate
    is a copy of xi, updated in place.
    """
    xi = xi.copy()
    r, dxi = np.empty(2 * w.n + w.p), np.empty_like(xi)
    res_prev = np.inf
    with np.errstate(all="ignore"):       # a diverging iterate may overflow
        for it in range(51):               # 50 steps, then a last residual test
            _residual(w, xi, y0_eff, _cell_step(w, ws, xi), r)
            res = magnitude(r.tolist())
            if res < _TOL:
                if magnitude(xi[2 * w.n:].tolist()) > w.u_max + 1e-9:
                    raise InfeasibleReferenceError(
                        f"equilibrium input {xi[2 * w.n:]} outside the +-{w.u_max} box",
                        "box")
                return xi, res, _inverse(_jacobian(w, ws))
            if it == 50:
                break
            if jac_inv is None or not res < _CONTRACTION * res_prev:
                jac_inv = _inverse(_jacobian(w, ws))
            xi -= jac_inv.dot(r, dxi)
            res_prev = res
    raise InfeasibleReferenceError("Newton iteration did not converge", "diverged")


def _cold_start(w, ws):
    """Attractor of u = 0, reached by forward simulation in the workspace
    ``ws``: at most 500 steps, ending at the first step whose c and h repeat
    the last step's bytes, since every later step, a function of those
    bytes alone, would repeat them too."""
    x = LstmState(np.zeros(w.n), np.zeros(w.n))
    u = np.zeros(w.m)
    for _ in range(500):
        x_next = lstm.step(w, x, u, ws)
        if x_next.c.tobytes() == x.c.tobytes() and x_next.h.tobytes() == x.h.tobytes():
            break
        x = x_next
    return np.concatenate([x.c, x.h, u])


def _track(w, ws, xi, jac_inv, y0_eff):
    """Follow the equilibrium curve from xi's own output W_y h + b_y to y0_eff.

    Each step predicts along the tangent, the last p columns of the inverse
    Jacobian ``jac_inv`` at xi (not on a start without one), and corrects
    with ``_newton`` in the workspace ``ws``, which reuses that inverse; a
    failed corrector halves the step and retries without it, a success
    doubles the step. Returns (xi, residual, J^-1) at y0_eff. It raises once
    the step falls below 1/1024 of the path, or when a corrector from an
    accepted equilibrium ends outside the input box (from another start,
    halving may yet reach the curve's branch inside the box).
    """
    n = w.n
    delta = y0_eff - (w.W_y.dot(xi[n:2 * n]) + w.b_y)
    reuse = jac_inv
    done, step = 0.0, 1.0
    while done < 1.0:
        step = min(step, 1.0 - done)   # dyadic, so the last sub-target is y0_eff
        guess = xi if jac_inv is None else xi + jac_inv[:, 2 * n:].dot(step * delta)
        try:
            xi, res, jac_inv = _newton(w, ws, guess, y0_eff - (1.0 - done - step) * delta,
                                       reuse)
        except InfeasibleReferenceError as exc:
            step /= 2
            if step < 1 / 1024 or (exc.reason == "box" and jac_inv is not None):
                raise
            reuse = None
            continue
        reuse = jac_inv
        done += step
        step *= 2
    return xi, res, jac_inv


def solve_reference(w, y0, d_hat, workspace, warm_start=None):
    """Equilibrium for y0 - d_hat, tracked from the warm start; without one,
    or if that fails other than on the input box (a warm start need not be
    an equilibrium at all), from the attractor of u = 0, which is one by
    construction. Every cell step and Jacobian runs in ``workspace``, an
    ``lstm.Workspace`` of the weights' shapes and one step. Raises
    DimensionError unless y0 and d_hat hold p entries each."""
    if w.m != w.p:
        raise InfeasibleReferenceError("reference calculation needs m == p", "singular")
    y0, d_hat = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (y0, d_hat))
    for name, a in (("y0", y0), ("d_hat", d_hat)):
        if a.shape != (w.p,):
            raise DimensionError(f"{name} has shape {a.shape}, not ({w.p},)")
    y0_eff = y0 - d_hat
    tracked = None
    if warm_start is not None:
        xi0 = np.concatenate([warm_start.x_bar.c, warm_start.x_bar.h, warm_start.u_bar])
        try:
            tracked = _track(w, workspace, xi0, warm_start.jac_inv, y0_eff)
        except InfeasibleReferenceError as exc:
            if exc.reason == "box":
                raise
    xi, res, jac_inv = tracked or _track(w, workspace, _cold_start(w, workspace), None, y0_eff)
    n = w.n
    return ReferencePair(LstmState(xi[:n], xi[n:2 * n]), xi[2 * n:], res, jac_inv)


def estimate_k_bar(w, y0_range, d_range=(0.0, 0.0), grid_density=9):
    """Max equilibrium-state sensitivity over a grid of targets.

    Returns (k_bar, argmax (y0, d_hat)). Grid points with no admissible
    equilibrium are skipped with a warning. ``grid_density``, a positive
    int, is the number of set-points on the grid. Every grid point is
    solved in one ``lstm.Workspace``, built here.
    """
    check("grid_density", grid_density, POSITIVE_INT)
    y0s = np.linspace(y0_range[0], y0_range[1], grid_density)
    ds = np.linspace(d_range[0], d_range[1], max(2, grid_density // 2)) \
        if d_range[1] > d_range[0] else np.array([d_range[0]])
    k_bar, arg, warm, failed = 0.0, None, None, []
    workspace = lstm.Workspace(w.n, w.m, 1)
    for d in ds:
        for y0 in y0s:
            try:
                ref = solve_reference(w, [y0], [d], workspace, warm)
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
