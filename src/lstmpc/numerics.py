"""Dense linear-algebra helpers for the small certification matrices.

All matrices handled here are tiny (2x2 and 3x3 in normal use, at most
~11x11 for equilibrium Jacobians), so plain dense routines are exact
enough and nothing is optimized for scale.
"""

import numpy as np

from .errors import DimensionError, InstabilityError, NotSpdError

#: Allowed relative asymmetry when a matrix is required to be symmetric.
SYMMETRY_TOL = 1e-10


def induced_two_norm(m):
    """Induced 2-norm: sqrt of the largest eigenvalue of m^T m."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def spectral_radius(m):
    """Maximum absolute eigenvalue of a square matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"spectral radius needs a square matrix, got {m.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def solve_discrete_lyapunov(a, q):
    """Solve a^T P a - P = -q for P, with rho(a) < 1 and q SPD.

    Uses the Kronecker vectorization of the equation; at these sizes the
    dense (d^2 x d^2) solve is exact up to round-off.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    d = a.shape[0]
    if a.shape != (d, d) or q.shape != (d, d):
        raise DimensionError(f"incompatible shapes {a.shape}, {q.shape}")
    if spectral_radius(a) >= 1.0:
        raise InstabilityError("rho(a) >= 1: discrete Lyapunov equation has no SPD solution")
    _check_spd(q, "q")
    # vec(a^T P a) = (a^T kron a^T) vec(P)
    k = np.kron(a.T, a.T) - np.eye(d * d)
    p = np.linalg.solve(k, -q.reshape(-1)).reshape(d, d)
    p = 0.5 * (p + p.T)
    residual = a.T @ p @ a - p + q
    if np.max(np.abs(residual)) > 1e-9 * max(1.0, np.max(np.abs(p))):
        raise InstabilityError("Lyapunov solve residual too large")
    return p


def eig_extrema_spd(m):
    """(lambda_min, lambda_max) of a symmetric positive definite matrix."""
    w = _check_spd(np.atleast_2d(np.asarray(m, dtype=float)), "m")
    return float(w[0]), float(w[-1])


def _check_spd(m, name):
    """Ascending eigenvalues of m; raises unless m is symmetric positive definite."""
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL * scale:
        raise NotSpdError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w[0] <= 0.0:
        raise NotSpdError(f"{name} is not positive definite")
    return w
