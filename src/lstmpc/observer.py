"""Disturbance-augmented model and its gated state observer.

The model state is extended with an integrated output disturbance d so
constant plant-model offsets become estimable; the observer injects the
output innovation into the f/i/o gate preactivations and integrates the
innovation into d with saturation. A 3x3 contraction matrix A_d over
(cell error, hidden error, disturbance error) certifies convergence and
yields all constants consumed by the constraint-tightening controller.
"""

from dataclasses import dataclass

import numpy as np

from . import lstm
from .errors import DimensionError, DomainViolationError, GainSelectionError
from .lstm import LstmState
from .numerics import induced_two_norm, spectral_radius


@dataclass
class AugmentedState:
    """Model state plus the integrated output disturbance."""

    x: LstmState
    d: np.ndarray


def augmented_output(w, chi):
    """y = W_y h + b_y + d."""
    return lstm.output(w, chi.x) + chi.d


def augmented_step(w, chi, u, w_k=None, d_max=None):
    """Advance the augmented model; d integrates the increment w_k."""
    d = np.asarray(chi.d, dtype=float)
    if w_k is not None:
        d = d + np.asarray(w_k, dtype=float)
    if d_max is not None and np.max(np.abs(d)) > d_max * (1.0 + 1e-12):
        raise DomainViolationError(
            f"disturbance magnitude {np.max(np.abs(d)):.4g} exceeds d_max={d_max}")
    return AugmentedState(lstm.step(w, chi.x, u), d)


@dataclass
class ObserverSpec:
    """Observer gains plus every derived convergence constant.

    derive_constants (re)fills the derived fields from the current gains.
    """

    L_f: np.ndarray
    L_i: np.ndarray
    L_o: np.ndarray
    L_d: np.ndarray
    d_max: float
    A_d: np.ndarray | None = None
    P_o: np.ndarray | None = None
    rho_o: float | None = None
    c_ol: float | None = None
    c_ou: float | None = None
    c_o: np.ndarray | None = None
    L_mat: np.ndarray | None = None
    L_max: float | None = None
    w_bar: float = 0.0
    w_bar_analytic: float | None = None
    cell_radius_hat: float = 0.0

    def __post_init__(self):
        for name in ("L_f", "L_i", "L_o", "L_d"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if not self.d_max > 0:
            raise ValueError("d_max must be positive")

    def to_dict(self):
        gains = {name: getattr(self, name).tolist() for name in ("L_f", "L_i", "L_o", "L_d")}
        return {**gains, "d_max": self.d_max, "w_bar": self.w_bar}

    @classmethod
    def from_dict(cls, doc):
        return cls(L_f=doc["L_f"], L_i=doc["L_i"], L_o=doc["L_o"], L_d=doc["L_d"],
                   d_max=float(doc["d_max"]), w_bar=float(doc.get("w_bar", 0.0)))


def observer_step(w, spec, chi_hat, u, y_measured):
    """One observer update driven by the measured output.

    The innovation enters the forget/input/output gate preactivations;
    the disturbance estimate integrates it and is saturated at +-d_max.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y_measured = np.atleast_1d(np.asarray(y_measured, dtype=float))
    if u.shape != (w.m,) or y_measured.shape != (w.p,):
        raise DimensionError("input/measurement shape mismatch")
    x, d = chi_hat.x, np.asarray(chi_hat.d, dtype=float)
    innov = y_measured - (w.W_y @ x.h + w.b_y + d)
    inject = _innovation_gains(w, spec).reshape(4 * w.n, w.p) @ innov
    c, h, _ = lstm.rollout(w, x.c, x.h, u[None, :], inject)
    d_next = np.clip(d + spec.L_d @ innov, -spec.d_max, spec.d_max)
    return AugmentedState(LstmState(c[1], h[1]), d_next)


def observer_matrices(w, spec):
    """The 3x3 error-contraction matrix A_d of the observer.

    Coordinates of the error vector: (||c - chat||, ||h - hhat||, ||d - dhat||).
    The top two rows are ``lstm.increment_gains`` of the hatted gate bounds
    with (U - L W_y, L). Fills the A_d and cell_radius_hat fields of
    ``spec`` and returns A_d.
    """
    sigmas, l_gains, _, u_rec = _hatted(w, spec)
    hat = lstm.increment_gains(sigmas, u_rec, l_gains)
    spec.cell_radius_hat = hat.cell_radius
    spec.A_d = np.vstack([np.hstack([hat.gains, hat.column]),
                          [0.0, induced_two_norm(spec.L_d @ w.W_y),
                           induced_two_norm(np.eye(w.p) - spec.L_d)]])
    return spec.A_d


def _innovation_gains(w, spec):
    """The innovation gains (L_f, L_i, L_o, 0) as a (4, n, p) stack in
    ``lstm.GATES`` order: the candidate gate gets no innovation."""
    return np.stack([spec.L_f, spec.L_i, spec.L_o, np.zeros((w.n, w.p))])


def _hatted(w, spec):
    """Hatted gate bounds, and the innovation gains L, L W_y and U - L W_y
    as (4, n, .) stacks in ``lstm.GATES`` order.

    The innovation widens the f, i and o preactivation blocks
    [W u_max, U - L W_y, b] by the columns [L W_y, L d_max, L d_max],
    whose row sums are added apart, so zero gains give exactly the
    model's bounds.
    """
    n = w.n
    l_gains = _innovation_gains(w, spec)
    l_wy = l_gains @ w.W_y
    u_rec = w.U.reshape(4, n, n) - l_wy
    l_d = l_gains * spec.d_max
    widen = np.abs(np.concatenate([l_wy, l_d, l_d], axis=2)).sum(axis=2).ravel()
    sigmas = lstm.gate_sigmas(w.W, u_rec.reshape(4 * n, n), w.b, w.u_max, widen)
    return sigmas, l_gains, l_wy, u_rec


def derive_constants(w, spec, w_max=0.0, w_bar=None):
    """Populate A_d, P_o, rho_o, the norm constants, L_max and w_bar.

    ``w_bar`` overrides the analytic disturbance-increment bound when
    given (the analytic corner bound over the full invariant box is very
    conservative); the analytic value is always reported alongside.
    """
    a_d = observer_matrices(w, spec)
    if (rho := spectral_radius(a_d)) >= 1.0:
        raise GainSelectionError(f"rho(A_d) = {rho:.4f} >= 1")
    spec.P_o, spec.rho_o, spec.c_ol, spec.c_ou = lstm.lyapunov_bounds(a_d)
    w_y_bar = np.hstack([np.zeros((w.p, w.n)), w.W_y, np.eye(w.p)])
    spec.c_o = np.linalg.norm(w_y_bar, axis=1) / spec.c_ol
    # Sensitivity of the error dynamics to the injection gains.
    model = lstm.gate_bounds(w)
    sigmas, l_gains, l_wy, _ = _hatted(w, spec)
    sens = lstm.increment_gains(sigmas, l_wy, l_gains)
    spec.L_mat = np.vstack([np.hstack([np.zeros((2, 1)), sens.gains[:, 1:], sens.column]),
                            [0.0, induced_two_norm(spec.L_d @ w.W_y),
                             induced_two_norm(spec.L_d)]])
    spec.L_max = induced_two_norm(spec.L_mat) / spec.c_ol
    # Worst-case one-step Lyapunov inflation from the disturbance increment,
    # evaluated at the corner of the invariant error box (P_o and A_d are
    # entrywise nonnegative, so the corner attains the maximum).
    e_corner = np.array([model.cell_radius + spec.cell_radius_hat, 2.0, 2.0 * spec.d_max])
    e3 = np.array([0.0, 0.0, 1.0])
    p_o = spec.P_o
    cross = float(e_corner @ a_d.T @ p_o @ e3)
    spec.w_bar_analytic = float(np.sqrt(max(2.0 * cross * w_max + w_max ** 2 * p_o[2, 2], 0.0)))
    spec.w_bar = float(w_bar) if w_bar is not None else spec.w_bar_analytic
    return spec


def select_gains(w, d_max=0.1, l_d=0.1, w_max=0.0, w_bar=None):
    """Pick the suboptimal observer gains and return the fully populated spec.

    Zero state-injection gains and L_d = l_d I (l_d in (0, 2)), so the
    error spectrum is the model's contraction spectrum plus |l_d - 1|.
    """
    if not lstm.delta_iss_check(w).certified:
        raise GainSelectionError("model is not certified contractive")
    if not 0.0 < l_d < 2.0:
        raise GainSelectionError(f"l_d = {l_d} outside (0, 2)")
    n, p = w.n, w.p
    spec = ObserverSpec(L_f=np.zeros((n, p)), L_i=np.zeros((n, p)),
                        L_o=np.zeros((n, p)), L_d=l_d * np.eye(p), d_max=d_max)
    return derive_constants(w, spec, w_max=w_max, w_bar=w_bar)


def v_o(spec, chi_hat, chi):
    """Observer incremental Lyapunov value of an (estimate, truth) pair."""
    if spec.P_o is None:
        raise ValueError("spec has no Lyapunov data; call derive_constants")
    e = np.array([np.linalg.norm(chi_hat.x.c - chi.x.c),
                  np.linalg.norm(chi_hat.x.h - chi.x.h),
                  np.linalg.norm(np.atleast_1d(chi_hat.d) - np.atleast_1d(chi.d))])
    return float(np.sqrt(e @ spec.P_o @ e))
