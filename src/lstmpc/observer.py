"""Disturbance-augmented model and its gated state observer.

The model state is extended with an integrated output disturbance d so
constant plant-model offsets become estimable; the observer injects the
output innovation into the f/i/o gate preactivations and integrates the
innovation into d with saturation. A 3x3 contraction matrix A_d over
(cell error, hidden error, disturbance error) certifies convergence and
yields all constants consumed by the constraint-tightening controller.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lstm
from .errors import (NONNEGATIVE, POSITIVE, DimensionError, DomainViolationError,
                     GainSelectionError, check, check_object, finite_array)
from .lstm import LstmState
from .numerics import freeze_arrays, induced_two_norm, spectral_radius


@dataclass
class AugmentedState:
    """Model state plus the integrated output disturbance."""

    x: LstmState
    d: np.ndarray


def augmented_output(w, chi):
    """y = W_y h + b_y + d."""
    return lstm.output(w, chi.x) + chi.d


def augmented_step(w, chi, u, workspace, w_k=None, d_max=None):
    """Advance the augmented model, its cell by ``lstm.step`` in the
    ``lstm.Workspace`` ``workspace``; d integrates the increment w_k."""
    d = np.asarray(chi.d, dtype=float)
    if w_k is not None:
        d = d + np.asarray(w_k, dtype=float)
    if d_max is not None and np.max(np.abs(d)) > d_max * (1.0 + 1e-12):
        raise DomainViolationError(
            f"disturbance magnitude {np.max(np.abs(d)):.4g} exceeds d_max={d_max}")
    return AugmentedState(lstm.step(w, chi.x, u, workspace), d)


@dataclass(frozen=True)
class ObserverSpec:
    """The observer's gains and settings, nothing derived from them: d_max and
    w_bar, the observer error's one-step growth from disturbance increments (0.0
    by default). Construction checks that d_max is finite and positive, w_bar
    finite and nonnegative, L_i and L_o of L_f's (n, p) shape and L_d (p, p),
    and forms ``injection``, the (4n, p) [0; L_f; L_i; L_o] in ``lstm.GATES``
    order. Its arrays are read-only copies."""

    L_f: np.ndarray
    L_i: np.ndarray
    L_o: np.ndarray
    L_d: np.ndarray
    d_max: float
    w_bar: float = 0.0
    injection: np.ndarray = field(init=False, repr=False)
    _GAINS = ("L_f", "L_i", "L_o", "L_d")     # not a field

    def __post_init__(self):
        check("d_max", self.d_max, POSITIVE)
        check("w_bar", self.w_bar, NONNEGATIVE)
        gains = {name: np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
                 for name in self._GAINS}
        shape = gains["L_f"].shape
        for name, want in (("L_i", shape), ("L_o", shape), ("L_d", (shape[-1],) * 2)):
            if (got := gains[name].shape) != want:
                raise DimensionError(f"{name} has shape {got}, not {want}, "
                                     f"for L_f of shape {shape}")
        freeze_arrays(self, **gains, injection=np.concatenate(lstm.in_gate_order(
            c=np.zeros(shape), f=gains["L_f"], i=gains["L_i"], o=gains["L_o"])))

    def to_dict(self):
        gains = {name: getattr(self, name).tolist() for name in self._GAINS}
        return {**gains, "d_max": self.d_max, "w_bar": self.w_bar}

    @classmethod
    def from_dict(cls, doc):
        """The spec of a weights file's observer section, each key checked by name:
        an object, no unknown or missing key, finite gains, then d_max and w_bar."""
        return cls(**_read_section(doc))


def _read_section(doc):
    """The observer section ``doc``'s fields, its gains as finite float arrays."""
    check_object("observer", doc, (*ObserverSpec._GAINS, "d_max"), ("w_bar",))
    return {**doc, **{name: finite_array(name, doc[name]) for name in ObserverSpec._GAINS}}


def section_spec(w, doc):
    """``ObserverSpec.from_dict`` of the observer section ``doc``, each gain held
    by name to the weights ``w``'s shape before the spec holds them to L_f's."""
    fields = _read_section(doc)
    for name in ObserverSpec._GAINS:
        _check_gain(w, name, fields[name])
    return ObserverSpec(**fields)


@dataclass(frozen=True, kw_only=True)
class ObserverCertificate(ObserverSpec):
    """An ``ObserverSpec`` with its convergence constants on the weights ``w``, which
    it keeps, formed whole on construction: A_d and rho_A_d = rho(A_d)
    (GainSelectionError unless it is below 1, which rejects an uncertified model
    too), its ``lstm.lyapunov_bounds`` P_o, rho_o, c_ol, c_ou, then c_o, L_mat,
    L_max, cell_radius_hat and w_max, the largest increment norm |w| per step for
    which V_o(k+1) <= rho_o V_o(k) + w_bar. No derived constant is a constructor
    argument, so ``dataclasses.replace`` re-forms them all from ``w``."""

    w: lstm.LstmWeights = field(repr=False)
    A_d: np.ndarray = field(init=False)
    rho_A_d: float = field(init=False)
    P_o: np.ndarray = field(init=False)
    rho_o: float = field(init=False)
    c_ol: float = field(init=False)
    c_ou: float = field(init=False)
    c_o: np.ndarray = field(init=False)
    L_mat: np.ndarray = field(init=False)
    L_max: float = field(init=False)
    cell_radius_hat: float = field(init=False)
    w_max: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        w = self.w
        a_d, l_mat, cell_radius_hat = _error_dynamics(w, self)
        if (rho := spectral_radius(a_d)) >= 1.0:
            raise GainSelectionError(f"rho(A_d) = {rho:.4f} >= 1")
        p_o, rho_o, c_ol, c_ou = lstm.lyapunov_bounds(a_d)
        w_bar = float(self.w_bar)
        w_y_bar = np.hstack([np.zeros((w.p, w.n)), w.W_y, np.eye(w.p)])
        freeze_arrays(self, A_d=a_d, rho_A_d=rho, P_o=p_o, rho_o=rho_o, c_ol=c_ol, c_ou=c_ou,
                      L_mat=l_mat, c_o=np.linalg.norm(w_y_bar, axis=1) / c_ol, w_bar=w_bar,
                      L_max=induced_two_norm(l_mat) / c_ol, cell_radius_hat=cell_radius_hat,
                      # triangle inequality, P_o >= 0: V_o(e+) <= rho_o V_o(e) + sqrt(P_o[2, 2]) |w|
                      w_max=w_bar / float(np.sqrt(p_o[2, 2])))


def observer_step(w, spec, chi_hat, u, y_measured, workspace):
    """One observer update driven by the measured output, one
    ``lstm.Workspace.step`` of ``w`` in ``workspace``, of the weights'
    shapes and one step: the innovation enters the f, i, o preactivations,
    and the disturbance estimate integrates it, saturated at +-d_max.
    Raises DimensionError for gains that do not fit the model."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y_measured = np.atleast_1d(np.asarray(y_measured, dtype=float))
    if u.shape != (w.m,) or y_measured.shape != (w.p,):
        raise DimensionError("input/measurement shape mismatch")
    _check_gain(w, "L_f", spec.L_f)
    x, d = chi_hat.x, np.asarray(chi_hat.d, dtype=float)
    innov = y_measured - (w.W_y.dot(x.h) + w.b_y + d)
    c, h = workspace.step(w, x.c, x.h, u, spec.injection.dot(innov))
    d_next = np.minimum(np.maximum(d + spec.L_d.dot(innov), -spec.d_max), spec.d_max)
    return AugmentedState(LstmState(c.copy(), h.copy()), d_next)


def observer_matrices(w, spec):
    """The 3x3 error-contraction matrix A_d of the observer, over
    (||c - chat||, ||h - hhat||, ||d - dhat||); see ``_error_dynamics``."""
    return _error_dynamics(w, spec)[0]


def _error_dynamics(w, spec):
    """(A_d, L_mat, the hatted cell radius) of the gains in ``spec``. The
    hatted gate bounds widen the model's f, i and o preactivation blocks
    [W u_max, U - L W_y, b] by the columns [L W_y, L d_max, L d_max], whose
    row sums are added apart, so zero gains give exactly the model's bounds.
    ``lstm.increment_gains`` of them, in ``lstm.GATES`` order, with
    (U - L W_y, L) gives A_d's top rows and with (L W_y, L) L_mat's, the
    error dynamics' sensitivity to the gains. Raises DimensionError for
    gains that do not fit the model.
    """
    _check_gain(w, "L_f", spec.L_f)
    n, p = w.n, w.p
    l_gains = spec.injection.reshape(4, n, p)
    l_wy = l_gains @ w.W_y
    u_rec = w.U.reshape(4, n, n) - l_wy
    l_d = l_gains * spec.d_max
    widen = np.abs(np.concatenate([l_wy, l_d, l_d], axis=2)).sum(axis=2).ravel()
    sigmas = lstm.gate_sigmas(w.W, u_rec.reshape(4 * n, n), w.b, w.u_max, widen)
    hat = lstm.increment_gains(sigmas, u_rec, l_gains)
    sens = lstm.increment_gains(sigmas, l_wy, l_gains)
    d_row = [0.0, induced_two_norm(spec.L_d @ w.W_y)]
    a_d = np.vstack([np.hstack([hat.gains, hat.column]),
                     d_row + [induced_two_norm(np.eye(p) - spec.L_d)]])
    l_mat = np.vstack([np.hstack([np.zeros((2, 1)), sens.gains[:, 1:], sens.column]),
                       d_row + [induced_two_norm(spec.L_d)]])
    return a_d, l_mat, hat.cell_radius


def _check_gain(w, name, gain):
    """Raise DimensionError naming the gain ``name`` unless the array ``gain``,
    read as ``ObserverSpec`` reads it (1-D as one row), has the model's shape
    for it: (p, p) for L_d, (n, p) for L_f, L_i and L_o. A spec's L_f alone
    is checked, since the spec holds its other gains to L_f's shape."""
    want = (w.p, w.p) if name == "L_d" else (w.n, w.p)
    if gain.shape != want and np.atleast_2d(gain).shape != want:
        raise DimensionError(f"{name} has shape {gain.shape}, not {want}, "
                             f"for the model's (n, p) = ({w.n}, {w.p})")


def derive_constants(w, spec, w_bar=None):
    """The ``ObserverCertificate`` of the gains in ``spec`` on ``w``, with
    w_bar the ``w_bar`` keyword, else the spec's; the spec is left as it is."""
    return ObserverCertificate(L_f=spec.L_f, L_i=spec.L_i, L_o=spec.L_o, L_d=spec.L_d,
                               d_max=spec.d_max, w_bar=spec.w_bar if w_bar is None else w_bar,
                               w=w)


def select_gains(w, d_max=0.1, l_d=0.1, w_bar=0.01):
    """The ``ObserverSpec`` of the suboptimal gains, with ``d_max`` and ``w_bar``:
    zero state injection and L_d = l_d I, l_d in (0, 2) (GainSelectionError
    otherwise). Then A_d = [[A_delta, 0], [0, ||L_d W_y||, |1 - l_d|]] and
    rho(A_d) = max(rho(A_delta), |1 - l_d|), so derive_constants rejects an
    uncertified model."""
    if not (POSITIVE[0](l_d) and l_d < 2.0):
        raise GainSelectionError(f"l_d = {l_d} outside (0, 2)")
    zero = np.zeros((w.n, w.p))
    return ObserverSpec(L_f=zero, L_i=zero, L_o=zero, L_d=l_d * np.eye(w.p), d_max=d_max,
                        w_bar=w_bar)


def v_o(spec, chi_hat, chi):
    """Observer incremental Lyapunov value of an (estimate, truth) pair, in the
    metric P_o of the ``ObserverCertificate`` ``spec``."""
    e = np.array([np.linalg.norm(chi_hat.x.c - chi.x.c),
                  np.linalg.norm(chi_hat.x.h - chi.x.h),
                  np.linalg.norm(np.atleast_1d(chi_hat.d) - np.atleast_1d(chi.d))])
    return float(np.sqrt(e @ spec.P_o @ e))
