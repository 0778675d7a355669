"""pH neutralization tank: ground-truth ODE simulator and signal scaling.

Three streams mix in a tank: acid q1 (constant parameter), buffer q2
(disturbance) and alkaline q3 (manipulated input). States are the two
charge-balance invariants of the outlet and the tank level; the measured
pH is defined implicitly by a titration charge balance.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UnphysicalStateError

#: Default saturation range of the alkaline flow, mL/s.
U_PHI_RANGE = (12.5, 17.0)
#: Controller sampling period, s.
T_S = 10.0


def _calibrated_cv4():
    # Valve coefficient chosen so the published operating point
    # (h1 = 14 cm at total inflow 16.6 + 0.55 + 15.6 mL/s) is an exact
    # level equilibrium; rounds to the tabulated 4.59.
    return (16.6 + 0.55 + 15.6) / (14.0 + 11.5) ** 0.607


@dataclass
class PhParams:
    """Physical parameters, defaults at the nominal operating conditions."""

    z: float = 11.5            # cm, valve height offset
    C_v4: float = field(default_factory=_calibrated_cv4)
    n_exp: float = 0.607
    pK1: float = 6.35
    pK2: float = 10.25
    W_a1: float = 3.00e-3      # M, acid stream
    W_b1: float = 0.00
    W_a2: float = -0.03        # M, buffer stream
    W_b2: float = 0.03
    W_a3: float = -3.05e-3     # M, alkaline stream (negative: net base)
    W_b3: float = 5.00e-5
    q1: float = 16.6           # mL/s, acid flow
    A1: float = 207.0          # cm^2, tank section
    q2_nominal: float = 0.55   # mL/s, buffer flow
    q3_nominal: float = 15.6   # mL/s, alkaline flow


def equilibrium(p, u_phi=None, d_phi=None):
    """Exact steady state [W_a4, W_b4, h1] for constant flows."""
    u = p.q3_nominal if u_phi is None else u_phi
    d = p.q2_nominal if d_phi is None else d_phi
    q_tot = p.q1 + u + d
    w_a4 = (p.q1 * p.W_a1 + u * p.W_a3 + d * p.W_a2) / q_tot
    w_b4 = (p.q1 * p.W_b1 + u * p.W_b3 + d * p.W_b2) / q_tot
    h1 = (q_tot / p.C_v4) ** (1.0 / p.n_exp) - p.z
    return np.array([w_a4, w_b4, h1])


def _xdot(p, x, u_phi, d_phi):
    w_a4, w_b4, h1 = x
    if h1 <= 0.0:
        raise UnphysicalStateError(f"tank level {h1:.3g} <= 0")
    inv_v = 1.0 / (p.A1 * h1)
    outflow = p.C_v4 * (h1 + p.z) ** p.n_exp
    return np.array([
        p.q1 * inv_v * (p.W_a1 - w_a4)
        + u_phi * inv_v * (p.W_a3 - w_a4)
        + d_phi * inv_v * (p.W_a2 - w_a4),
        p.q1 * inv_v * (p.W_b1 - w_b4)
        + u_phi * inv_v * (p.W_b3 - w_b4)
        + d_phi * inv_v * (p.W_b2 - w_b4),
        (p.q1 + u_phi + d_phi - outflow) / p.A1,
    ])


def plant_step(p, x, u_phi, d_phi, dt, substeps=10):
    """Advance the ODE by dt with classical RK4 over fixed substeps."""
    u_phi = float(np.clip(u_phi, *U_PHI_RANGE))
    x = np.asarray(x, dtype=float).copy()
    h = dt / substeps
    for _ in range(substeps):
        k1 = _xdot(p, x, u_phi, d_phi)
        k2 = _xdot(p, x + 0.5 * h * k1, u_phi, d_phi)
        k3 = _xdot(p, x + 0.5 * h * k2, u_phi, d_phi)
        k4 = _xdot(p, x + h * k3, u_phi, d_phi)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if x[2] <= 0.0:
            raise UnphysicalStateError("tank level went non-positive during integration")
    return x


def charge_balance(p, x, ph):
    """Titration residual c(x, pH); the measured pH is its root."""
    w_a4, w_b4 = x[0], x[1]
    return (w_a4 + 10.0 ** (ph - 14.0) - 10.0 ** (-ph)
            + w_b4 * (1.0 + 2.0 * 10.0 ** (ph - p.pK2))
            / (1.0 + 10.0 ** (p.pK1 - ph) + 10.0 ** (ph - p.pK2)))


def measure_ph(p, x):
    """Root of the charge balance in [0, 14]: bisection then Newton polish."""
    lo, hi = 0.0, 14.0
    c_lo, c_hi = charge_balance(p, x, lo), charge_balance(p, x, hi)
    if c_lo * c_hi > 0.0:
        raise UnphysicalStateError("charge balance has no sign change in [0, 14]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if charge_balance(p, x, mid) * c_lo <= 0.0:
            hi = mid
        else:
            lo = mid
    ph = 0.5 * (lo + hi)
    for _ in range(2):
        c = charge_balance(p, x, ph)
        eps = 1e-7
        dc = (charge_balance(p, x, ph + eps) - charge_balance(p, x, ph - eps)) / (2 * eps)
        if dc != 0.0:
            ph -= c / dc
    return float(ph)


@dataclass
class Normalizer:
    """Affine maps between physical signals and the [-1, 1] training range."""

    u_lo: float
    u_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.u_hi > self.u_lo and self.y_hi > self.y_lo):
            raise ValueError("normalization ranges must have hi > lo")

    def normalize_u(self, v):
        return 2.0 * (np.asarray(v, dtype=float) - self.u_lo) / (self.u_hi - self.u_lo) - 1.0

    def denormalize_u(self, v):
        return self.u_lo + 0.5 * (np.asarray(v, dtype=float) + 1.0) * (self.u_hi - self.u_lo)

    def normalize_y(self, v):
        return 2.0 * (np.asarray(v, dtype=float) - self.y_lo) / (self.y_hi - self.y_lo) - 1.0

    def denormalize_y(self, v):
        return self.y_lo + 0.5 * (np.asarray(v, dtype=float) + 1.0) * (self.y_hi - self.y_lo)
