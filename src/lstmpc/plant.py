"""pH neutralization tank: ground-truth ODE simulator and signal scaling.

Three streams mix in a tank: acid q1 (constant parameter), buffer q2
(disturbance) and alkaline q3 (manipulated input). States are the two
charge-balance invariants of the outlet and the tank level; the measured
pH is defined implicitly by a titration charge balance.
"""

import math
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


def _rates(p):
    """The ODE right-hand side on Python floats, with ``p`` read once:
    rates(w_a4, w_b4, h1, u_phi, d_phi) -> (dw_a4, dw_b4, dh1)."""
    q1, a1, c_v4, z, n_exp = p.q1, p.A1, p.C_v4, p.z, p.n_exp
    w_a1, w_a2, w_a3, w_b1, w_b2, w_b3 = p.W_a1, p.W_a2, p.W_a3, p.W_b1, p.W_b2, p.W_b3

    # the level must be positive and, for a valve above the bottom (z < 0),
    # above the valve: below it the outflow's power would be complex
    floor = max(0.0, -z)

    def rates(w_a4, w_b4, h1, u_phi, d_phi):
        if h1 <= floor:
            raise UnphysicalStateError(f"tank level {h1:.3g} <= {floor:.3g}")
        inv_v = 1.0 / (a1 * h1)
        outflow = c_v4 * (h1 + z) ** n_exp
        return (q1 * inv_v * (w_a1 - w_a4) + u_phi * inv_v * (w_a3 - w_a4)
                + d_phi * inv_v * (w_a2 - w_a4),
                q1 * inv_v * (w_b1 - w_b4) + u_phi * inv_v * (w_b3 - w_b4)
                + d_phi * inv_v * (w_b2 - w_b4),
                (q1 + u_phi + d_phi - outflow) / a1)

    return rates


def plant_step(p, x, u_phi, d_phi, dt, substeps=10):
    """Advance the ODE by dt with classical RK4 over fixed substeps.

    The alkaline flow is clipped to ``U_PHI_RANGE``; a non-finite state
    entry, flow or dt raises ``UnphysicalStateError``.
    """
    a, b, l, u_phi, d_phi = vals = (*map(float, x), float(u_phi), float(d_phi))
    if not all(map(math.isfinite, (*vals, dt))):
        raise UnphysicalStateError(f"non-finite plant state, flow or dt {vals}, {dt}")
    u_phi = min(max(u_phi, U_PHI_RANGE[0]), U_PHI_RANGE[1])
    rates = _rates(p)
    h = dt / substeps
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        k1a, k1b, k1l = rates(a, b, l, u_phi, d_phi)
        k2a, k2b, k2l = rates(a + half * k1a, b + half * k1b, l + half * k1l, u_phi, d_phi)
        k3a, k3b, k3l = rates(a + half * k2a, b + half * k2b, l + half * k2l, u_phi, d_phi)
        k4a, k4b, k4l = rates(a + h * k3a, b + h * k3b, l + h * k3l, u_phi, d_phi)
        a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        l = l + sixth * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        if l <= 0.0:
            raise UnphysicalStateError("tank level went non-positive during integration")
    return np.array([a, b, l])


def _residual(p, w_a4, w_b4):
    """The charge balance at fixed concentrations, as a function of pH."""
    pk1, pk2 = p.pK1, p.pK2

    def residual(ph):
        return (w_a4 + 10.0 ** (ph - 14.0) - 10.0 ** (-ph)
                + w_b4 * (1.0 + 2.0 * 10.0 ** (ph - pk2))
                / (1.0 + 10.0 ** (pk1 - ph) + 10.0 ** (ph - pk2)))

    return residual


def measure_ph(p, x):
    """Root of the charge balance in [0, 14]: bisection then Newton polish.

    A non-finite concentration raises ``UnphysicalStateError``.
    """
    w_a4, w_b4 = float(x[0]), float(x[1])
    if not (math.isfinite(w_a4) and math.isfinite(w_b4)):
        raise UnphysicalStateError(f"non-finite concentrations ({w_a4}, {w_b4})")
    residual = _residual(p, w_a4, w_b4)
    lo, hi = 0.0, 14.0
    c_lo, c_hi = residual(lo), residual(hi)
    if c_lo * c_hi > 0.0:
        raise UnphysicalStateError("charge balance has no sign change in [0, 14]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if residual(mid) * c_lo <= 0.0:
            hi = mid
        else:
            lo = mid
    ph = 0.5 * (lo + hi)
    for _ in range(2):
        c = residual(ph)
        eps = 1e-7
        dc = (residual(ph + eps) - residual(ph - eps)) / (2 * eps)
        if dc != 0.0:
            ph -= c / dc
    return ph


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
