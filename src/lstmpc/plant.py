"""pH neutralization tank: ground-truth ODE simulator and signal scaling.

Three streams mix in a tank: acid q1 (constant parameter), buffer q2
(disturbance) and alkaline q3 (manipulated input). States are the two
charge-balance invariants of the outlet and the tank level; the measured
pH is defined implicitly by a titration charge balance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FINITE, NONNEGATIVE, POSITIVE, RANGE, UnphysicalStateError, check

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
    """Physical parameters, defaults at the nominal operating conditions;
    each passes its rule in ``PARAM_RULES``, else ``errors.FINITE``."""

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

    def __post_init__(self):
        for name, value in vars(self).items():
            check(name, value, PARAM_RULES.get(name, FINITE))


#: The rule of each ``PhParams`` field that is not just a finite real number.
PARAM_RULES = {**dict.fromkeys(("C_v4", "n_exp", "A1"), POSITIVE),
               **dict.fromkeys(("q1", "q2_nominal", "q3_nominal"), NONNEGATIVE)}


def equilibrium(p, u_phi=None, d_phi=None):
    """Exact steady state [W_a4, W_b4, h1] for constant flows; a ValueError
    names the inflow q1 + u_phi + d_phi when it has none, being zero or
    giving a level that overflows."""
    u = p.q3_nominal if u_phi is None else u_phi
    d = p.q2_nominal if d_phi is None else d_phi
    q_tot = p.q1 + u + d
    try:
        h1 = (q_tot / p.C_v4) ** (1.0 / p.n_exp) - p.z
    except OverflowError:
        h1 = math.inf
    check("q1 + u_phi + d_phi", q_tot, (
        lambda q: q > 0.0 and math.isfinite(h1),
        "positive, with a finite level (q / C_v4) ** (1 / n_exp) - z"))
    w_a4 = (p.q1 * p.W_a1 + u * p.W_a3 + d * p.W_a2) / q_tot
    w_b4 = (p.q1 * p.W_b1 + u * p.W_b3 + d * p.W_b2) / q_tot
    return np.array([w_a4, w_b4, h1])


def rates(p, x, u_phi, d_phi):
    """The ODE right-hand side (dW_a4, dW_b4, dh1) at the state x, the
    expression each stage of ``plant_step`` writes out."""
    w_a4, w_b4, h1 = map(float, x)
    inv_v = 1.0 / (p.A1 * h1)
    return (p.q1 * inv_v * (p.W_a1 - w_a4) + u_phi * inv_v * (p.W_a3 - w_a4)
            + d_phi * inv_v * (p.W_a2 - w_a4),
            p.q1 * inv_v * (p.W_b1 - w_b4) + u_phi * inv_v * (p.W_b3 - w_b4)
            + d_phi * inv_v * (p.W_b2 - w_b4),
            (p.q1 + u_phi + d_phi - p.C_v4 * (h1 + p.z) ** p.n_exp) / p.A1)


def plant_step(p, x, u_phi, d_phi, dt, substeps=10):
    """Advance the ODE by dt with classical RK4 over fixed substeps, its
    four stages written out on Python floats. The alkaline flow is clipped
    to ``U_PHI_RANGE``; ``UnphysicalStateError`` on a non-finite state
    entry, flow or dt, and on a stage level at or below max(0, -z), where
    the outflow's power would be complex (z < 0 puts the valve above the bottom).
    """
    a, b, l, u_phi, d_phi = vals = (*map(float, x), float(u_phi), float(d_phi))
    if not all(map(math.isfinite, (*vals, dt))):
        raise UnphysicalStateError(f"non-finite plant state, flow or dt {vals}, {dt}")
    u_phi = min(max(u_phi, U_PHI_RANGE[0]), U_PHI_RANGE[1])
    q1, a1, c_v4, z, n_exp = p.q1, p.A1, p.C_v4, p.z, p.n_exp
    w_a1, w_a2, w_a3, w_b1, w_b2, w_b3 = p.W_a1, p.W_a2, p.W_a3, p.W_b1, p.W_b2, p.W_b3
    floor = max(0.0, -z)
    q_in = q1 + u_phi + d_phi
    h = dt / substeps
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        if l <= floor:
            raise UnphysicalStateError(f"tank level {l:.3g} <= {floor:.3g}")
        inv_v = 1.0 / (a1 * l)
        qv, uv, dv = q1 * inv_v, u_phi * inv_v, d_phi * inv_v
        k1a = qv * (w_a1 - a) + uv * (w_a3 - a) + dv * (w_a2 - a)
        k1b = qv * (w_b1 - b) + uv * (w_b3 - b) + dv * (w_b2 - b)
        k1l = (q_in - c_v4 * (l + z) ** n_exp) / a1
        sa, sb, sl = a + half * k1a, b + half * k1b, l + half * k1l
        if sl <= floor:
            raise UnphysicalStateError(f"tank level {sl:.3g} <= {floor:.3g}")
        inv_v = 1.0 / (a1 * sl)
        qv, uv, dv = q1 * inv_v, u_phi * inv_v, d_phi * inv_v
        k2a = qv * (w_a1 - sa) + uv * (w_a3 - sa) + dv * (w_a2 - sa)
        k2b = qv * (w_b1 - sb) + uv * (w_b3 - sb) + dv * (w_b2 - sb)
        k2l = (q_in - c_v4 * (sl + z) ** n_exp) / a1
        sa, sb, sl = a + half * k2a, b + half * k2b, l + half * k2l
        if sl <= floor:
            raise UnphysicalStateError(f"tank level {sl:.3g} <= {floor:.3g}")
        inv_v = 1.0 / (a1 * sl)
        qv, uv, dv = q1 * inv_v, u_phi * inv_v, d_phi * inv_v
        k3a = qv * (w_a1 - sa) + uv * (w_a3 - sa) + dv * (w_a2 - sa)
        k3b = qv * (w_b1 - sb) + uv * (w_b3 - sb) + dv * (w_b2 - sb)
        k3l = (q_in - c_v4 * (sl + z) ** n_exp) / a1
        sa, sb, sl = a + h * k3a, b + h * k3b, l + h * k3l
        if sl <= floor:
            raise UnphysicalStateError(f"tank level {sl:.3g} <= {floor:.3g}")
        inv_v = 1.0 / (a1 * sl)
        qv, uv, dv = q1 * inv_v, u_phi * inv_v, d_phi * inv_v
        k4a = qv * (w_a1 - sa) + uv * (w_a3 - sa) + dv * (w_a2 - sa)
        k4b = qv * (w_b1 - sb) + uv * (w_b3 - sb) + dv * (w_b2 - sb)
        k4l = (q_in - c_v4 * (sl + z) ** n_exp) / a1
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
        e2 = 10.0 ** (ph - pk2)
        return (w_a4 + 10.0 ** (ph - 14.0) - 10.0 ** (-ph)
                + w_b4 * (1.0 + 2.0 * e2) / (1.0 + 10.0 ** (pk1 - ph) + e2))

    return residual


_CELL = 14.0 / 2 ** 34    # bisection's last cell: 34 halvings of [0, 14], exact in binary
_LN10 = math.log(10.0)


def _bisect(residual, c_lo):
    """Bisection's last cell (lo, hi) of [0, 14]: 34 halvings, each keeping
    residual(lo) c_lo > 0 and residual(hi) c_lo <= 0."""
    lo, hi = 0.0, 14.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if residual(mid) * c_lo <= 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _newton_cell(p, w_a4, w_b4, residual, c_lo):
    """``_bisect``'s cell found by a bracketed Newton on the charge balance,
    c_lo < 0 < c_hi and w_b4 >= 0, or None if no cell passes its test.

    Newton, on the analytic slope, stops once its step is below a twentieth
    of a cell, before its bracket test, and takes the cell [k, k+1] _CELL
    holding its root; the cell passes if ``residual`` gives bisection's
    invariant at its ends, else k moves by one, at most three times."""
    e1_0, e2_0 = 10.0 ** p.pK1, 10.0 ** -p.pK2
    a, b, ph = 0.0, 14.0, 7.0
    for _ in range(60):
        t = 10.0 ** ph
        e1, e2 = e1_0 / t, t * e2_0
        d = 1.0 + e1 + e2
        r = w_a4 + t * 1e-14 - 1.0 / t + w_b4 * (1.0 + 2.0 * e2) / d
        step = r / (_LN10 * (t * 1e-14 + 1.0 / t + w_b4 * (e1 + e2 + 4.0 * e1 * e2) / (d * d)))
        if abs(step) < 0.05 * _CELL:
            break
        if r < 0.0:
            a = ph
        else:
            b = ph
        ph -= step
        if not a < ph < b:      # also for NaN
            ph = 0.5 * (a + b)
    else:
        return None
    k = math.floor((ph - step) / _CELL)
    for _ in range(4):
        if not 0 <= k < 2 ** 34:
            return None
        lo = k * _CELL
        if residual(lo) * c_lo <= 0.0:
            k -= 1
        elif residual(lo + _CELL) * c_lo > 0.0:
            k += 1
        else:
            return lo, lo + _CELL
    return None


def measure_ph(p, x):
    """Root of the charge balance in [0, 14]: bisection's last cell, then a
    two-step Newton polish from its midpoint.

    The cell is found by a bracketed Newton (``_newton_cell``) and accepted
    only if ``residual`` gives bisection's invariant at its ends, k _CELL
    and (k+1) _CELL, both exact in binary: residual(lo) c_lo > 0 and
    residual(hi) c_lo <= 0. It is then bisection's cell whenever the float
    residual has the sign of the exact charge balance, increasing for
    w_b4 >= 0, at every dyadic point outside the cell, given that it has it
    at the cell's two ends. A state these tests cannot settle (c_lo not
    < 0 < c_hi, w_b4 < 0, a NaN, no cell found) runs the whole bisection,
    ``_bisect``. A non-finite concentration raises ``UnphysicalStateError``.
    """
    w_a4, w_b4 = float(x[0]), float(x[1])
    if not (math.isfinite(w_a4) and math.isfinite(w_b4)):
        raise UnphysicalStateError(f"non-finite concentrations ({w_a4}, {w_b4})")
    residual = _residual(p, w_a4, w_b4)
    c_lo, c_hi = residual(0.0), residual(14.0)
    if c_lo * c_hi > 0.0:
        raise UnphysicalStateError("charge balance has no sign change in [0, 14]")
    cell = _newton_cell(p, w_a4, w_b4, residual, c_lo) if c_lo < 0.0 < c_hi and w_b4 >= 0.0 \
        else None
    lo, hi = cell or _bisect(residual, c_lo)
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
        check("(u_lo, u_hi)", (self.u_lo, self.u_hi), RANGE)
        check("(y_lo, y_hi)", (self.y_lo, self.y_hi), RANGE)

    def normalize_u(self, v):
        return 2.0 * (np.asarray(v, dtype=float) - self.u_lo) / (self.u_hi - self.u_lo) - 1.0

    def denormalize_u(self, v):
        return self.u_lo + 0.5 * (np.asarray(v, dtype=float) + 1.0) * (self.u_hi - self.u_lo)

    def normalize_y(self, v):
        return 2.0 * (np.asarray(v, dtype=float) - self.y_lo) / (self.y_hi - self.y_lo) - 1.0

    def denormalize_y(self, v):
        return self.y_lo + 0.5 * (np.asarray(v, dtype=float) + 1.0) * (self.y_hi - self.y_lo)
