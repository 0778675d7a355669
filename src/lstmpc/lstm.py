"""LSTM dynamical model, its cell kernel and its incremental-stability analysis.

The model is the standard gated recurrence

    c+ = sigma(W_f u + U_f h + b_f) o c
       + sigma(W_i u + U_i h + b_i) o tanh(W_c u + U_c h + b_c)
    h+ = sigma(W_o u + U_o h + b_o) o tanh(c+)
    y  = W_y h + b_y

The model step, the observer, the MPC prediction and its sensitivities,
training and the reference Jacobian all run this cell through one kernel:

- ``LstmWeights`` stores the gate weights once, stacked in the order
  ``GATES`` = (f, i, o | c). Every (4n,)-row quantity uses this order:
  the stored W, U, b, an injected preactivation term and the adjoint dz;
  ``W_f`` ... ``b_c`` are views into the stacks.
- ``rollout`` runs T steps from (c0, h0) and returns c, h of shape
  (T+1, n) plus a cache of the f/i/o activations, the candidate gate and
  tanh(c+). Each step takes all four gates from one ``tanh`` over the
  preactivations with the f, i, o block halved, since
  sigmoid(z) = 0.5 (1 + tanh(z / 2)). The halving is applied once per
  call, to the input terms and to a copy of U; halving is exact and
  commutes with rounding, so the gates equal ``sigmoid``'s bit for bit.
  The step works in place in arrays allocated once per call: the halved
  U h_k is written into the step's row of the activation cache, which
  then takes the input term, the tanh and the sigmoid's affine map
  0.5 (1 + t), whose operands are cached read-only arrays like the
  scale (an in-place ufunc costs less with an array operand than with a
  float); c_k+1, tanh(c_k+1) and h_k+1 go straight into their rows of
  the outputs, 10 numpy calls in all.
- ``local_factors`` gives the per-step partial derivatives of the cell
  from that cache, elementwise.
- ``step_jacobians`` is the one place where the cell's linearization is
  written: from ``local_factors``, in one vectorized pass for any T, every
  step's A_k = d(c+, h+)/d(c, h) and B_k = d(c+, h+)/du. It feeds the
  MPC's sensitivities, the reference calculation's Newton Jacobian
  [A_0 - I | B_0; 0 W_y 0] and the adjoint.
- ``sensitivities`` is the forward (tangent-linear) sweep over the same
  cache: S_k = d(c_k, h_k)/du, one (T+1, 2n, T*m) array, for the MPC's
  dense QP. It runs the recurrence S_k+1 = A_k S_k (+ B_k in u_k's
  columns), one matrix product per step.
- ``adjoint`` is the reverse sweep, backpropagation through time over the
  same A_k. Given the direct partials dL/dc_k, dL/dh_k at stages 0..T it
  returns dz = dL/dz_k, (T, 4n), the gradient with respect to the stacked
  preactivations z_k; then dL/du = dz @ W and
  dL/d(W, U, b) = (dz.T @ u, dz.T @ h[:T], dz.sum(0)). It runs the state
  adjoint lam_k = A_k^T lam_k+1 + (dL/dc_k, dL/dh_k) as one BLAS call per
  step: lam is carried as [lam_k | 1] and each step's block as the
  (2n+1, 2n) [A_k; stage-k partials], so ``np.dot`` writes lam_k
  straight into its row. Only A_k is formed, not B_k, in blocks of steps
  whose stack stays near 128 KB; dz then follows from lam for all steps
  at once. It never writes into its inputs.

Besides the state update, this module holds the one copy of the
contraction certificate's arithmetic. ``gate_bounds`` bounds the gates
over the invariant set (through ``gate_sigmas``, which the observer
shares); ``increment_gains`` turns four gate bounds and
the matrices that carry the increments into the gates into the cell
radius, sigma_x, alpha, beta and the 2x2 increment-gain matrix with its
input column. The model certificate, the observer's A_d and L_mat and
the training penalty (through ``gate_bounds`` and the Jury margins
``jury_margins``) all use it; ``lyapunov_bounds`` gives the model
(``incremental_lyapunov``) and the observer their Lyapunov data.
"""

import functools
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InstabilityError
from .numerics import (
    eig_extrema_spd,
    freeze_arrays,
    induced_two_norm,
    solve_discrete_lyapunov,
    spectral_radius,
)


def sigmoid(z):
    """Logistic function in its tanh form, 0.5 (1 + tanh(z / 2)).

    tanh saturates instead of overflowing, so this is safe for any |z|;
    a scalar argument gives a float.
    """
    out = 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))
    return out if out.ndim else float(out)


@dataclass
class LstmState:
    """Cell and hidden state of the network."""

    c: np.ndarray
    h: np.ndarray

    def as_vector(self):
        return np.concatenate([self.c, self.h])

    def copy(self):
        return LstmState(self.c.copy(), self.h.copy())


GATES = ("f", "i", "o", "c")     # the gate order of the stacked W, U and b


class _GateBlock:
    """A gate's rows of the stacked ``W``, ``U`` or ``b``, named like
    ``W_f``: reads give a writable view, assignments write into the stack."""

    def __set_name__(self, owner, name):
        self.stack, gate = name.split("_")
        self.rows = GATES.index(gate)

    def __get__(self, w, owner=None):
        if w is None:
            return self
        n = w.n
        return getattr(w, self.stack)[self.rows * n:(self.rows + 1) * n]

    def __set__(self, w, value):
        self.__get__(w)[...] = value


class LstmWeights:
    """All trainable parameters plus the normalized-input bound.

    The gate weights are stored once, stacked in ``GATES`` order: ``W``
    (4n, m), ``U`` (4n, n) and ``b`` (4n,), beside the readout ``W_y``,
    ``b_y``. The per-gate ``W_f`` ... ``b_c`` (the constructor keywords
    and ``MATRIX_FIELDS``) are views into the stacks, so ``w.b_f[...] = x``,
    ``w.U_o *= k`` and ``w.W_c = a`` all update them. The constructor
    copies its arrays. ``u_range`` / ``y_range`` carry the physical
    (lo, hi) pairs used to normalize signals to [-1, 1]; they travel with
    the weights so a saved model is self-contained.
    """

    W_f, W_i, W_c, W_o, U_f, U_i, U_c, U_o, b_f, b_i, b_c, b_o = (
        _GateBlock() for _ in range(12))

    def __init__(self, W_f, W_i, W_c, W_o, U_f, U_i, U_c, U_o, b_f, b_i, b_c, b_o,
                 W_y, b_y, u_max=1.0, u_range=None, y_range=None):
        w_in, u_rec, bias = ([np.asarray(a, dtype=float) for a in gates] for gates in (
            (W_f, W_i, W_o, W_c), (U_f, U_i, U_o, U_c), (b_f, b_i, b_o, b_c)))
        n, m = w_in[0].shape
        for gates, shape, kind in ((w_in, (n, m), "input-weight"),
                                   (u_rec, (n, n), "recurrent-weight"), (bias, (n,), "bias")):
            if any(a.shape != shape for a in gates):
                raise DimensionError(f"{kind} shapes disagree")
        self.W, self.U, self.b = (np.concatenate(gates) for gates in (w_in, u_rec, bias))
        self.W_y = np.array(W_y, dtype=float)
        self.b_y = np.array(b_y, dtype=float)
        p = self.W_y.shape[0]
        if self.W_y.shape != (p, n) or self.b_y.shape != (p,):
            raise DimensionError("readout shapes disagree")
        if not u_max > 0:
            raise ValueError("u_max must be positive")
        self.u_max, self.u_range, self.y_range = u_max, u_range, y_range

    @property
    def n(self):
        return self.U.shape[1]

    @property
    def m(self):
        return self.W.shape[1]

    @property
    def p(self):
        return self.W_y.shape[0]

    def zero_state(self):
        return LstmState(np.zeros(self.n), np.zeros(self.n))

    def copy(self):
        return LstmWeights(*(getattr(self, name) for name in MATRIX_FIELDS),
                           self.u_max, self.u_range, self.y_range)


MATRIX_FIELDS = ("W_f", "W_i", "W_c", "W_o", "U_f", "U_i", "U_c", "U_o",
                 "b_f", "b_i", "b_c", "b_o", "W_y", "b_y")
PARAMETERS = ("W", "U", "b", "W_y", "b_y")     # the arrays LstmWeights stores


def rollout(w, c0, h0, u_seq, inject=0.0):
    """Run the cell over the (T, m) inputs ``u_seq`` from (c0, h0).

    ``inject`` is added to the preactivations (broadcast to (T, 4n), in
    ``GATES`` order). Returns c, h of shape (T+1, n) and the cache that
    ``adjoint``, ``step_jacobians`` and ``local_factors`` read.
    """
    n_t, n = len(u_seq), len(c0)
    c = np.empty((n_t + 1, n))
    h = np.empty((n_t + 1, n))
    c[0], h[0] = c0, h0
    act = np.empty((n_t, 4 * n))       # f, i, o activations | candidate gate
    tc = np.empty((n_t, n))            # tanh(c+)
    ig = np.empty(n)                   # i * candidate gate
    scale, one = _gate_scale(n), _gate_ones(n)
    half = scale[:3 * n]
    pre = u_seq @ w.W.T + w.b + inject
    pre *= scale
    u_rec = w.U * scale[:, None]       # C-contiguous, so BLAS keeps its kernel
    c_k, h_k = c[0], h[0]
    for a, pre_k, c_next, tc_k, h_next in zip(act, pre, c[1:], tc, h[1:]):
        np.dot(u_rec, h_k, out=a)
        a += pre_k
        np.tanh(a, out=a)
        s = a[:3 * n]
        s += one
        s *= half
        np.multiply(s[n:2 * n], a[3 * n:], out=ig)
        np.multiply(s[:n], c_k, out=c_next)
        c_next += ig
        np.tanh(c_next, out=tc_k)
        np.multiply(s[2 * n:], tc_k, out=h_next)
        c_k, h_k = c_next, h_next
    return c, h, (act[:, :3 * n], act[:, 3 * n:], tc)


@functools.cache
def _gate_scale(n):
    """(4n,) preactivation scale of ``rollout``'s one tanh: 0.5 on the f,
    i, o rows, 1 on the c rows; its f, i, o block is also the factor of
    the sigmoid's affine map. Read-only, shared by every call."""
    scale = np.repeat([0.5, 1.0], [3 * n, n])
    scale.flags.writeable = False
    return scale


@functools.cache
def _gate_ones(n):
    """(3n,) ones, the shift of the sigmoid's affine map in ``rollout``: an
    in-place ufunc costs less with an array operand than with a float.
    Read-only, shared by every call."""
    ones = np.ones(3 * n)
    ones.flags.writeable = False
    return ones


def local_factors(c, cache):
    """Per-step partial derivatives of the cell, each of shape (T, n).

    (dc+/dc, dc+/dz_f, dc+/dz_i, dc+/dz_c, dh+/dz_o, dh+/dc+)
    = (f, f(1-f) c, i(1-i) g, i(1-g^2), o(1-o) tanh c+, o(1-tanh^2 c+)),
    all elementwise; ``c`` and ``cache`` are ``rollout``'s.
    """
    sig, g, tc = cache
    n = tc.shape[1]
    f, i, o = sig[:, :n], sig[:, n:2 * n], sig[:, 2 * n:]
    ds = 1.0 - sig              # f(1-f), i(1-i), o(1-o) over the (T, 3n) block
    ds *= sig
    return (f, ds[:, :n] * c[:-1], ds[:, n:2 * n] * g, i * (1.0 - g ** 2),
            ds[:, 2 * n:] * tc, o * (1.0 - tc ** 2))


def adjoint(w, c, cache, dc_stage, dh_stage):
    """Reverse sweep of ``rollout``: dz = dL/d(preactivation), (T, 4n).

    ``dc_stage``/``dh_stage`` (T+1, n) are the direct partials of L with
    respect to c_k and h_k at stages 0..T; they are read, not written.
    The state adjoint lam_k = dL/d(c_k, h_k) runs lam_k = A_k^T lam_k+1
    plus the stage-k partials as one vector-matrix product per step,
    [lam_k+1 | 1] [A_k; stage-k partials], with A_k from
    ``step_jacobians`` formed one block of steps at a time; then, for all
    k at once, with dct = lam^c_k+1 + k_t lam^h_k+1, dz_k = (k_f dct,
    k_i dct, k_o lam^h_k+1, k_g dct).
    """
    factors = local_factors(c, cache)
    _, k_f, k_i, k_g, k_o, k_t = factors
    n_t, n = k_t.shape
    n2 = 2 * n
    lam = np.ones((n_t + 1, n2 + 1))               # [lam_k | 1]
    lam[n_t, :n], lam[n_t, n:n2] = dc_stage[n_t], dh_stage[n_t]
    block = min(_sweep_block(n, w.m), max(n_t, 1))
    aug = np.zeros((block, n2 + 1, n2))            # [A_k; stage-k partials]
    for k1 in range(n_t, 0, -block):
        k0 = max(k1 - block, 0)
        aug_b = aug[:k1 - k0]
        _jacobian_stack(w, [x[k0:k1] for x in factors], aug_b)
        aug_b[:, n2, :n], aug_b[:, n2, n:] = dc_stage[k0:k1], dh_stage[k0:k1]
        for lam_k, lam_next, aug_k in zip(lam[k0:k1, :n2][::-1], lam[k0 + 1:k1 + 1][::-1],
                                          aug_b[::-1]):
            np.dot(lam_next, aug_k, out=lam_k)
    lam_c, lam_h = lam[1:, :n], lam[1:, n:n2]
    dct = lam_h * k_t
    dct += lam_c
    return np.concatenate((k_f * dct, k_i * dct, k_o * lam_h, k_g * dct), axis=1)


_SWEEP_BLOCK_BYTES = 1 << 17    # one block of ``adjoint``'s step Jacobians


def _sweep_block(n, m):
    """Steps per block of ``adjoint``'s sweep: as many (2n, 2n+m) step
    Jacobians as fit in ``_SWEEP_BLOCK_BYTES``, and at least one. A block
    holds (2n+1, 2n) per step, no more than that."""
    return max(1, _SWEEP_BLOCK_BYTES // (8 * 2 * n * (2 * n + m)))


def step_jacobians(w, c, cache):
    """Every step's linearization of ``rollout``, in one vectorized pass.

    Returns A (T, 2n, 2n) = d(c+, h+)/d(c, h) and B (T, 2n, m) =
    d(c+, h+)/du, rows and state columns c first, then h:

        A_k = [diag f          dc+/dh                   ]    B_k = [dc+/du ]
              [diag(k_t f)     k_t dc+/dh + k_o U_o     ]          [dh+/du ]

    with dc+/d(h, u) = k_f [U_f | W_f] + k_i [U_i | W_i] + k_g [U_c | W_c]
    and dh+/du = k_t dc+/du + k_o W_o, where each factor of
    ``local_factors`` (f, k_f, ..., k_t) scales the rows it multiplies.
    A and B are views of one (T, 2n, 2n+m) array.
    """
    factors = local_factors(c, cache)
    n2 = 2 * w.n
    jac = np.zeros((len(factors[0]), n2, n2 + w.m))
    _jacobian_stack(w, factors, jac)
    return jac[:, :, :n2], jac[:, :, n2:]


def _jacobian_stack(w, factors, out):
    """Write the T steps' [A_k | B_k] of ``step_jacobians``, from their
    ``local_factors``, into rows :2n of a (T, >= 2n, 2n+m) ``out``, or
    A_k alone into a (T, >= 2n, 2n) one. The state-c columns are written
    on their diagonal only, so ``out`` must hold zeros off it."""
    f, k_f, k_i, k_g, k_o, k_t = factors
    n = f.shape[1]
    cols = out.shape[2] - n                               # n + m, or n for A_k alone
    # [U | W], or U alone, per gate in GATES order
    uw = (np.concatenate((w.U, w.W), axis=1) if cols > n else w.U).reshape(4, n, cols)
    dc = k_f[:, :, None] * uw[0] + k_i[:, :, None] * uw[1] + k_g[:, :, None] * uw[3]
    diag = np.arange(n)
    out[:, diag, diag] = f
    out[:, n + diag, diag] = k_t * f
    out[:, :n, n:] = dc
    out[:, n:2 * n, n:] = k_t[:, :, None] * dc + k_o[:, :, None] * uw[2]


def sensitivities(w, c, cache):
    """Forward (tangent-linear) sweep of ``rollout``: d(c_k, h_k)/du.

    Returns one (T+1, 2n, T*m) array S for stages 0..T, rows c_k then
    h_k, with u the row-major flattened (T, m) inputs. Stage 0 does not
    depend on u and stage k only on u_0..u_{k-1}, so S_k+1 = A_k S_k on
    those columns and B_k on u_k's, with A, B from ``step_jacobians``.
    """
    a, b = step_jacobians(w, c, cache)
    n_t, m = len(a), w.m
    s = np.zeros((n_t + 1, a.shape[1], n_t * m))
    for k in range(n_t):
        j = k * m
        np.matmul(a[k], s[k, :, :j], out=s[k + 1, :, :j])
        s[k + 1, :, j:j + m] = b[k]
    return s


def step(w, x, u):
    """One state update. Warns (does not reject) if u leaves its box."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (w.m,):
        raise DimensionError(f"input shape {u.shape} != ({w.m},)")
    if np.max(np.abs(u)) > w.u_max * (1.0 + 1e-12):
        warnings.warn("input exceeds u_max; upstream saturation expected", stacklevel=2)
    c, h, _ = rollout(w, x.c, x.h, u[None, :])
    return LstmState(c[1], h[1])


def output(w, x):
    """Affine readout of the hidden state."""
    if x.h.shape != (w.n,):
        raise DimensionError(f"state shape {x.h.shape} != ({w.n},)")
    return w.W_y @ x.h + w.b_y


@dataclass
class GateBounds:
    """Worst-case gate magnitudes over an invariant operating set and the
    increment gains they give (see ``increment_gains``).

    ``cell_radius`` bounds ||c||_inf on the set and ``sigma_x`` = tanh of
    it bounds tanh(c). ``gains`` (2x2, alpha = gains[0, 1]) and ``column``
    (2x1, beta = column[0, 0]) bound the next increment:
    (||dc+||, ||dh+||) <= gains (||dc||, ||dh||) + column ||dv||.
    """

    sigma_f: float
    sigma_i: float
    sigma_o: float
    sigma_c: float
    cell_radius: float
    sigma_x: float
    alpha: float
    beta: float
    gains: np.ndarray
    column: np.ndarray


def increment_gains(sigmas, recurrent, inputs):
    """Increment gains of a cell whose gates are bounded by ``sigmas``.

    ``sigmas`` = (sigma_f, sigma_i, sigma_o, sigma_c); ``recurrent`` and
    ``inputs`` hold, in ``GATES`` order, the matrices that carry the
    hidden-state increment dh and the second increment dv into each gate's
    preactivation. The model passes (U, W); the observer passes its hatted
    bounds with (U - L W_y, L) for its error dynamics and with (L W_y, L)
    for their sensitivity to the gains. This is the one place where the
    certificate's cell radius, sigma_x, alpha, beta and second row are
    formed. Returns the GateBounds of ``sigmas``.
    """
    sf, si, so, sc = sigmas
    n_uf, n_ui, n_uo, n_uc = _two_norms(recurrent)
    n_wf, n_wi, n_wo, n_wc = _two_norms(inputs)
    c_rad = si * sc / (1.0 - sf)
    sx = float(np.tanh(c_rad))
    alpha = 0.25 * n_uf * c_rad + si * n_uc + 0.25 * n_ui * sc
    beta = 0.25 * n_wf * c_rad + si * n_wc + 0.25 * n_wi * sc
    gains = np.array([[sf, alpha], [so * sf, alpha * so + 0.25 * sx * n_uo]])
    column = np.array([[beta], [beta * so + 0.25 * sx * n_wo]])
    return GateBounds(sf, si, so, sc, c_rad, sx, alpha, beta, gains, column)


def _two_norms(mats):
    """Induced 2-norms of equal-shape matrices, one batched SVD."""
    return np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)[:, 0].tolist()


def gate_bounds(w):
    """Gate bounds of the model and its increment gains with (U, W)."""
    n = w.n
    return increment_gains(gate_sigmas(w.W, w.U, w.b, w.u_max),
                           w.U.reshape(4, n, n), w.W.reshape(4, n, w.m))


def gate_sigmas(w_in, u_rec, b, u_max, widen=0.0):
    """(sigma_f, sigma_i, sigma_o, sigma_c), each gate's bound over the invariant set.

    A gate's bound is its activation at the induced inf-norm of its block
    [W u_max, U, b] (stacked (4n, .) arrays in ``GATES`` order); ``widen``,
    (4n,), is added to the block's absolute row sums.
    """
    rows = np.abs(_gate_block(w_in, u_rec, b, u_max)).sum(axis=1) + widen
    norms = rows.reshape(4, -1).max(axis=1)
    return (*sigmoid(norms[:3]).tolist(), float(np.tanh(norms[3])))


def _gate_block(w_in, u_rec, b, u_max):
    return np.hstack([w_in * u_max, u_rec, b.reshape(-1, 1)])


@dataclass(frozen=True)
class StabilityCertificate:
    """Contraction certificate of the state-increment dynamics.

    ``certified`` tracks rho(A_delta) < 1; the Jury margins r1, r2 give the
    equivalent pair of inequalities used as soft training penalties.
    The Lyapunov fields (P_s onward) are set by incremental_lyapunov.
    Its arrays are read-only copies: A_delta and B_delta are the gains
    and column of the model's ``gate_bounds``, which it does not keep.
    """

    A_delta: np.ndarray
    B_delta: np.ndarray
    rho_A: float
    r1: float
    r2: float
    certified: bool
    P_s: np.ndarray | None = None
    rho_s: float | None = None
    c_sl: float | None = None
    c_su: float | None = None
    c_s: np.ndarray | None = None

    def __post_init__(self):
        freeze_arrays(self)


def jury_margins(w, bounds=None):
    """(r1, r2): both negative iff rho(A_delta) < 1."""
    g = bounds or gate_bounds(w)
    uo = induced_two_norm(w.U_o)
    r1 = -1.0 + g.sigma_f + g.alpha * g.sigma_o + 0.25 * g.sigma_x * uo \
        - 0.25 * g.sigma_f * g.sigma_x * uo
    r2 = 0.25 * g.sigma_f * g.sigma_x * uo - 1.0
    return r1, r2


def delta_iss_check(w):
    """Build the contraction certificate; ``certified`` marks acceptance."""
    g = gate_bounds(w)
    rho = spectral_radius(g.gains)
    r1, r2 = jury_margins(w, g)
    return StabilityCertificate(
        A_delta=g.gains, B_delta=g.column, rho_A=rho, r1=r1, r2=r2, certified=rho < 1.0)


def lyapunov_bounds(a):
    """Solve a^T P a - P = -1000 I for a contraction matrix ``a``.

    Returns (P, rho, c_l, c_u): the decrease rate sqrt(1 - 1000 / lambda_max)
    and the norm-equivalence constants sqrt(lambda_min), sqrt(lambda_max) of P.
    """
    p = solve_discrete_lyapunov(a, 1000.0 * np.eye(len(a)))
    lam_min, lam_max = eig_extrema_spd(p)
    return (p, float(np.sqrt(1.0 - 1000.0 / lam_max)),
            float(np.sqrt(lam_min)), float(np.sqrt(lam_max)))


def incremental_lyapunov(w):
    """The certificate with its incremental Lyapunov data.

    ``lyapunov_bounds`` of A_delta gives P_s, the contraction rate rho_s
    and the norm-equivalence constants c_sl, c_su; c_s is the per-output
    sensitivity vector.
    """
    cert = delta_iss_check(w)
    if not cert.certified:
        raise InstabilityError(f"rho(A_delta) = {cert.rho_A:.4f} >= 1, model not certified")
    p_s, rho_s, c_sl, c_su = lyapunov_bounds(cert.A_delta)
    return replace(cert, P_s=p_s, rho_s=rho_s, c_sl=c_sl, c_su=c_su,
                   c_s=np.linalg.norm(w.W_y, axis=1) / c_sl)


def v_s(cert, x_a, x_b):
    """Incremental Lyapunov value of a state pair."""
    if cert.P_s is None:
        raise ValueError("certificate has no Lyapunov data; call incremental_lyapunov")
    v = np.array([np.linalg.norm(x_a.c - x_b.c), np.linalg.norm(x_a.h - x_b.h)])
    return float(np.sqrt(v @ cert.P_s @ v))


def save_weights(w, path, observer=None):
    """Serialize weights (and optionally an observer section) to JSON."""
    doc = {name: getattr(w, name).tolist() for name in MATRIX_FIELDS}
    doc.update(n=w.n, m=w.m, p=w.p, u_max=w.u_max)
    doc["u_range"] = list(w.u_range) if w.u_range is not None else None
    doc["y_range"] = list(w.y_range) if w.y_range is not None else None
    if observer is not None:
        doc["observer"] = observer
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_weights(path):
    """Inverse of save_weights; returns (weights, observer-dict-or-None)."""
    with open(path) as fh:
        doc = json.load(fh)
    kwargs = {name: np.asarray(doc[name], dtype=float) for name in MATRIX_FIELDS}
    w = LstmWeights(
        u_max=float(doc["u_max"]),
        u_range=tuple(doc["u_range"]) if doc.get("u_range") else None,
        y_range=tuple(doc["y_range"]) if doc.get("y_range") else None,
        **kwargs)
    return w, doc.get("observer")
