"""LSTM dynamical model, its cell kernel and its incremental-stability analysis.

The model is the standard gated recurrence

    c+ = sigma(W_f u + U_f h + b_f) o c
       + sigma(W_i u + U_i h + b_i) o tanh(W_c u + U_c h + b_c)
    h+ = sigma(W_o u + U_o h + b_o) o tanh(c+)
    y  = W_y h + b_y

The model step, the observer, the MPC prediction and its sensitivities,
training and the reference Jacobian all run this cell through one kernel:

- ``LstmWeights``, the model, holds parameters only, read-only: it stores
  the gate weights once, stacked in the order ``GATES`` = (c, f, i, o), the
  one place the order is written; every (4n,)-row quantity uses it. The
  gates' names appear only in the weights file, whose per-gate arrays
  ``load_weights`` stacks and ``save_weights`` splits. Each step takes all
  four gates from one ``tanh`` over preactivations whose f, i, o rows are
  halved, since sigmoid(z) = 0.5 (1 + tanh(z / 2)); halving is exact, so
  the gates equal ``sigmoid``'s bit for bit.
- ``Workspace`` is the one owner of the buffers every step writes, sized
  to one sweep length T. One loop, ``_run``, works in place in a buffer
  whose row k is [c_k | g | f | i | o], 9 numpy calls per step:
  ``Workspace.rollout`` runs it over exactly T steps, and a workspace of
  T = 1 runs ``Workspace.step``, of any weights of its shapes. Each caller
  owns the workspaces it steps: the controller one for its FHOCP and one
  for its reference calculation, the closed loop one for its observer, its
  plant model and its initial estimate, the K_bar grid one, training and
  FIT one per sequence length. So callers that share a model share no
  scratch, and no function builds a workspace for a call: ``step`` runs
  in the one it is given.
- A sweep that is the workspace's last sweep shifted by one stage, as the
  closed loop's FHOCP candidate is, runs one step under the exact guard
  ``Workspace.rollout`` states, and every result keeps its bytes; the
  sweeps' results are read-only, since the next shifted sweep starts from
  them.
- ``Workspace.linearize``, the one copy of the cell's linearization, forms
  every step's [A_k | B_k] of the last sweep or step from its local
  factors; it feeds the forward sweep ``Workspace.sensitivities`` and the
  reference calculation's Newton Jacobian, and its kernels run the reverse
  sweep ``Workspace.adjoint`` one block of steps at a time, in buffers and
  views the workspace builds once, so no later call allocates an array.
  ``linearize`` multiplies its factors against the weights' per-gate
  blocks ``UW``; the reverse sweep against gate tiles, each gate's U
  repeated once per step of a block, which every call refreshes from the
  weights it reverses, since the products cost less without a broadcast.
- The per-step loops, ``_run``'s and ``_adjoint``'s one product per step,
  call only names bound before the loop, with each output positional:
  the products, and the input products before the loop, go through
  ``np.ndarray.dot`` (``_dot``), ``np.dot``'s C routine without its
  Python-level dispatcher, and ``_run``'s in-place updates call the ufuncs
  their operators dispatch to, so every array stays bit for bit the same.

Besides the state update, this module holds the one copy of the
contraction certificate's arithmetic, ``increment_gains``, and of its
reverse sweep, ``margin_adjoint``. ``StabilityCertificate`` forms the
model's whole certificate, ``lyapunov_bounds`` its Lyapunov data.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (POSITIVE, RANGE, DimensionError, InstabilityError, check, check_object,
                     finite_array, read_json)
from .numerics import eig_extrema_spd, freeze_arrays, solve_discrete_lyapunov, spectral_radius


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


GATES = ("c", "f", "i", "o")     # the gate order of the stacked W, U and b
_C, _F, _I, _O = map(GATES.index, "cfio")     # each gate's block of a (4n,) stack


def in_gate_order(**per_gate):
    """The values given by gate name (c=, f=, i=, o=), listed in ``GATES`` order."""
    return [per_gate[g] for g in GATES]


class LstmWeights:
    """The model, read-only: all trainable parameters, the normalized-input
    bound and the cell operands that every step runs on.

    The gate weights are stored once, stacked in ``GATES`` order: ``W``
    (4n, m), ``U`` (4n, n) and ``b`` (4n,), beside the readout ``W_y``
    (p, n), ``b_y`` (p,); the constructor takes them so, and
    DimensionError unless their shapes agree and n, m and p are all at
    least 1. It also forms, once, the cell operands: ``U_half``,
    ``W_half``, ``b_half``, the stacks with their f, i, o rows halved;
    and ``UW`` (4, n, n+m), the per-gate [U | W] blocks. Every array is a
    read-only copy and no attribute can be assigned, so nothing changes a
    model once its certificate is built: a changed model is a new
    ``LstmWeights``. The weights hold no buffer: every step and
    linearization of them runs on a ``Workspace`` its caller owns.
    ``u_range`` / ``y_range``, the physical (lo, hi) pairs normalized to
    [-1, 1], make a saved model self-contained.
    """

    def __init__(self, W, U, b, W_y, b_y, u_max=1.0, u_range=None, y_range=None):
        W, U, b, W_y, b_y = (np.asarray(a, dtype=float) for a in (W, U, b, W_y, b_y))
        n, m = (len(W) // 4, W.shape[1]) if W.ndim == 2 else (-1, -1)
        for a, shape, kind in ((W, (4 * n, m), "input-weight"), (U, (4 * n, n), "recurrent-weight"),
                               (b, (4 * n,), "bias")):
            if a.shape != shape:
                raise DimensionError(f"{kind} shapes disagree")
        p = len(W_y) if W_y.ndim else -1
        if W_y.shape != (p, n) or b_y.shape != (p,):
            raise DimensionError("readout shapes disagree")
        if min(n, m, p) < 1:
            raise DimensionError(f"(n, m, p) = ({n}, {m}, {p}): each must be at least 1")
        check("u_max", u_max, POSITIVE)
        for name, pair in (("u_range", u_range), ("y_range", y_range)):
            check(name, pair, (lambda v: v is None or RANGE[0](v), f"null or {RANGE[1]}"))
        scale = np.full(4 * n, 0.5)
        scale[_C * n:(_C + 1) * n] = 1.0
        # the sigmoid's 0.5 (1 + t) in place costs less with array operands than with floats
        vars(self).update(
            W=W, U=U, b=b, W_y=W_y, b_y=b_y, n=n, m=m, p=p, u_max=float(u_max), _scale=scale,
            u_range=u_range and tuple(u_range), y_range=y_range and tuple(y_range),
            _half=scale[_F * n:(_O + 1) * n],
            _one=np.ones(3 * n), U_half=U * scale[:, None], W_half=W * scale[:, None],
            b_half=b * scale, UW=np.concatenate((U, W), axis=1).reshape(4, n, n + m))
        freeze_arrays(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: LstmWeights is read-only")

    def zero_state(self):
        return LstmState(np.zeros(self.n), np.zeros(self.n))


MATRIX_FIELDS = ("W_f", "W_i", "W_c", "W_o", "U_f", "U_i", "U_c", "U_o",
                 "b_f", "b_i", "b_c", "b_o", "W_y", "b_y")     # the arrays of a weights file
PARAMETERS = ("W", "U", "b", "W_y", "b_y")     # the arrays LstmWeights stores


def _loop_buffers(n_t, n):
    """A T-step loop's buffers: the rows (T+1, 5n) [c_k | z_k], z_k step k's
    gates in ``GATES`` order (so [c_k | g] and [f | i] are adjacent), h
    (T+1, n) and the halved preactivations (T, 4n); the per-step views
    ``_run`` writes through, an iterator; the cache, ([f i o], g,
    tanh(c+)); and ``_run``'s (2n,) scratch."""
    row, h, tc, pre = (np.empty((n_t + 1, 5 * n)), np.empty((n_t + 1, n)), np.empty((n_t, n)),
                       np.empty((n_t, 4 * n)))
    z = row[:-1, n:]
    sig = z[:, _F * n:(_O + 1) * n]
    steps = zip(z, pre, sig, z[:, _F * n:(_I + 1) * n], row[:-1, :n + (_C + 1) * n],
                row[1:, :n], tc, z[:, _O * n:(_O + 1) * n], h[1:])
    return row, h, pre, steps, (sig, z[:, _C * n:(_C + 1) * n], tc), np.empty(2 * n)


def _stage_moves(*buffers):
    """For each C-contiguous (stages, width) buffer, flat views of its rows
    from stage 0 and from stage 1: copying the second onto the first moves
    every row up one stage, and numpy copies overlapping 1-D views of one
    direction in place, with no temporary."""
    flat = [b.reshape(-1, copy=False) for b in buffers]
    return [(f[:-b.shape[1]], f[b.shape[1]:]) for f, b in zip(flat, buffers)]


def _read_only(*arrays):
    """Read-only views of ``arrays``, a tuple."""
    views = tuple(a.view() for a in arrays)
    for v in views:
        v.flags.writeable = False
    return views


_dot = np.ndarray.dot     # each sweep's per-step product, without np.dot's dispatcher


def _run(w, h_k, steps, fc_ig):
    """The cell's loop over ``_loop_buffers``' steps from ``h_k``, 9 numpy
    calls per step; ``fc_ig`` (2n,) is scratch for [f c_k | i g]. The
    in-place updates are the ufunc calls their operators dispatch to."""
    u_half, one, half, n = w.U_half, w._one, w._half, w.n
    fc, ig = fc_ig[:n], fc_ig[n:]
    dot, tanh, multiply, add = _dot, np.tanh, np.multiply, np.add    # looked up once
    for z_k, pre_k, s_k, fi_k, cg_k, c_next, tc_k, o_k, h_next in steps:
        dot(u_half, h_k, z_k)               # each call's last argument is its output
        add(z_k, pre_k, z_k)
        tanh(z_k, z_k)
        add(s_k, one, s_k)
        multiply(s_k, half, s_k)
        multiply(fi_k, cg_k, fc_ig)
        add(fc, ig, c_next)
        tanh(c_next, tc_k)
        multiply(o_k, tc_k, h_next)
        h_k = h_next


def step(w, x, u, workspace):
    """One state update from the ``LstmState`` x, a new ``LstmState``: the
    ``Workspace.step`` of ``workspace``, of ``w``'s shapes and one step.
    Warns (does not reject) if u leaves its box."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (w.m,):
        raise DimensionError(f"input shape {u.shape} != ({w.m},)")
    if abs(u).max() > w.u_max * (1.0 + 1e-12):
        warnings.warn("input exceeds u_max; upstream saturation expected", stacklevel=2)
    c, h = workspace.step(w, x.c, x.h, u)
    return LstmState(c.copy(), h.copy())


class Workspace:
    """The one owner of the buffers that a model's steps write: those of
    sweeps of exactly ``n_t`` steps of (n, m) weights, each allocated once
    with its per-step views, the loop buffers of ``rollout`` and ``step``
    and, on first use, those of ``linearize``, ``sensitivities`` and
    ``adjoint``. A sweep takes the weights it runs, so one workspace serves
    every model of these shapes, such as each update's new weights in
    training; ``step`` is the sweep of a workspace of ``n_t`` = 1. Each
    sweep or step checks its weights' shapes and its length, else
    DimensionError, and overwrites the last one's results, and the
    linearizations read the last one; a sweep that is the last sweep
    shifted by one stage runs its last step alone (``rollout``)."""

    def __init__(self, n, m, n_t):
        row, h, pre, steps, cache, fc_ig = _loop_buffers(n_t, n)
        c, steps = row[:, :n], list(steps)
        self.n, self.m, self.n_t = n, m, n_t
        self._buffers = c, h, pre, steps, cache, fc_ig
        self._moves = _stage_moves(row, h, cache[2])
        # what callers see: read-only views, since a shifted sweep reuses them
        self._results = (*_read_only(c, h), _read_only(*cache))
        # a step's views: its preactivations, the injection's scratch, c, the
        # loop's one step, its scratch, c+ and h+
        self._first = (pre[0], np.empty(4 * n), c, steps, fc_ig,
                       *_read_only(c[1], h[1])) if n_t == 1 else None
        self._linear = self._sens = self._reverse = self._shift = None

    def _check(self, w, n_t):
        """DimensionError unless the weights ``w`` have this workspace's
        (n, m) and the sweep its ``n_t`` steps."""
        if (w.n, w.m) != (self.n, self.m):
            raise DimensionError(f"weights of (n, m) = ({w.n}, {w.m}) in a workspace "
                                 f"of ({self.n}, {self.m})")
        if n_t != self.n_t:
            raise DimensionError(f"a sweep of {n_t} steps in a workspace of {self.n_t}")

    def rollout(self, w, c0, h0, u_seq):
        """The cell of the weights ``w`` over the (T, m) inputs ``u_seq``
        from (c0, h0). Returns c, h of shape (T+1, n) and the cache (the
        gates and tanh(c+)): read-only views of this workspace's buffers,
        which its next sweep or step overwrites.

        A sweep that is the last sweep shifted by one stage runs one step:
        the same weights object, T >= 2, a start equal to the last sweep's
        stage-1 state, and inputs whose first T-1 rows equal the last
        inputs' rows 1..T-1, all by their bytes (so -0.0 is not +0.0),
        against copies kept of the last sweep (T m + 2n floats). Its stages
        0..T-1 and steps 0..T-2 are then the last sweep's stages and steps
        1.., so the rows [c_k | z_k], h and tanh(c+) move up by one stage
        and only step T-1 runs; the preactivations are formed whole, as in
        every sweep. Every result keeps its bytes. The closed loop's
        candidate, the previous plan shifted, from the state that plan
        predicted, is such a sweep."""
        u_seq = np.asarray(u_seq, dtype=float)
        self._check(w, len(u_seq))
        last, self._shift = self._shift, None
        c, h, pre, steps, _, fc_ig = self._buffers
        c[0], h[0] = c0, h0
        u_seq.dot(w.W_half.T, pre)
        pre += w.b_half
        u_bytes, row_bytes = u_seq.tobytes(), u_seq.itemsize * self.m
        # the inputs first: they tell a trial plan from the shifted one
        if last is not None and last[0] is w and last[1] == u_bytes[:-row_bytes] \
                and last[2] == c[0].tobytes() and last[3] == h[0].tobytes():
            for stages, later in self._moves:       # stages and steps 1.. become 0..
                stages[...] = later
            _run(w, h[-2], steps[-1:], fc_ig)
        else:
            _run(w, h[0], steps, fc_ig)
        if self.n_t >= 2:
            self._shift = w, u_bytes[row_bytes:], c[1].tobytes(), h[1].tobytes()
        self._last = w
        return self._results

    def step(self, w, c, h, u, inject=None):
        """One step of the weights ``w`` from (c, h) with the (m,) input
        ``u`` and, if given, ``inject`` (4n,) added to the preactivations:
        (c+, h+), read-only views of this one-step workspace's rows, which
        its next step or sweep overwrites. ``rollout``'s loop and checks,
        without its shift test, which a sweep of one step never passes."""
        self._check(w, 1)
        pre, scaled, c_rows, first, fc_ig, c_next, h_next = self._first
        np.asarray(u).dot(w.W_half.T, pre)
        pre += w.b_half
        if inject is not None:
            pre += np.multiply(inject, w._scale, out=scaled)
        c_rows[0] = c
        _run(w, h, first, fc_ig)
        self._last = w
        return c_next, h_next

    def linearize(self):
        """Every step's linearization of the last sweep or step, [A_k | B_k]
        with A_k = d(c+, h+)/d(c, h) and B_k = d(c+, h+)/du, a (T, 2n, 2n+m)
        array of this workspace, which the next linearization overwrites.
        Rows and state columns are c first, then h:

            A_k = [diag f          dc+/dh                   ]    B_k = [dc+/du ]
                  [diag(k_t f)     k_t dc+/dh + k_o U_o     ]          [dh+/du ]

        with dc+/d(h, u) = k_f [U_f | W_f] + k_i [U_i | W_i] + k_g [U_c | W_c]
        and dh+/du = k_t dc+/du + k_o W_o, where each step's
        ``_local_factors`` (f, k_f, ..., k_t) scale the rows they multiply.
        """
        if self._linear is None:
            c, _, _, _, cache, _ = self._buffers
            factors = _factor_buffers(c, cache)
            jac, *self._sens = _sensitivity_buffers(self.n, self.m, self.n_t)
            self._linear = factors, _jacobian_buffers(factors[-6:], jac), jac
        factors, jacobians, jac = self._linear
        _local_factors(factors)
        _step_jacobians(self._last.UW, jacobians)
        return jac

    def sensitivities(self):
        """Forward (tangent-linear) sweep of the last ``rollout``:
        d(c_k, h_k)/du, one (T+1, 2n, T*m) array S for stages 0..T, rows c_k
        then h_k, with u the row-major flattened (T, m) inputs; an array of
        this workspace, which the next call overwrites. Stage 0 does not
        depend on u and stage k only on u_0..u_{k-1}, so S_k+1 = A_k S_k on
        those columns and B_k on u_k's, with [A_k | B_k] from ``linearize``.
        Every B_k is copied first, in one call: no product writes its
        block, and S_k+1 = A_k S_k reads B_k-1's."""
        jac = self.linearize()
        s, b_in_s, steps = self._sens
        np.copyto(b_in_s, jac[:, :, 2 * self.n:])
        matmul = np.matmul                          # looked up once
        for a_k, s_k, s_next in steps:
            matmul(a_k, s_k, s_next)
        return s

    def adjoint(self, dc_stage, dh_stage):
        """Reverse sweep of the last ``rollout``: dz = dL/d(preactivation),
        (T, 4n), so that dL/du = dz @ W and dL/d(W, U, b) = (dz.T @ u,
        dz.T @ h[:T], dz.sum(0)); a read-only view of this workspace's dz,
        which the next call overwrites.

        ``dc_stage``/``dh_stage`` (T+1, n), read only, are the direct
        partials of L with respect to c_k and h_k at stages 0..T. The state
        adjoint lam_k = dL/d(c_k, h_k) = A_k^T lam_k+1 + the stage-k
        partials is one product [lam_k+1 | 1] [A_k; stage-k partials] per
        step, A_k by ``linearize``'s kernel one block of steps at a time;
        then, for each step of the block, with dct = lam^c_k+1 + k_t
        lam^h_k+1, dz_k = (k_g dct, k_f dct, k_i dct, k_o lam^h_k+1) in
        ``GATES`` order. Each block's local factors, 9 block n floats, are
        formed in buffers the blocks share, and its step Jacobians multiply
        against gate tiles, each gate's U repeated once per step of a block,
        (4, block, n, n), which every call refreshes from the weights it
        reverses with one copy; the first call builds every buffer and view
        of its blocks (``_adjoint_buffers``), so a call allocates no array.
        """
        if self._reverse is None:
            c, _, _, _, cache, _ = self._buffers
            self._reverse = _adjoint_buffers(c, cache, self.m)
        return _adjoint(self._last, dc_stage, dh_stage, *self._reverse)


def _factor_buffers(c, cache, scratch=None):
    """``_local_factors``' arguments for a sweep's ``c`` and ``cache``: the
    views it reads, its scratch and the factors it writes, each with T rows
    first, in the first T rows of ``scratch`` ((T', 3n) and six (T', n)
    arrays, T' >= T) or in new arrays."""
    sig, g, tc = cache
    n_t, n = tc.shape
    ds, sq, *factors = ((np.empty((n_t, 3 * n)), *np.empty((6, n_t, n))) if scratch is None
                        else (a[:n_t] for a in scratch))
    return (sig, ds, ds[:, :n], c[:-1], ds[:, n:2 * n], g, sig[:, n:2 * n], ds[:, 2 * n:], tc,
            sig[:, 2 * n:], sq, sig[:, :n], *factors)


def _local_factors(buffers):
    """Per-step partial derivatives of the cell, each (T, n), in
    ``_factor_buffers``:

    (dc+/dc, dc+/dz_f, dc+/dz_i, dc+/dz_c, dh+/dz_o, dh+/dc+)
    = (f, f(1-f) c, i(1-i) g, i(1-g^2), o(1-o) tanh c+, o(1-tanh^2 c+)),

    all elementwise, by the ufuncs of these operators (``x ** 2`` is
    ``np.square``) in this order, each output positional. Returns the
    factors, the last six buffers (f a view of the cache), which the next
    call overwrites."""
    sig, ds, ds_f, c_prev, ds_i, g, i, ds_o, tc, o, sq, *factors = buffers
    _, k_f, k_i, k_g, k_o, k_t = factors
    subtract, multiply, square = np.subtract, np.multiply, np.square
    subtract(1.0, sig, ds)      # f(1-f), i(1-i), o(1-o) over the (T, 3n) block
    multiply(ds, sig, ds)
    multiply(ds_f, c_prev, k_f)
    multiply(ds_i, g, k_i)
    square(g, sq)
    subtract(1.0, sq, sq)
    multiply(i, sq, k_g)
    multiply(ds_o, tc, k_o)
    square(tc, sq)
    subtract(1.0, sq, sq)
    multiply(o, sq, k_t)
    return tuple(factors)


def _jacobian_buffers(factors, out, scratch=None):
    """``_step_jacobians``' arguments for the local ``factors`` and a (T,
    >= 2n, 2n+m) ``out``, or a (T, >= 2n, 2n) one for A_k alone: the
    factors, as they are and as (T, n, 1) columns, the views of ``out`` it
    writes (the two diagonals and the c and h rows' columns from n on) and
    two (T, n, cols-n) scratch arrays, the first T rows of the (2, T', n,
    cols-n) ``scratch`` or new. The state-c columns are written on their
    diagonal only, so ``out`` must hold zeros off it; ``out`` must be
    C-contiguous, since the two diagonals are written through strided views
    of its flat rows."""
    f, k_f, k_i, k_g, k_o, k_t = factors
    n, cols = f.shape[1], out.shape[2]
    flat = out.reshape(len(out), out.shape[1] * cols, copy=False)
    return (f, k_t, *(k[:, :, None] for k in (k_f, k_i, k_g, k_o, k_t)),
            flat[:, :n * (cols + 1):cols + 1], flat[:, n * cols:n * (2 * cols + 1):cols + 1],
            out[:, :n, n:], out[:, n:2 * n, n:],
            *(np.empty((2, len(out), n, cols - n)) if scratch is None
              else scratch[:, :len(out)]))


def _step_jacobians(uw, buffers):
    """``Workspace.linearize``'s [A_k | B_k], or A_k alone, into rows :2n
    of the out of ``_jacobian_buffers``: the products and sums of
    dc+/d(h, u) = (k_f [U_f | W_f] + k_i [U_i | W_i]) + k_g [U_c | W_c] and of
    dh+/d(h, u) = k_t dc+/d(h, u) + k_o [U_o | W_o] in that order, each
    output positional. ``uw`` holds the per-gate blocks of the out's columns
    from n on, [U | W] or U alone: the weights' (4, n, cols-n), broadcast
    over the steps, or tiles (4, T, n, cols-n) of them, one per step, which
    the products read without a broadcast (``adjoint``'s blocks)."""
    f, k_t, kf_col, ki_col, kg_col, ko_col, kt_col, diag_c, diag_h, c_rows, h_rows, dc, tmp \
        = buffers
    multiply, add = np.multiply, np.add
    multiply(kf_col, uw[_F], dc)
    multiply(ki_col, uw[_I], tmp)
    add(dc, tmp, dc)
    multiply(kg_col, uw[_C], tmp)
    add(dc, tmp, dc)
    np.copyto(diag_c, f)                        # dc+/dc
    multiply(k_t, f, diag_h)                    # dh+/dc
    np.copyto(c_rows, dc)
    multiply(kt_col, dc, dc)
    multiply(ko_col, uw[_O], tmp)
    add(dc, tmp, h_rows)


def _sensitivity_buffers(n, m, n_t):
    """The step Jacobians (T, 2n, 2n+m) and S, zeros; the (T, 2n, m) view of
    S whose block k is S_k+1's columns of u_k, where B_k goes; and the
    per-step views of ``sensitivities``' products, from k = 1 (S_1 = B_0
    alone): A_k and S_k's and S_k+1's columns of u_0..u_k-1."""
    n2 = 2 * n
    jac, s = np.zeros((n_t, n2, n2 + m)), np.zeros((n_t + 1, n2, n_t * m))
    # the blocks S[k+1, :, k m:(k+1) m], one stage and m columns apart
    b_in_s = np.lib.stride_tricks.as_strided(
        s[1:], (n_t, n2, m), (s.strides[0] + m * s.strides[2], *s.strides[1:]))
    return jac, s, b_in_s, [(jac[t, :, :n2], s[t, :, :t * m], s[t + 1, :, :t * m])
                            for t in range(1, n_t)]


def _adjoint_buffers(c, cache, m):
    """Everything a reverse sweep over the sweep (``c``, ``cache``) of m
    inputs writes, built once: the [lam_k | 1] rows (T+1, 2n+1), whose row
    T's c and h columns come first, the gate tiles (4, block, n, n), which
    ``_adjoint`` fills with each gate's U, dz (T, 4n), read-only, and its
    blocks, from the last. Blocks start at multiples of ``_sweep_block``;
    each holds its steps' first and end index, ``_factor_buffers``'
    arguments for its rows, in scratch the blocks share,
    ``_jacobian_buffers``' on its factors and the one block of [A_k;
    stage-k partials] (block, 2n+1, 2n), zeros, with its stage-partial
    rows; the tiles of its steps, tiles[:, :steps], so a short last block
    reads the first ones; its per-step views (lam_k, [lam_k+1 | 1], step
    k's slot of the block), from its last step; and lam's c and h columns
    at its stages k+1, a dct scratch and the gate blocks of its rows of dz,
    in ``GATES`` order."""
    n_t, n = cache[2].shape
    n2 = 2 * n
    block = min(_sweep_block(n, m), max(n_t, 1))
    lam, aug, dz = np.ones((n_t + 1, n2 + 1)), np.zeros((block, n2 + 1, n2)), np.empty((n_t, 4 * n))
    tiles = np.empty((4, block, n, n))
    factor_scratch, jac_scratch = (np.empty((block, 3 * n)), *np.empty((6, block, n))), \
        np.empty((2, block, n, n))
    dct, gates = np.empty((block, n)), dz.reshape(n_t, 4, n)
    blocks = []
    for k0 in range((n_t - 1) // block * block, -1, -block):
        k1 = min(k0 + block, n_t)
        factor_args = _factor_buffers(c[k0:k1 + 1], [a[k0:k1] for a in cache], factor_scratch)
        aug_b, lam_b = aug[:k1 - k0], lam[k0 + 1:k1 + 1]
        blocks.append((k0, k1, factor_args, _jacobian_buffers(factor_args[-6:], aug_b, jac_scratch),
                       tiles[:, :k1 - k0], aug_b[:, n2, :n], aug_b[:, n2, n:],
                       list(zip(lam[k0:k1, :n2][::-1], lam_b[::-1], aug_b[::-1])),
                       lam_b[:, :n], lam_b[:, n:n2], dct[:k1 - k0],
                       *(gates[k0:k1, gate] for gate in (_C, _F, _I, _O))))
    return lam[n_t, :n], lam[n_t, n:n2], tiles, *_read_only(dz), blocks


def _adjoint(w, dc_stage, dh_stage, lam_c_end, lam_h_end, tiles, dz, blocks):
    """``Workspace.adjoint`` in ``_adjoint_buffers``' views, which keep lam's
    ones column and, in the step-Jacobian block, the zeros
    ``_step_jacobians`` needs: the gate tiles of ``w``'s U, then, per block,
    its local factors and step Jacobians, its stage-k partials, one product
    per step and its rows of dz. Returns the read-only ``dz``."""
    n_t = len(dz)
    copyto, multiply, add, dot = np.copyto, np.multiply, np.add, _dot     # looked up once
    copyto(tiles, w.UW[:, None, :, :w.n])
    copyto(lam_c_end, dc_stage[n_t])
    copyto(lam_h_end, dh_stage[n_t])
    for k0, k1, factor_args, jac_args, uw, stage_c, stage_h, steps, lam_c, lam_h, dct, dz_c, \
            dz_f, dz_i, dz_o in blocks:
        _, k_f, k_i, k_g, k_o, k_t = _local_factors(factor_args)
        _step_jacobians(uw, jac_args)
        copyto(stage_c, dc_stage[k0:k1])
        copyto(stage_h, dh_stage[k0:k1])
        for lam_k, lam_next, aug_k in steps:
            dot(lam_next, aug_k, lam_k)
        multiply(lam_h, k_t, dct)
        add(dct, lam_c, dct)
        multiply(k_g, dct, dz_c)
        multiply(k_f, dct, dz_f)
        multiply(k_i, dct, dz_i)
        multiply(k_o, lam_h, dz_o)
    return dz


_SWEEP_BLOCK_BYTES = 1 << 17    # one block of ``adjoint``'s step Jacobians


def _sweep_block(n, m):
    """Steps per block of ``adjoint``'s sweep: as many (2n, 2n+m) step
    Jacobians as fit in ``_SWEEP_BLOCK_BYTES``, and at least one. A block
    holds (2n+1, 2n) per step, no more than that."""
    return max(1, _SWEEP_BLOCK_BYTES // (8 * 2 * n * (2 * n + m)))


def output(w, x):
    """Affine readout of the hidden state."""
    if x.h.shape != (w.n,):
        raise DimensionError(f"state shape {x.h.shape} != ({w.n},)")
    return w.W_y @ x.h + w.b_y


@dataclass
class GateBounds:
    """Worst-case gate magnitudes over an invariant operating set and the
    increment gains they give (see ``increment_gains``). ``cell_radius``
    bounds ||c||_inf on the set and ``sigma_x`` = tanh of it bounds tanh(c).
    ``gains`` (2x2; gains[0, 1] is the paper's alpha) and ``column`` (2x1;
    column[0, 0] is its beta) bound the next increment: (||dc+||, ||dh+||)
    <= gains (||dc||, ||dh||) + column ||dv||. The Jury margins r1 = -1 +
    tr gains - det gains, r2 = det gains - 1 are both negative iff rho(gains) < 1.
    """

    sigma_f: float
    sigma_i: float
    sigma_o: float
    sigma_c: float
    cell_radius: float
    sigma_x: float
    gains: np.ndarray
    column: np.ndarray
    r1: float
    r2: float


def increment_gains(sigmas, recurrent, inputs):
    """Increment gains of a cell whose gates are bounded by ``sigmas``.

    ``sigmas`` = (sigma_f, sigma_i, sigma_o, sigma_c); ``recurrent`` and
    ``inputs`` hold, in ``GATES`` order, the matrices that carry the
    hidden-state increment dh and the second increment dv into each gate's
    preactivation: (U, W) for the model, (U - L W_y, L) and (L W_y, L) for
    the observer's error dynamics and their sensitivity to the gains. The
    one place the certificate's cell radius, sigma_x, gains, column and
    Jury margins are formed. Raises InstabilityError unless sigma_f < 1,
    which the cell radius si sc / (1 - sf) needs.
    """
    sf, si, so, sc = sigmas
    if not sf < 1.0:    # also for NaN
        raise InstabilityError(f"sigma_f = {sf!r} is not below 1: the cell radius is unbounded")
    n_u, n_w = _two_norms(recurrent), _two_norms(inputs)
    n_uf, n_ui, n_uo, n_uc = n_u[_F], n_u[_I], n_u[_O], n_u[_C]
    n_wf, n_wi, n_wo, n_wc = n_w[_F], n_w[_I], n_w[_O], n_w[_C]
    c_rad = si * sc / (1.0 - sf)
    sx = float(np.tanh(c_rad))
    alpha = 0.25 * n_uf * c_rad + si * n_uc + 0.25 * n_ui * sc
    beta = 0.25 * n_wf * c_rad + si * n_wc + 0.25 * n_wi * sc
    gains = np.array([[sf, alpha], [so * sf, alpha * so + 0.25 * sx * n_uo]])
    column = np.array([[beta], [beta * so + 0.25 * sx * n_wo]])
    r1 = -1.0 + sf + alpha * so + 0.25 * sx * n_uo - 0.25 * sf * sx * n_uo
    r2 = 0.25 * sf * sx * n_uo - 1.0
    return GateBounds(sf, si, so, sc, c_rad, sx, gains, column, r1, r2)


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
    sig = sigmoid(norms).tolist()
    return sig[_F], sig[_I], sig[_O], float(np.tanh(norms[_C]))


def _gate_block(w_in, u_rec, b, u_max):
    return np.hstack([w_in * u_max, u_rec, b.reshape(-1, 1)])


def margin_adjoint(w, g, a_r1, a_r2):
    """The (W, U, b) gradient of a_r1 r1 + a_r2 r2, r1 and r2 the Jury margins
    of the model's ``gate_bounds`` ``g``: the reverse sweep of ``increment_gains``
    and ``gate_sigmas``, a subgradient where an inf-norm has tied rows."""
    sf, si, so, sc = g.sigma_f, g.sigma_i, g.sigma_o, g.sigma_c
    cr, sx, alpha = g.cell_radius, g.sigma_x, float(g.gains[0, 1])
    n, m = w.n, w.m
    # Each ||U||_2 (GATES order) and its gradient u1 v1^T from one SVD.
    u_sv, s_sv, vt_sv = np.linalg.svd(w.U.reshape(4, n, n))
    n_u = s_sv[:, 0].tolist()
    n_uf, n_ui, n_uo, n_uc = n_u[_F], n_u[_I], n_u[_O], n_u[_C]
    k1 = 0.25 * n_uo
    # Adjoints of the scalar pipeline (reverse order of its definition).
    a_sf = a_r1 * (1.0 - k1 * sx) + a_r2 * k1 * sx
    a_alpha = a_r1 * so
    a_so = a_r1 * alpha
    a_sx = a_r1 * k1 * (1.0 - sf) + a_r2 * k1 * sf
    a_nuo = a_r1 * 0.25 * sx * (1.0 - sf) + a_r2 * 0.25 * sf * sx
    a_nuf = a_alpha * 0.25 * cr
    a_cr = a_alpha * 0.25 * n_uf
    a_si = a_alpha * n_uc
    a_nuc = a_alpha * si
    a_nui = a_alpha * 0.25 * sc
    a_sc = a_alpha * 0.25 * n_ui
    a_cr += a_sx * (1.0 - sx ** 2)
    a_si += a_cr * sc / (1.0 - sf)
    a_sc += a_cr * si / (1.0 - sf)
    a_sf += a_cr * si * sc / (1.0 - sf) ** 2
    # Push into the stacked weights, each gate's ||_gate_block||_inf by its argmax row's signs.
    a_norm = np.repeat(in_gate_order(
        c=a_sc * (1.0 - sc ** 2), f=a_sf * sf * (1.0 - sf), i=a_si * si * (1.0 - si),
        o=a_so * so * (1.0 - so)), n)[:, None]
    block = _gate_block(w.W, w.U, w.b, w.u_max)
    j = np.abs(block).sum(axis=1).reshape(4, n).argmax(axis=1) + n * np.arange(4)
    sub = np.zeros_like(block)
    sub[j] = np.sign(block[j])
    a_two = np.array(in_gate_order(c=a_nuc, f=a_nuf, i=a_nui, o=a_nuo))[:, None, None]
    grad_u = a_norm * sub[:, m:m + n] + (a_two * u_sv[:, :, :1] * vt_sv[:, :1, :]).reshape(4 * n, n)
    return a_norm * (w.u_max * sub[:, :m]), grad_u, a_norm[:, 0] * sub[:, -1]


@dataclass(frozen=True)
class StabilityCertificate:
    """The contraction certificate, rho(A_delta) < 1, of the weights ``w``, which it
    keeps, formed whole on construction: A_delta, B_delta, r1, r2, the gains, column
    and Jury margins of ``gate_bounds(w)``; rho_A, InstabilityError unless below 1;
    then ``lyapunov_bounds`` of A_delta, P_s, rho_s, c_sl, c_su, and the per-output
    sensitivity c_s. No derived field is a constructor argument; arrays are read-only.
    """

    w: LstmWeights = field(repr=False)
    A_delta: np.ndarray = field(init=False)
    B_delta: np.ndarray = field(init=False)
    rho_A: float = field(init=False)
    r1: float = field(init=False)
    r2: float = field(init=False)
    P_s: np.ndarray = field(init=False)
    rho_s: float = field(init=False)
    c_sl: float = field(init=False)
    c_su: float = field(init=False)
    c_s: np.ndarray = field(init=False)
    certified = property(lambda self: True)     # read-only, not a field

    def __post_init__(self):
        g = gate_bounds(self.w)
        rho = spectral_radius(g.gains)
        if not rho < 1.0:    # also for NaN
            raise InstabilityError(f"rho(A_delta) = {rho:.4f} >= 1, model not certified")
        p_s, rho_s, c_sl, c_su = lyapunov_bounds(g.gains)
        freeze_arrays(self, A_delta=g.gains, B_delta=g.column, rho_A=rho, r1=g.r1, r2=g.r2,
                      P_s=p_s, rho_s=rho_s, c_sl=c_sl, c_su=c_su,
                      c_s=np.linalg.norm(self.w.W_y, axis=1) / c_sl)


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
    """The model's whole contraction certificate, ``StabilityCertificate(w)``."""
    return StabilityCertificate(w)


def v_s(cert, x_a, x_b):
    """Incremental Lyapunov value of a state pair."""
    v = np.array([np.linalg.norm(x_a.c - x_b.c), np.linalg.norm(x_a.h - x_b.h)])
    return float(np.sqrt(v @ cert.P_s @ v))


def save_weights(w, path, observer=None):
    """Serialize weights (and optionally an observer section) to JSON, each
    stack's gate blocks under their ``MATRIX_FIELDS`` names."""
    arrays = {f"{stack}_{gate}": block for stack in "WUb"
              for gate, block in zip(GATES, np.split(getattr(w, stack), 4))}
    arrays.update(W_y=w.W_y, b_y=w.b_y)
    doc = {name: arrays[name].tolist() for name in MATRIX_FIELDS}
    doc.update(n=w.n, m=w.m, p=w.p, u_max=w.u_max)
    doc["u_range"] = list(w.u_range) if w.u_range is not None else None
    doc["y_range"] = list(w.y_range) if w.y_range is not None else None
    if observer is not None:
        doc["observer"] = observer
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_weights(path):
    """Inverse of save_weights; returns (weights, observer-dict-or-None), each field
    checked by name: no unknown or missing key, finite number arrays of the shapes
    that W_c's (n, m) and W_y's p give, n, m, p as the arrays give."""
    doc = check_object("weights", read_json(path), (*MATRIX_FIELDS, "n", "m", "p", "u_max"),
                       ("u_range", "y_range", "observer"))
    arrays = {name: finite_array(name, doc[name]) for name in MATRIX_FIELDS}
    w = LstmWeights(*_stacks(arrays), arrays["W_y"], arrays["b_y"], u_max=doc["u_max"],
                    u_range=doc.get("u_range"), y_range=doc.get("y_range"))
    for name in "nmp":
        size = getattr(w, name)
        check(name, doc[name], (lambda v: type(v) is int and v == size, f"{size} as in the arrays"))
    check("observer", doc.get("observer"), (lambda v: isinstance(v, (dict, type(None))),
                                            "an object or null"))
    return w, doc.get("observer")


def _stacks(arrays):
    """The stacks W, U, b of a weights file's per-gate ``arrays``, in
    ``GATES`` order. Each array's shape is checked by its name first, against
    the (n, m) of ``W_c`` and the p of ``W_y``, so a message names the array
    that breaks the layout, or the one whose shape it was held to."""
    for name in ("W_c", "W_y"):
        check(f"{name}'s shape", arrays[name].shape, (lambda v: len(v) == 2 and min(v) >= 1,
                                                      "(rows, columns), each at least 1"))
    (n, m), p = arrays["W_c"].shape, len(arrays["W_y"])
    shapes = {f"{stack}_{gate}": shape for stack, shape in (("W", (n, m)), ("U", (n, n)),
                                                            ("b", (n,))) for gate in GATES}
    shapes.update(W_y=(p, n), b_y=(p,))
    for name, shape in shapes.items():
        check(f"{name}'s shape", arrays[name].shape, (
            lambda v: v == shape, f"{shape}, as W_c's (n, m) = ({n}, {m}) and W_y's p = {p} give"))
    return [np.concatenate([arrays[f"{stack}_{gate}"] for gate in GATES]) for stack in "WUb"]
