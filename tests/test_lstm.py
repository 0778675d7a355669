"""Unit tests for the LSTM model and its contraction certificates."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from lstmpc import lstm, mpc, numerics, observer, refcalc, sysid
from lstmpc.errors import DimensionError, InstabilityError
from lstmpc.lstm import LstmState

from conftest import (ASSETS, count_calls, gate, local_factors_oracle, random_invariant_state,
                      small_net, with_arrays, zero_net)


def scalar_step_oracle(w, x, u):
    """Independent pure-Python reimplementation of the state update."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))

    def layer(name, fn):
        w_in, u_rec, b = (gate(w, f"{stack}_{name}") for stack in "WUb")
        out = []
        for j in range(w.n):
            z = b[j]
            for k in range(w.m):
                z += w_in[j][k] * u[k]
            for k in range(w.n):
                z += u_rec[j][k] * x.h[k]
            out.append(fn(z))
        return out

    f = layer("f", sig)
    i = layer("i", sig)
    g = layer("c", math.tanh)
    o = layer("o", sig)
    c_next = [f[j] * x.c[j] + i[j] * g[j] for j in range(w.n)]
    h_next = [o[j] * math.tanh(c_next[j]) for j in range(w.n)]
    return np.array(c_next), np.array(h_next)


def gate_rows(n):
    """Each gate's rows of a (4n,)-row stack, by name, from ``lstm.GATES``."""
    return {gate: slice(k * n, (k + 1) * n) for k, gate in enumerate(lstm.GATES)}


def rollout_oracle(w, c0, h0, u_seq, inject=0.0):
    """Reference kernel: a sigmoid over the f, i, o rows and a tanh over
    the c rows, each step, with ``inject`` added to the preactivations;
    ``lstm.rollout`` must equal it bit for bit, and ``Workspace.step`` at
    T = 1 with its injection."""
    n_t, n = len(u_seq), len(c0)
    rows = gate_rows(n)
    c = np.empty((n_t + 1, n))
    h = np.empty((n_t + 1, n))
    c[0], h[0] = c0, h0
    sig = np.empty((n_t, 3 * n))
    gct = np.empty((n_t, n))
    tc = np.empty((n_t, n))
    pre = u_seq @ w.W.T + w.b + inject
    for k in range(n_t):
        z = pre[k] + w.U @ h[k]
        f, i, o = (0.5 * (1.0 + np.tanh(0.5 * z[rows[gate]])) for gate in "fio")
        sig[k] = np.concatenate((f, i, o))
        g = gct[k] = np.tanh(z[rows["c"]])
        c[k + 1] = f * c[k] + i * g
        tc[k] = np.tanh(c[k + 1])
        h[k + 1] = o * tc[k]
    return c, h, (sig, gct, tc)


def swept(w, x0, u):
    """A workspace of the sweep's length after its ``rollout`` of ``u`` from
    ``x0``: (workspace, c, h, cache)."""
    ws = lstm.Workspace(w.n, w.m, len(u))
    return (ws, *ws.rollout(w, x0.c, x0.h, u))


def adjoint_oracle(w, c, cache, dc_stage, dh_stage):
    """Reference reverse sweep, one gate block of dz at a time."""
    f, k_f, k_i, k_g, k_o, k_t = local_factors_oracle(c, cache)
    n_t, n = f.shape
    rows = gate_rows(n)
    dz = np.empty((n_t, 4 * n))
    dc = dc_stage[n_t]
    dh = dh_stage[n_t]
    for k in range(n_t - 1, -1, -1):
        dct = dc + dh * k_t[k]
        dz[k, rows["f"]] = dct * k_f[k]
        dz[k, rows["i"]] = dct * k_i[k]
        dz[k, rows["o"]] = dh * k_o[k]
        dz[k, rows["c"]] = dct * k_g[k]
        dc = dct * f[k] + dc_stage[k]
        dh = w.U.T @ dz[k] + dh_stage[k]
    return dz


def oracle_sensitivities(w, c, cache):
    """Reference forward sweep, the chain rule written out one gate at a
    time: (dc_k/du, dh_k/du), each (T+1, n, T*m)."""
    f, k_f, k_i, k_g, k_o, k_t = local_factors_oracle(c, cache)
    n_t, n = f.shape
    m = w.m
    rows = gate_rows(n)
    s_c = np.zeros((n_t + 1, n, n_t * m))
    s_h = np.zeros((n_t + 1, n, n_t * m))
    for k in range(n_t):
        j = (k + 1) * m                  # columns u_0..u_k, the only nonzero ones
        dz = w.U @ s_h[k, :, :j]
        dz[:, k * m:j] += w.W
        s_c[k + 1, :, :j] = f[k, :, None] * s_c[k, :, :j] \
            + k_f[k, :, None] * dz[rows["f"]] + k_i[k, :, None] * dz[rows["i"]] \
            + k_g[k, :, None] * dz[rows["c"]]
        s_h[k + 1, :, :j] = k_o[k, :, None] * dz[rows["o"]] \
            + k_t[k, :, None] * s_c[k + 1, :, :j]
    return s_c, s_h


def blockwise_adjoint_oracle(w, c, cache, dc_stage, dh_stage):
    """The reverse sweep on new arrays: all T local factors at once, each
    block's step Jacobians in a new (block, 2n+1, 2n) array under its
    stage-k partials, one product [lam_k+1 | 1] [A_k; partials] per step,
    then dz whole. ``Workspace.adjoint``, on the buffers it keeps, must
    equal it bit for bit."""
    factors = workspace_factors(c, cache)
    f, k_f, k_i, k_g, k_o, k_t = factors
    n_t, n = f.shape
    n2, rows = 2 * n, gate_rows(n)
    block = min(lstm._sweep_block(n, w.m), max(n_t, 1))
    lam = np.ones((n_t + 1, n2 + 1))
    lam[n_t, :n], lam[n_t, n:n2] = dc_stage[n_t], dh_stage[n_t]
    for k0 in range((n_t - 1) // block * block, -1, -block):
        k1 = min(k0 + block, n_t)
        aug = np.zeros((k1 - k0, n2 + 1, n2))
        lstm._step_jacobians(w, lstm._jacobian_buffers([x[k0:k1] for x in factors], aug))
        aug[:, n2, :n], aug[:, n2, n:] = dc_stage[k0:k1], dh_stage[k0:k1]
        for k in range(k1 - 1, k0 - 1, -1):
            lam[k, :n2] = lam[k + 1].dot(aug[k - k0])
    lam_c, lam_h = lam[1:, :n], lam[1:, n:n2]
    dct = lam_h * k_t + lam_c
    dz = np.empty((n_t, 4 * n))
    dz[:, rows["c"]], dz[:, rows["f"]], dz[:, rows["i"]] = k_g * dct, k_f * dct, k_i * dct
    dz[:, rows["o"]] = k_o * lam_h
    return dz


def assert_adjoint_matches_oracle(w, ws, c, cache, dc_stage, dh_stage):
    """``Workspace.adjoint`` of the sweep (c, cache) in ``ws`` sums through
    the step Jacobians, the oracle gate by gate: equal up to rounding,
    relative to the largest |dz|."""
    ref = adjoint_oracle(w, c, cache, dc_stage, dh_stage)
    np.testing.assert_allclose(ws.adjoint(dc_stage, dh_stage), ref,
                               rtol=0.0, atol=1e-14 * np.abs(ref).max(initial=0.0))


class TestKernelOracle:
    """rollout equals the reference kernel exactly, adjoint up to rounding."""

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [0, 1, 5, 300])
    @pytest.mark.parametrize("injected", [False, True])
    def test_rollout_and_adjoint(self, bench_w, net, n_steps, injected):
        # ``injected``: an injected step, the observer's, went to the workspace
        # first; a one-step workspace the closed loop shares between its
        # observer and its plant model must keep none of it in the next sweep
        # or reverse, and any other workspace rejects the step, untouched
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
        ws = lstm.Workspace(w.n, w.m, n_steps)
        if injected:
            step = (w, -x0.c, -x0.h, rng.uniform(-1.0, 1.0, w.m),
                    rng.normal(scale=0.5, size=4 * w.n))
            if n_steps == 1:
                ws.step(*step)
            else:
                with pytest.raises(DimensionError,
                                   match=f"a sweep of 1 steps in a workspace of {n_steps}$"):
                    ws.step(*step)
        c, h, cache = ws.rollout(w, x0.c, x0.h, u)
        c_ref, h_ref, cache_ref = rollout_oracle(w, x0.c, x0.h, u)
        np.testing.assert_array_equal(c, c_ref)
        np.testing.assert_array_equal(h, h_ref)
        assert len(cache) == len(cache_ref)
        for part, ref in zip(cache, cache_ref):
            np.testing.assert_array_equal(part, ref)
        dc_stage = rng.normal(size=(n_steps + 1, w.n))
        dh_stage = rng.normal(size=(n_steps + 1, w.n))
        assert_adjoint_matches_oracle(w, ws, c, cache, dc_stage, dh_stage)

    def test_warm_started_training(self, bench_w, monkeypatch):
        # training sweeps in its lstm.Workspace: the oracles replace the
        # workspace's sweeps, once per sequence and epoch
        ds = sysid.generate_dataset(seed=2, n_train=2, n_val=1, n_test=1, steps=300)
        cfg = sysid.TrainConfig(epochs=2, n_neurons=bench_w.n, seed=4)
        fast = sysid.train(ds, cfg, init=bench_w)
        calls, last = [], {}

        def rollout(workspace, w, c0, h0, u_seq):
            calls.append("rollout")
            last["w"], last["sweep"] = w, rollout_oracle(w, c0, h0, u_seq)
            return last["sweep"]

        def adjoint(workspace, dc_stage, dh_stage):
            calls.append("adjoint")
            c, _, cache = last["sweep"]
            return adjoint_oracle(last["w"], c, cache, dc_stage, dh_stage)

        monkeypatch.setattr(lstm.Workspace, "rollout", rollout)
        monkeypatch.setattr(lstm.Workspace, "adjoint", adjoint)
        ref = sysid.train(ds, cfg, init=bench_w)
        assert calls == ["rollout", "adjoint"] * 4     # 2 epochs of 2 sequences
        for name in lstm.PARAMETERS:
            param = getattr(ref, name)
            np.testing.assert_allclose(getattr(fast, name), param, rtol=0.0,
                                       atol=1e-13 * np.abs(param).max())


class TestPreparedKernel:
    """``Workspace.step`` and ``rollout``, on the operands the weights
    prepare once, equal the reference kernel bit for bit; ``lstm.step``'s
    results outlive the next step."""

    NETS = {"bench": None, "small": dict(n=3), "square2": dict(n=3, m=2, p=2)}

    @pytest.mark.parametrize("net", list(NETS))
    @pytest.mark.parametrize("n_steps", [0, 1, 5, 1499])
    @pytest.mark.parametrize("injected", [False, True])
    def test_equals_reference_kernel(self, bench_w, net, n_steps, injected):
        w = bench_w if net == "bench" else small_net(**self.NETS[net])
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
        inject = rng.normal(scale=0.5, size=(n_steps, 4 * w.n)) if injected else 0.0
        ref = rollout_oracle(w, x0.c, x0.h, u)
        c, h, cache = lstm.rollout(w, x0.c, x0.h, u)
        for part, want in zip((c, h, *cache), (ref[0], ref[1], *ref[2])):
            np.testing.assert_array_equal(part, want)
        c_ref, h_ref, _ = ref
        ws = lstm.Workspace(w.n, w.m, 1)
        for t in range(n_steps):
            # one step from the reference states: the reference kernel at T = 1
            one = rollout_oracle(w, c_ref[t], h_ref[t], u[t:t + 1],
                                 inject[t:t + 1] if injected else 0.0)
            c1, h1 = ws.step(w, c_ref[t], h_ref[t], u[t], inject[t] if injected else None)
            np.testing.assert_array_equal(c1, one[0][1])
            np.testing.assert_array_equal(h1, one[1][1])

    def test_snapshot_of_the_weights(self, bench_w):
        # the weights copy the arrays they are built from: later writes into
        # those arrays change no result, and the operands share no memory
        given = {name: getattr(bench_w, name).copy() for name in lstm.PARAMETERS}
        w = lstm.LstmWeights(**given, u_max=bench_w.u_max)
        rng = np.random.default_rng(3)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (6, w.m))
        cell = lstm.Workspace(w.n, w.m, 1)
        before = lstm.rollout(w, x0.c, x0.h, u)[:2], vars(lstm.step(w, x0, u[0], cell)).values()
        for array in given.values():
            array += 0.3
        given["b"][gate_rows(w.n)["f"]] = 5.0
        after = lstm.rollout(w, x0.c, x0.h, u)[:2], vars(lstm.step(w, x0, u[0], cell)).values()
        for got, want in zip((*after[0], *after[1]), (*before[0], *before[1])):
            np.testing.assert_array_equal(got, want)
        changed = lstm.LstmWeights(**given, u_max=bench_w.u_max)
        assert not np.array_equal(lstm.rollout(changed, x0.c, x0.h, u)[1], after[0][1])
        for name in ("U_half", "W_half", "b_half", "UW", "residual_jacobian"):
            array = getattr(w, name)
            assert not any(np.shares_memory(array, getattr(w, p)) for p in lstm.PARAMETERS)
            assert not any(np.shares_memory(array, a) for a in given.values())
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_step_result_outlives_the_next_step(self, bench_w):
        # lstm.step's state is its own, whichever workspace it ran in;
        # Workspace.step's are views, which the workspace's next step overwrites
        rng = np.random.default_rng(5)
        xa, xb = (random_invariant_state(bench_w, rng) for _ in range(2))
        ws, other = (lstm.Workspace(bench_w.n, bench_w.m, 1) for _ in range(2))
        first = lstm.step(bench_w, xa, np.array([0.3]), ws)
        kept = [a.copy() for a in (first.c, first.h)]
        views = ws.step(bench_w, xb.c, xb.h, np.array([-0.6]))
        second = lstm.step(bench_w, xb, np.array([-0.6]), other)
        state = lstm.step(bench_w, xa, np.array([0.3]), other)
        for got, want in zip((first.c, first.h), kept):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(first.h, second.h)
        np.testing.assert_array_equal(views[1], second.h)
        np.testing.assert_array_equal(state.h, kept[1])
        ws.step(bench_w, xa.c, xa.h, np.array([0.3]))
        np.testing.assert_array_equal(views[1], kept[1])
        assert not any(np.shares_memory(a, b) for a in (first.c, first.h)
                       for b in (*views, second.c, second.h, state.c, state.h))


class TestKernelSizes:
    """rollout equals the reference kernel exactly, adjoint up to rounding,
    at the layer widths where BLAS changes its kernels."""

    @pytest.mark.parametrize("n", [3, 5, 8, 16, 33, 64, 128])
    @pytest.mark.parametrize("m", [1, 2])
    def test_exact_across_widths(self, n, m):
        w = small_net(n=n, m=m, p=m)
        rng = np.random.default_rng(10 * n + m)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (40, m))
        ws, c, h, cache = swept(w, x0, u)
        c_ref, h_ref, cache_ref = rollout_oracle(w, x0.c, x0.h, u)
        for part, ref in zip((c, h, *cache), (c_ref, h_ref, *cache_ref)):
            np.testing.assert_array_equal(part, ref)
        dc_stage, dh_stage = rng.normal(size=(2, 41, n))
        assert_adjoint_matches_oracle(w, ws, c, cache, dc_stage, dh_stage)


class TestAdjointBlocks:
    """adjoint forms the step Jacobians one block of steps at a time;
    the blocks change no bit of dz."""

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_block_edges(self, bench_w, monkeypatch, blocks, extra):
        w = bench_w
        n_steps = blocks * lstm._sweep_block(w.n, w.m) + extra
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
        ws, c, h, cache = swept(w, x0, u)
        dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
        assert_adjoint_matches_oracle(w, ws, c, cache, dc_stage, dh_stage)
        dz = ws.adjoint(dc_stage, dh_stage)
        monkeypatch.setattr(lstm, "_SWEEP_BLOCK_BYTES", 1 << 40)
        assert lstm._sweep_block(w.n, w.m) > n_steps
        np.testing.assert_array_equal(swept(w, x0, u)[0].adjoint(dc_stage, dh_stage), dz)

    @pytest.mark.parametrize("block_steps", [1, 3])
    def test_block_edges_in_a_workspace(self, bench_w, monkeypatch, block_steps):
        # blocks of 1 or 3 steps, forced small: sweeps of 1-3 blocks and one
        # step either side of their edges, each the second sweep and reverse
        # of a workspace of its length, equal the dz of a fresh workspace bit
        # for bit
        w = bench_w
        step_bytes = 8 * 2 * w.n * (2 * w.n + w.m)
        monkeypatch.setattr(lstm, "_SWEEP_BLOCK_BYTES", block_steps * step_bytes)
        assert lstm._sweep_block(w.n, w.m) == block_steps
        rng = np.random.default_rng(block_steps)
        for n_steps in (10, block_steps - 1, block_steps, block_steps + 1, 2 * block_steps + 1,
                        3 * block_steps, 7):
            x0 = random_invariant_state(w, rng)
            u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
            dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
            ws = lstm.Workspace(w.n, w.m, n_steps)
            ws.rollout(w, -x0.c, -x0.h, -u)
            ws.adjoint(dh_stage, dc_stage)
            c, _, cache = ws.rollout(w, x0.c, x0.h, u)
            got = ws.adjoint(dc_stage, dh_stage)
            assert got.tobytes() == swept(w, x0, u)[0].adjoint(dc_stage, dh_stage).tobytes()
            assert_adjoint_matches_oracle(w, ws, c, cache, dc_stage, dh_stage)

    NETS = TestPreparedKernel.NETS

    @pytest.mark.parametrize("net", list(NETS))
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 3),
                                               (0, 1499)],
                             ids=["1", "2", "block-1", "block", "block+1", "2block+3", "1499"])
    def test_equals_the_blockwise_oracle_bit_for_bit(self, bench_w, net, blocks, extra):
        # the kept buffers change no bit: a first and a second reverse of
        # one sweep, and the reverse of a second sweep, equal the oracle's
        w = bench_w if net == "bench" else small_net(**self.NETS[net])
        n_steps = blocks * lstm._sweep_block(w.n, w.m) + extra
        rng = np.random.default_rng(n_steps)
        ws = lstm.Workspace(w.n, w.m, n_steps)
        for _ in range(2):
            x0 = random_invariant_state(w, rng)
            u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
            c, _, cache = ws.rollout(w, x0.c, x0.h, u)
            for _ in range(2):
                dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
                want = blockwise_adjoint_oracle(w, c, cache, dc_stage, dh_stage)
                assert ws.adjoint(dc_stage, dh_stage).tobytes() == want.tobytes()
        assert_adjoint_matches_oracle(w, ws, c, cache, dc_stage, dh_stage)

    @pytest.mark.parametrize("net", ["bench", "square2"])
    def test_interleaved_calls_give_a_fresh_workspaces_bytes(self, bench_w, monkeypatch, net):
        # blocks of 3 steps: adjoint between linearize, sensitivities and a
        # sweep of other weights returns what a fresh workspace does, and its
        # factor and Jacobian buffers share no memory with linearize's
        w = bench_w if net == "bench" else small_net(**self.NETS[net])
        monkeypatch.setattr(lstm, "_SWEEP_BLOCK_BYTES", 3 * 8 * 2 * w.n * (2 * w.n + w.m))
        other = small_net(seed=7, n=w.n, m=w.m, p=w.p, scale=0.3)
        rng = np.random.default_rng(5)
        ws = lstm.Workspace(w.n, w.m, 10)
        for net_k in (w, other, w):
            x0 = random_invariant_state(net_k, rng)
            u = rng.uniform(-1.0, 1.0, (10, w.m))
            ws.rollout(net_k, x0.c, x0.h, u)
            fresh = swept(net_k, x0, u)[0]
            for call in ("adjoint", "linearize", "adjoint", "sensitivities", "adjoint"):
                args = rng.normal(size=(2, 11, w.n)) if call == "adjoint" else ()
                assert getattr(ws, call)(*args).tobytes() == getattr(fresh, call)(*args).tobytes()
        *_, blocks = ws._reverse
        assert len(blocks) == 4
        factors, jacobians, _ = ws._linear
        written = [a for blk in blocks for a in (*blk[2][1:2], blk[2][10], *blk[2][12:],
                                                 *blk[3][-2:])]
        assert not any(np.shares_memory(a, b) for a in written
                       for b in (*factors[1:2], factors[10], *factors[12:], *jacobians[-2:]))

    def test_result_is_read_only_and_the_next_call_overwrites_it(self, bench_w):
        w = bench_w
        rng = np.random.default_rng(3)
        ws, *_ = swept(w, random_invariant_state(w, rng), rng.uniform(-1.0, 1.0, (20, w.m)))
        dz = ws.adjoint(*rng.normal(size=(2, 21, w.n)))
        first = dz.copy()
        with pytest.raises(ValueError, match="read-only"):
            dz[0, 0] = 1.0
        again = ws.adjoint(*rng.normal(size=(2, 21, w.n)))
        assert np.shares_memory(again, dz)
        assert dz.tobytes() == again.tobytes() != first.tobytes()

    def test_second_call_allocates_no_array_of_its_length(self, bench_w):
        # the first call builds every buffer; a second, at T = 1499, peaks
        # well under the 240 KB of one dz, and no higher at twice the length
        # (what numpy's broadcast ufuncs take scales with a block, not T)
        w = bench_w
        rng = np.random.default_rng(4)
        peaks = []
        for n_steps in (1499, 2998):
            ws, *_ = swept(w, random_invariant_state(w, rng),
                           rng.uniform(-1.0, 1.0, (n_steps, w.m)))
            dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
            for _ in range(2):
                tracemalloc.start()
                dz = ws.adjoint(dc_stage, dh_stage)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        one_dz = 1499 * 4 * w.n * 8
        assert peaks[0] > one_dz and peaks[2] > 2 * one_dz == dz.nbytes
        assert peaks[1] < one_dz // 3
        assert peaks[3] < peaks[1] + 4096

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 1), (33, 2), (128, 2)])
    def test_block_size(self, n, m):
        block = lstm._sweep_block(n, m)
        step_bytes = 8 * 2 * n * (2 * n + m)
        assert block >= 1
        assert block * step_bytes <= max(lstm._SWEEP_BLOCK_BYTES, step_bytes)


class TestKernelCalls:
    """The sweeps' per-step numpy calls: each step of a sweep makes one
    product through ``lstm._dot`` and none through ``np.dot``, and the
    kernel's in-place ufuncs take read-only arrays it owns."""

    @pytest.mark.parametrize("extra_blocks", [0, 1])
    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_adjoint_one_dot_per_step(self, bench_w, monkeypatch, n_steps, extra_blocks):
        w = bench_w
        n_steps += extra_blocks * lstm._sweep_block(w.n, w.m)
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
        ws = swept(w, x0, u)[0]
        dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
        calls = count_calls(monkeypatch, lstm, "_dot")
        ws.adjoint(dc_stage, dh_stage)
        assert len(calls) == n_steps
        ws.adjoint(dc_stage, dh_stage)          # a second reverse, on the same buffers
        assert len(calls) == 2 * n_steps

    @pytest.mark.parametrize("n_steps", [0, 1, 5, 300])
    def test_rollout_one_dot_per_step(self, bench_w, monkeypatch, n_steps):
        w = bench_w
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
        ws, cell = lstm.Workspace(w.n, w.m, n_steps), lstm.Workspace(w.n, w.m, 1)
        calls = count_calls(monkeypatch, lstm, "_dot")
        lstm.rollout(w, x0.c, x0.h, u)
        assert len(calls) == n_steps
        ws.rollout(w, x0.c, x0.h, u)
        assert len(calls) == 2 * n_steps
        for k in range(n_steps):
            cell.step(w, x0.c, x0.h, u[k])
            assert len(calls) == 2 * n_steps + k + 1

    def test_training_loss_makes_no_np_dot_call(self, bench_w, monkeypatch):
        rng = np.random.default_rng(8)
        u, y = rng.uniform(-1.0, 1.0, (2, 120))
        cfg = sysid.TrainConfig(n_neurons=bench_w.n, washout=10)
        products = count_calls(monkeypatch, lstm, "_dot")
        dispatched = count_calls(monkeypatch, np, "dot")
        sysid.loss(bench_w, u, y, cfg, lstm.Workspace(bench_w.n, bench_w.m, 119))
        assert len(dispatched) == 0
        assert len(products) == 2 * 119      # forward and reverse, 119 steps each

    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_rollout_operands_are_read_only(self, n):
        # the weights build them once; every step of every loop on them reads them
        w = small_net(n=n)
        scale, half, ones = w._scale, w._half, w._one
        assert scale.shape == (4 * n,)
        for gate, rows in gate_rows(n).items():
            np.testing.assert_array_equal(scale[rows], 1.0 if gate == "c" else 0.5)
        np.testing.assert_array_equal(half, np.full(3 * n, 0.5))
        np.testing.assert_array_equal(ones, np.ones(3 * n))
        for operand in (scale, half, ones):
            with pytest.raises(ValueError, match="read-only"):
                operand[0] = 2.0


class TestKernelPurity:
    """rollout and adjoint write only into arrays they allocate."""

    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_inputs_unchanged_and_outputs_unshared(self, bench_w, n_steps):
        w = bench_w
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        inputs = {"W": w.W, "U": w.U, "b": w.b, "c0": x0.c, "h0": x0.h,
                  "u_seq": rng.uniform(-1.0, 1.0, (n_steps, w.m)),
                  "dc_stage": rng.normal(size=(n_steps + 1, w.n)),
                  "dh_stage": rng.normal(size=(n_steps + 1, w.n))}
        before = {name: a.copy() for name, a in inputs.items()}
        ws, c, h, cache = swept(w, x0, inputs["u_seq"])
        forward = [a.copy() for a in (c, h, *cache)]
        dz = ws.adjoint(inputs["dc_stage"], inputs["dh_stage"])
        for name, a in inputs.items():
            np.testing.assert_array_equal(a, before[name], err_msg=name)
        for a, ref in zip((c, h, *cache), forward):
            np.testing.assert_array_equal(a, ref)
        for out in (c, h, *cache, dz):
            assert not any(np.shares_memory(out, a) for a in inputs.values())
        assert not any(np.shares_memory(dz, a) for a in (c, h, *cache))


class TestShiftedSweep:
    """A sweep that is the workspace's last sweep shifted by one stage (the
    same weights object, its stage-1 start and its inputs moved up one row)
    makes one product, and every result after it, the sweep's and its
    linearize, sensitivities and adjoint, equals a fresh full sweep's bit
    for bit; any other sweep of the workspace's length makes T products.
    A sweep of another length, or a step, is rejected before any product,
    and the workspace keeps its last sweep."""

    NETS = TestPreparedKernel.NETS
    LENGTHS = [2, 5, 10, 300]

    @staticmethod
    def _case(bench_w, net, n_steps):
        """(w, rng, x0, inputs for n_steps + 1 stages): the first sweep runs
        rows 0..T-1 from x0, its shift rows 1..T."""
        w = bench_w if net == "bench" else small_net(**TestShiftedSweep.NETS[net])
        rng = np.random.default_rng(n_steps)
        return w, rng, random_invariant_state(w, rng), rng.uniform(-1.0, 1.0, (n_steps + 1, w.m))

    @staticmethod
    def _assert_fresh(ws, got, w, x0, u, rng):
        """``got``, the last sweep of ``ws``, and the linearizations of
        ``ws`` equal those of a fresh workspace's sweep bit for bit."""
        fresh, *want = swept(w, x0, u)
        assert [a.tobytes() for a in (*got[:2], *got[2])] == \
            [a.tobytes() for a in (want[0], want[1], *want[2])]
        assert ws.linearize().tobytes() == fresh.linearize().tobytes()
        assert ws.sensitivities().tobytes() == fresh.sensitivities().tobytes()
        dc_stage, dh_stage = rng.normal(size=(2, len(u) + 1, w.n))
        assert ws.adjoint(dc_stage, dh_stage).tobytes() == \
            fresh.adjoint(dc_stage, dh_stage).tobytes()

    @pytest.mark.parametrize("net", list(NETS))
    @pytest.mark.parametrize("n_steps", LENGTHS)
    @pytest.mark.parametrize("spare", [0, 3], ids=["fits", "leading-rows"])
    def test_shift_is_one_product_and_a_fresh_sweep(self, bench_w, monkeypatch, net, n_steps,
                                                    spare):
        # three shifts in a row, as in the closed loop, each from the last
        # sweep's stage-1 state; a workspace with spare rows rejects the
        # first sweep before any product
        w, rng, x0, u = self._case(bench_w, net, n_steps)
        u = np.concatenate((u, rng.uniform(-1.0, 1.0, (2, w.m))))
        products = count_calls(monkeypatch, lstm, "_dot")
        if spare:
            with pytest.raises(DimensionError, match=f"a sweep of {n_steps} steps in a "
                                                     f"workspace of {n_steps + spare}$"):
                lstm.Workspace(w.n, w.m, n_steps + spare).rollout(w, x0.c, x0.h, u[:n_steps])
            assert products == []
        ws = lstm.Workspace(w.n, w.m, n_steps)
        got = ws.rollout(w, x0.c, x0.h, u[:n_steps])
        products.clear()
        for k in range(1, 4):
            x0 = LstmState(got[0][1].copy(), got[1][1].copy())
            got = ws.rollout(w, x0.c, x0.h, u[k:k + n_steps])
            assert len(products) == k
        monkeypatch.undo()
        self._assert_fresh(ws, got, w, x0, u[3:3 + n_steps], rng)

    @pytest.mark.parametrize("net", list(NETS))
    @pytest.mark.parametrize("n_steps", LENGTHS)
    @pytest.mark.parametrize("change", [
        "equal-weights", "input-ulp", "start-c-ulp", "start-h-ulp", "input-negative-zero",
        "step-between", "shorter", "longer"])
    def test_any_other_sweep_is_full(self, bench_w, monkeypatch, net, n_steps, change):
        w, rng, x0, u = self._case(bench_w, net, n_steps)
        k = (n_steps - 2) // 2              # an input row the two sweeps share
        if change == "input-negative-zero":
            u[k + 1, 0] = 0.0
        ws = lstm.Workspace(w.n, w.m, n_steps)
        c, h, _ = ws.rollout(w, x0.c, x0.h, u[:n_steps])
        start, nxt, net_2 = LstmState(c[1].copy(), h[1].copy()), u[1:].copy(), w
        if change == "equal-weights":
            net_2 = with_arrays(w)          # another object of the same arrays
        elif change == "input-ulp":
            nxt[k, -1] = np.nextafter(nxt[k, -1], np.inf)
        elif change == "start-c-ulp":
            start.c[-1] = np.nextafter(start.c[-1], -np.inf)
        elif change == "start-h-ulp":
            start.h[0] = np.nextafter(start.h[0], np.inf)
        elif change == "input-negative-zero":
            assert nxt[k, 0] == 0.0 and not np.signbit(nxt[k, 0])
            nxt[k, 0] = -0.0
        elif change == "step-between":     # rejected: a step needs a one-step workspace
            with pytest.raises(DimensionError,
                               match=f"a sweep of 1 steps in a workspace of {n_steps}$"):
                ws.step(w, start.c, start.h, nxt[0])
        elif change == "shorter":
            nxt = nxt[:-1]
        else:
            nxt = np.concatenate((nxt, u[-1:]))
        products = count_calls(monkeypatch, lstm, "_dot")
        if change in ("shorter", "longer"):     # rejected before any product
            with pytest.raises(DimensionError, match=f"a sweep of {len(nxt)} steps in a "
                                                     f"workspace of {n_steps}$"):
                ws.rollout(net_2, start.c, start.h, nxt)
            assert products == []
            nxt = u[1:]
        got = ws.rollout(net_2, start.c, start.h, nxt)
        # after a rejected call, the shift of the workspace's last sweep
        rejected = change in ("step-between", "shorter", "longer")
        assert len(products) == (1 if rejected else len(nxt))
        monkeypatch.undo()
        self._assert_fresh(ws, got, net_2, start, nxt, rng)

    @pytest.mark.parametrize("n_steps", [0, 1])
    def test_sweeps_of_one_step_or_none_are_full(self, bench_w, monkeypatch, n_steps):
        w, rng, x0, u = self._case(bench_w, "bench", n_steps)
        ws = lstm.Workspace(w.n, w.m, n_steps)
        products = count_calls(monkeypatch, lstm, "_dot")
        c, h, _ = ws.rollout(w, x0.c, x0.h, u[:n_steps])
        start = LstmState(c[-1].copy(), h[-1].copy())
        got = ws.rollout(w, start.c, start.h, u[1:n_steps + 1])
        assert len(products) == 2 * n_steps
        monkeypatch.undo()
        self._assert_fresh(ws, got, w, start, u[1:n_steps + 1], rng)

    def test_results_are_read_only(self, bench_w):
        # the next shifted sweep starts from them, so no caller writes them
        w, _, x0, u = self._case(bench_w, "bench", 5)
        ws, cell = lstm.Workspace(w.n, w.m, 5), lstm.Workspace(w.n, w.m, 1)
        c, h, cache = ws.rollout(w, x0.c, x0.h, u[:5])
        for out in (c, h, *cache, *cell.step(w, x0.c, x0.h, u[0])):
            with pytest.raises(ValueError, match="read-only"):
                out[0] = 0.0


class TestSigmoid:
    def test_midpoint_and_symmetry(self):
        assert lstm.sigmoid(0.0) == 0.5
        assert lstm.sigmoid(2.0) + lstm.sigmoid(-2.0) == pytest.approx(1.0)

    def test_no_overflow(self):
        assert lstm.sigmoid(800.0) == 1.0
        assert lstm.sigmoid(-800.0) == 0.0
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(lstm.sigmoid(np.array([800.0, -800.0])),
                                          [1.0, 0.0])

    def test_array_keeps_shape(self):
        z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert lstm.sigmoid(z).shape == (3, 4)
        assert lstm.sigmoid(z[0]).shape == (4,)

    def test_scalar_returns_float(self):
        assert type(lstm.sigmoid(0.3)) is float
        assert type(lstm.sigmoid(np.float64(-1.2))) is float

    def test_matches_logistic(self):
        z = np.linspace(-40.0, 40.0, 10001)
        assert np.max(np.abs(lstm.sigmoid(z) - 1.0 / (1.0 + np.exp(-z)))) <= 1e-15


class TestStep:
    def test_zero_weights(self):
        w = zero_net()
        x = LstmState(np.array([0.4, -0.2]), np.array([0.1, 0.3]))
        nxt = lstm.step(w, x, [0.5], lstm.Workspace(w.n, w.m, 1))
        np.testing.assert_allclose(nxt.c, 0.5 * x.c, atol=1e-15)
        np.testing.assert_allclose(nxt.h, 0.5 * np.tanh(nxt.c), atol=1e-15)

    def test_matches_scalar_loop_oracle(self, bench_w, bench_cell):
        rng = np.random.default_rng(17)
        x = random_invariant_state(bench_w, rng)
        u = rng.uniform(-1.0, 1.0, bench_w.m)
        nxt = lstm.step(bench_w, x, u, bench_cell)
        c_ref, h_ref = scalar_step_oracle(bench_w, x, u)
        np.testing.assert_allclose(nxt.c, c_ref, atol=1e-14)
        np.testing.assert_allclose(nxt.h, h_ref, atol=1e-14)

    def test_invariance_of_operating_sets(self, bench_w, bench_cell):
        g = lstm.gate_bounds(bench_w)
        c_rad = g.cell_radius
        h_rad = g.sigma_o * g.sigma_x
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = random_invariant_state(bench_w, rng, g)
            u = rng.uniform(-1.0, 1.0, bench_w.m)
            nxt = lstm.step(bench_w, x, u, bench_cell)
            assert np.max(np.abs(nxt.c)) <= c_rad + 1e-12
            assert np.max(np.abs(nxt.h)) <= h_rad + 1e-12

    def test_warns_outside_input_box(self, tiny_w):
        with pytest.warns(UserWarning):
            lstm.step(tiny_w, tiny_w.zero_state(), [1.5], lstm.Workspace(tiny_w.n, tiny_w.m, 1))

    def test_rejects_bad_input_shape(self, tiny_w):
        with pytest.raises(DimensionError):
            lstm.step(tiny_w, tiny_w.zero_state(), [0.1, 0.2],
                      lstm.Workspace(tiny_w.n, tiny_w.m, 1))


class TestAdjoint:
    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_matches_central_differences(self, bench_w, net, n_steps):
        # J(u) = sum_k a_k . c_k + b_k . h_k over the rollout's stages 0..T
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        rng = np.random.default_rng(n_steps)
        a = rng.normal(size=(n_steps + 1, w.n))
        b = rng.normal(size=(n_steps + 1, w.n))
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-0.9, 0.9, (n_steps, w.m))

        def objective(u_seq):
            c, h, _ = lstm.rollout(w, x0.c, x0.h, u_seq)
            return float(np.sum(a * c) + np.sum(b * h))

        dz = swept(w, x0, u)[0].adjoint(a, b)
        assert dz.shape == (n_steps, 4 * w.n)
        grad = dz @ w.W
        eps = 1e-6
        fd = np.empty_like(u)
        for idx in np.ndindex(u.shape):
            up, um = u.copy(), u.copy()
            up[idx] += eps
            um[idx] -= eps
            fd[idx] = (objective(up) - objective(um)) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)


class TestSensitivities:
    @staticmethod
    def _case(bench_w, net, n_steps):
        """(w, rng, x0, u, workspace, c, cache): a sweep in a workspace of its length."""
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        rng = np.random.default_rng(10 + n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-0.9, 0.9, (n_steps, w.m))
        ws, c, h, cache = swept(w, x0, u)
        return w, rng, x0, u, ws, c, cache

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_matches_central_differences(self, bench_w, net, n_steps):
        w, _, x0, u, ws, _, _ = self._case(bench_w, net, n_steps)
        s = ws.sensitivities()
        assert s.shape == (n_steps + 1, 2 * w.n, n_steps * w.m)
        s_c, s_h = s[:, :w.n], s[:, w.n:]
        eps = 1e-6
        fd_c, fd_h = np.empty_like(s_c), np.empty_like(s_h)
        for col in range(n_steps * w.m):
            up, um = u.copy().ravel(), u.copy().ravel()
            up[col] += eps
            um[col] -= eps
            cp, hp, _ = lstm.rollout(w, x0.c, x0.h, up.reshape(u.shape))
            cm, hm, _ = lstm.rollout(w, x0.c, x0.h, um.reshape(u.shape))
            fd_c[:, :, col] = (cp - cm) / (2 * eps)
            fd_h[:, :, col] = (hp - hm) / (2 * eps)
        # the absolute floor covers the differences' rounding, about 1e-10
        np.testing.assert_allclose(s_c, fd_c, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(s_h, fd_h, rtol=1e-6, atol=1e-9)

    def test_zero_steps_have_no_input_columns(self, bench_w):
        ws = swept(bench_w, bench_w.zero_state(), np.zeros((0, bench_w.m)))[0]
        assert ws.sensitivities().shape == (1, 2 * bench_w.n, 0)

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_reused_workspace_equals_the_functions(self, bench_w, net, n_steps):
        # a workspace's sweep after an earlier one, bit for bit a fresh
        # workspace's rollout and sensitivities: nothing of the earlier sweep shows
        w, rng, x0, u, fresh, c, _ = self._case(bench_w, net, n_steps)
        ws = lstm.Workspace(w.n, w.m, n_steps)
        ws.rollout(w, -x0.c, -x0.h, -u)
        ws.sensitivities()
        got_c, got_h, _ = ws.rollout(w, x0.c, x0.h, u)
        want_h = lstm.rollout(w, x0.c, x0.h, u)[1]
        assert (got_c.tobytes(), got_h.tobytes()) == (c.tobytes(), want_h.tobytes())
        assert ws.sensitivities().tobytes() == fresh.sensitivities().tobytes()

    @pytest.mark.parametrize("net", ["bench", "small"])
    def test_workspace_sweeps_of_other_weights_and_lengths(self, bench_w, net):
        # a workspace runs each sweep on the weights it is given; after sweeps
        # of other weights, with the sweeps of other lengths in workspaces of
        # their own, one per length as in training, each result is a fresh
        # workspace's bit for bit
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        other = small_net(seed=7, n=w.n, m=w.m, p=w.p, scale=0.3)
        workspaces = {n_t: lstm.Workspace(w.n, w.m, n_t) for n_t in (12, 7, 3, 0)}
        rng = np.random.default_rng(4)
        for net_k, n_steps in ((other, 12), (w, 7), (other, 3), (w, 12), (w, 0), (other, 7),
                               (w, 3)):
            x0 = random_invariant_state(net_k, rng)
            u = rng.uniform(-0.9, 0.9, (n_steps, w.m))
            dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
            fresh, c, h, cache = swept(net_k, x0, u)
            ws = workspaces[n_steps]
            got = ws.rollout(net_k, x0.c, x0.h, u)
            assert [a.tobytes() for a in (*got[:2], *got[2])] == \
                [a.tobytes() for a in (c, h, *cache)]
            assert ws.sensitivities().tobytes() == fresh.sensitivities().tobytes()
            assert ws.adjoint(dc_stage, dh_stage).tobytes() == \
                fresh.adjoint(dc_stage, dh_stage).tobytes()

    def test_workspace_rejects_a_sweep_it_cannot_hold(self, bench_w):
        # a longer or a shorter sweep, or weights of another input or state count
        ws = lstm.Workspace(bench_w.n, bench_w.m, 4)
        zero = np.zeros(bench_w.n)
        for n_steps in (5, 3):
            with pytest.raises(DimensionError,
                               match=f"a sweep of {n_steps} steps in a workspace of 4"):
                ws.rollout(bench_w, zero, zero, np.zeros((n_steps, bench_w.m)))
        for net in (small_net(n=bench_w.n, m=bench_w.m + 1), small_net(n=bench_w.n + 1)):
            zero = np.zeros(net.n)
            with pytest.raises(DimensionError, match=rf"weights of \(n, m\) = \({net.n}, "
                                                     rf"{net.m}\) in a workspace of "
                                                     rf"\({bench_w.n}, {bench_w.m}\)"):
                ws.rollout(net, zero, zero, np.zeros((3, net.m)))

    @pytest.mark.parametrize("net, n_t, message", [
        (dict(n=4), 1, r"weights of \(n, m\) = \(4, 1\) in a workspace of \(5, 1\)"),
        (dict(m=2, p=2), 1, r"weights of \(n, m\) = \(5, 2\) in a workspace of \(5, 1\)"),
        (None, 0, "a sweep of 1 steps in a workspace of 0"),
        (None, 4, "a sweep of 1 steps in a workspace of 4"),
    ], ids=["other-n", "other-m", "no-steps", "several-steps"])
    def test_workspace_step_rejects_a_step_it_cannot_hold(self, bench_w, net, n_t, message):
        # a step checks what a sweep checks: weights of the workspace's (n, m),
        # and a workspace of its one step
        ws = lstm.Workspace(bench_w.n, bench_w.m, n_t)
        w = bench_w if net is None else small_net(**{"n": bench_w.n, **net})
        zero = np.zeros(w.n)
        with pytest.raises(DimensionError, match=message):
            ws.step(w, zero, zero, np.zeros(w.m))
        with pytest.raises(DimensionError, match=message):
            lstm.step(w, w.zero_state(), np.zeros(w.m), ws)

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_agrees_with_adjoint(self, bench_w, net, n_steps):
        # a^T (S v) = (dz @ W) . v for stage weights a and a direction v
        w, rng, _, u, ws, _, _ = self._case(bench_w, net, n_steps)
        a_c = rng.normal(size=(n_steps + 1, w.n))
        a_h = rng.normal(size=(n_steps + 1, w.n))
        v = rng.normal(size=n_steps * w.m)
        s = ws.sensitivities()
        s_c, s_h = s[:, :w.n], s[:, w.n:]
        forward = float(np.sum(a_c * (s_c @ v)) + np.sum(a_h * (s_h @ v)))
        dz = ws.adjoint(a_c, a_h)
        reverse = float((dz @ w.W).ravel() @ v)
        assert forward == pytest.approx(reverse, rel=1e-12)


def workspace_factors(c, cache):
    """The local factors of a workspace's sweep (c, cache), as its
    ``linearize`` and ``adjoint`` form them."""
    return lstm._local_factors(lstm._factor_buffers(c, cache))


class TestLocalFactors:
    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 10])
    def test_matches_per_gate_products(self, bench_w, net, n_steps):
        w, _, _, _, _, c, cache = TestSensitivities._case(bench_w, net, n_steps)
        factors = workspace_factors(c, cache)
        expect = local_factors_oracle(c, cache)
        assert len(factors) == len(expect) == 6
        for got, want in zip(factors, expect):
            assert got.shape == (n_steps, w.n)
            assert np.array_equal(got, want)


def step_jacobians_oracle(w, factors, out):
    """``Workspace.linearize``'s [A_k | B_k], or A_k alone, into rows :2n
    of ``out``, as one expression per block, on new temporaries."""
    f, k_f, k_i, k_g, k_o, k_t = factors
    n, cols = f.shape[1], out.shape[2]
    rows = gate_rows(n)
    uw = [np.concatenate((w.U, w.W), axis=1)[rows[gate], :cols - n] for gate in "fico"]
    dc = k_f[:, :, None] * uw[0] + k_i[:, :, None] * uw[1] + k_g[:, :, None] * uw[2]
    for k in range(len(out)):
        out[k, :n, :n] = np.diag(f[k])
        out[k, n:2 * n, :n] = np.diag(k_t[k] * f[k])
    out[:, :n, n:] = dc
    out[:, n:2 * n, n:] = k_t[:, :, None] * dc + k_o[:, :, None] * uw[3]


def a_only(w, factors, out):
    """A_k alone into the (T, >= 2n, 2n) ``out``, by the kernel and buffers
    of ``Workspace.adjoint``'s blocks."""
    lstm._step_jacobians(w, lstm._jacobian_buffers(factors, out))


class TestStepJacobians:
    # the workspaces' own buffers (the MPC's T = 5 and 10, refcalc's one
    # step, training's blocks of 148) and a caller's
    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10, 148])
    def test_equals_the_oracle_bit_for_bit(self, bench_w, net, n_steps):
        w, _, _, _, ws, c, cache = TestSensitivities._case(bench_w, net, n_steps)
        n2 = 2 * w.n
        want = np.zeros((n_steps, n2, n2 + w.m))
        step_jacobians_oracle(w, local_factors_oracle(c, cache), want)
        assert ws.linearize().tobytes() == want.tobytes()
        got, want = np.zeros((n_steps, n2, n2)), np.zeros((n_steps, n2, n2))
        a_only(w, workspace_factors(c, cache), got)
        step_jacobians_oracle(w, local_factors_oracle(c, cache), want)
        assert got.tobytes() == want.tobytes()
        c = c.copy()
        ws.rollout(w, c[0], np.zeros(w.n), np.zeros((n_steps, w.m)))
        for _ in range(2):              # its second sweep reuses its buffers
            ws.rollout(w, c[0], c[1], c[1:, :w.m])
            s = ws.sensitivities()
            fresh = swept(w, LstmState(c[0], c[1]), c[1:, :w.m])[0]
            assert s.tobytes() == fresh.sensitivities().tobytes()
        # one step, in a new one-step workspace and in the swept one, which
        # rejects it unless it is a one-step workspace too
        want = np.zeros((n2, n2 + w.m))
        step_jacobians_oracle(w, local_factors_oracle(*lstm.rollout(
            w, c[0], c[1], c[1:2, :w.m])[::2]), want[None])
        for one in (lstm.Workspace(w.n, w.m, 1), ws):
            if one.n_t != 1:
                with pytest.raises(DimensionError,
                                   match=f"a sweep of 1 steps in a workspace of {n_steps}$"):
                    one.step(w, c[0], c[1], c[1, :w.m])
                continue
            one.step(w, c[0], c[1], c[1, :w.m])
            jac = one.linearize()
            assert jac.shape == (1, n2, n2 + w.m)
            assert jac.tobytes() == want.tobytes()

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_matches_central_differences(self, bench_w, net, n_steps):
        # A_k, B_k against a one-step rollout from (c_k, h_k) with input u_k
        w, _, x0, u, ws, _, _ = TestSensitivities._case(bench_w, net, n_steps)
        c, h, _ = lstm.rollout(w, x0.c, x0.h, u)
        n = w.n
        jac = ws.linearize()
        a, b = jac[:, :, :2 * n], jac[:, :, 2 * n:]
        eps = 1e-6

        def next_state(xi):
            c1, h1, _ = lstm.rollout(w, xi[:n], xi[n:2 * n], xi[None, 2 * n:])
            return np.concatenate([c1[1], h1[1]])

        for k in range(n_steps):
            xi = np.concatenate([c[k], h[k], u[k]])
            fd = np.empty((2 * n, len(xi)))
            for col in range(len(xi)):
                xp, xm = xi.copy(), xi.copy()
                xp[col] += eps
                xm[col] -= eps
                fd[:, col] = (next_state(xp) - next_state(xm)) / (2 * eps)
            np.testing.assert_allclose(a[k], fd[:, :2 * n], rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(b[k], fd[:, 2 * n:], rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("net", ["bench", "small"])
    def test_writes_only_its_blocks_of_the_callers_buffer(self, bench_w, net):
        # rows past 2n (the adjoint's stage-partial row) are left alone, and a
        # buffer of 2n columns takes A_k alone, equal to the linearization's
        w, _, _, _, ws, c, cache = TestSensitivities._case(bench_w, net, 4)
        n2 = 2 * w.n
        full = np.zeros((4, n2 + 3, n2))
        full[:, n2:] = 7.0
        a_only(w, workspace_factors(c, cache), full)
        assert np.all(full[:, n2:] == 7.0)
        np.testing.assert_array_equal(full[:, :n2], ws.linearize()[:, :, :n2])

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_sensitivities_match_per_gate_oracle(self, bench_w, net, n_steps):
        w, _, _, _, ws, c, cache = TestSensitivities._case(bench_w, net, n_steps)
        s = ws.sensitivities()
        s_c, s_h = oracle_sensitivities(w, c, cache)
        np.testing.assert_allclose(s[:, :w.n], s_c, rtol=0, atol=1e-13)
        np.testing.assert_allclose(s[:, w.n:], s_h, rtol=0, atol=1e-13)
        for k in range(n_steps + 1):       # stage k does not depend on u_k..u_T-1
            assert np.all(s[k, :, k * w.m:] == 0.0), k


class TestOutput:
    def test_zero_readout(self, tiny_w):
        w = with_arrays(tiny_w, W_y=0.0)
        x = LstmState(np.zeros(w.n), np.ones(w.n))
        np.testing.assert_allclose(lstm.output(w, x), w.b_y)

    def test_zero_state(self, tiny_w):
        np.testing.assert_allclose(
            lstm.output(tiny_w, tiny_w.zero_state()), tiny_w.b_y)

    def test_rejects_bad_state_shape(self, tiny_w):
        x = LstmState(np.zeros(tiny_w.n), np.zeros(tiny_w.n + 1))
        with pytest.raises(DimensionError, match="state shape"):
            lstm.output(tiny_w, x)

    def test_matches_direct_product(self, bench_w):
        rng = np.random.default_rng(4)
        x = random_invariant_state(bench_w, rng)
        oracle = [sum(bench_w.W_y[j, k] * x.h[k] for k in range(bench_w.n))
                  + bench_w.b_y[j] for j in range(bench_w.p)]
        np.testing.assert_allclose(lstm.output(bench_w, x), oracle, atol=1e-14)


class TestGateBounds:
    def test_zero_weights(self):
        g = lstm.gate_bounds(zero_net())
        assert (g.sigma_f, g.sigma_i, g.sigma_o) == (0.5, 0.5, 0.5)
        assert g.sigma_c == 0.0 and g.sigma_x == 0.0
        assert g.gains[0, 1] == 0.0 and g.column[0, 0] == 0.0     # alpha, beta

    def test_forget_bias_saturation(self):
        g = lstm.gate_bounds(with_arrays(zero_net(), b_f=30.0))
        assert g.sigma_f == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b_f", [40.0, np.nan])
    def test_saturated_forget_gate_is_typed(self, bench_w, b_f):
        # sigma_f rounds to 1.0 (or is NaN): the cell radius si sc / (1 - sf)
        # is undefined, so every certificate built on the bounds says so
        w = with_arrays(bench_w, b_f=b_f)
        for call in (lambda: lstm.gate_bounds(w), lambda: lstm.incremental_lyapunov(w)):
            with pytest.raises(InstabilityError, match="^sigma_f = .* is not below 1"):
                call()

    def test_matches_direct_transcription(self, bench_w):
        w = bench_w
        g = lstm.gate_bounds(w)

        def inf_norm(name):
            w_in, u_rec, b = (gate(w, f"{stack}_{name}") for stack in "WUb")
            return max(w.u_max * np.sum(np.abs(w_in[j])) + np.sum(np.abs(u_rec[j]))
                       + abs(b[j]) for j in range(w.n))

        sf = 1.0 / (1.0 + math.exp(-inf_norm("f")))
        si = 1.0 / (1.0 + math.exp(-inf_norm("i")))
        so = 1.0 / (1.0 + math.exp(-inf_norm("o")))
        sc = math.tanh(inf_norm("c"))
        c_rad = si * sc / (1.0 - sf)
        assert g.sigma_f == pytest.approx(sf, abs=1e-12)
        assert g.sigma_i == pytest.approx(si, abs=1e-12)
        assert g.sigma_o == pytest.approx(so, abs=1e-12)
        assert g.sigma_c == pytest.approx(sc, abs=1e-12)
        assert g.sigma_x == pytest.approx(math.tanh(c_rad), abs=1e-12)
        two = np.linalg.norm
        assert g.gains[0, 1] == pytest.approx(     # alpha
            0.25 * two(gate(w, "U_f"), 2) * c_rad + si * two(gate(w, "U_c"), 2)
            + 0.25 * two(gate(w, "U_i"), 2) * sc, abs=1e-12)
        assert g.column[0, 0] == pytest.approx(     # beta
            0.25 * two(gate(w, "W_f"), 2) * c_rad + si * two(gate(w, "W_c"), 2)
            + 0.25 * two(gate(w, "W_i"), 2) * sc, abs=1e-12)


class TestJuryMargins:
    """GateBounds' r1, r2 are the Jury margins of its own gains."""

    @staticmethod
    def _check(g):
        # det gains, formed from the entries, cancels two products of size
        # ~alpha (4e4 in the hatted bounds); the tolerance is relative to them
        a = g.gains
        terms = (a[0, 0] * a[1, 1], a[0, 1] * a[1, 0])
        det = terms[0] - terms[1]
        tol = 1e-14 * (1.0 + abs(a[0, 0]) + abs(a[1, 1]) + sum(map(abs, terms)))
        assert g.r1 == pytest.approx(-1.0 + a[0, 0] + a[1, 1] - det, rel=1e-14, abs=tol)
        assert g.r2 == pytest.approx(det - 1.0, rel=1e-14, abs=tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_model_bounds(self, seed):
        rng = np.random.default_rng(seed)
        w = small_net(seed=seed, n=int(rng.integers(2, 9)), m=int(rng.integers(1, 4)),
                      p=int(rng.integers(1, 3)), scale=float(rng.uniform(0.05, 0.8)))
        self._check(lstm.gate_bounds(w))

    @pytest.mark.parametrize("seed", range(4))
    def test_observer_hatted_bounds(self, bench_w, seed, monkeypatch):
        # every GateBounds the observer forms, A_d's and L_mat's, for random gains
        formed = []
        increment_gains = lstm.increment_gains
        monkeypatch.setattr(lstm, "increment_gains",
                            lambda *args: formed.append(increment_gains(*args)) or formed[-1])
        rng = np.random.default_rng(seed)
        n, p = bench_w.n, bench_w.p
        spec = observer.ObserverSpec(
            L_f=rng.normal(0.0, 0.3, (n, p)), L_i=rng.normal(0.0, 0.3, (n, p)),
            L_o=rng.normal(0.0, 0.3, (n, p)), L_d=0.2 * np.eye(p), d_max=0.1)
        observer.observer_matrices(bench_w, spec)
        assert len(formed) == 2
        for g in formed:
            self._check(g)


class TestMarginAdjoint:
    """margin_adjoint is the (W, U, b) gradient of a_r1 r1 + a_r2 r2."""

    @pytest.mark.parametrize("seed, scale, a_r1, a_r2", [
        (0, 0.1, 0.02, 0.02), (1, 0.3, 0.03, 0.02), (2, 0.5, 5.0, 0.7), (3, 0.2, 0.0, 1.0)])
    def test_matches_central_differences(self, seed, scale, a_r1, a_r2):
        w = small_net(seed=seed, n=3, m=2, scale=scale)

        def weighted(net):
            g = lstm.gate_bounds(net)
            return a_r1 * g.r1 + a_r2 * g.r2

        grads = lstm.margin_adjoint(w, lstm.gate_bounds(w), a_r1, a_r2)
        eps = 1e-6
        for name, grad in zip(("W", "U", "b"), grads):
            arr = getattr(w, name)
            assert grad.shape == arr.shape
            fd = np.empty_like(arr)
            for idx in np.ndindex(arr.shape):
                up, down = arr.copy(), arr.copy()
                up[idx] += eps
                down[idx] -= eps
                fd[idx] = (weighted(with_arrays(w, **{name: up}))
                           - weighted(with_arrays(w, **{name: down}))) / (2 * eps)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7, err_msg=name)


class TestGateOrder:
    """The certificate's gate bounds and gains, against the same formulas
    written with each gate's rows of the stacks, W_f ... b_o."""

    @staticmethod
    def _net():
        # gates made unlike each other, so a gate read at another's offset shows
        w = small_net(seed=6, n=3, m=2, p=2)
        return with_arrays(w, **{f"{stack}_{g}": (1.0 + k) * gate(w, f"{stack}_{g}")
                                 for k, g in enumerate("fioc") for stack in "WUb"})

    def test_gate_sigmas(self):
        w = self._net()
        rng = np.random.default_rng(2)
        widen = {g: rng.uniform(0.0, 0.1, w.n) for g in "fioc"}

        def bound(g):
            rows = (w.u_max * np.abs(gate(w, f"W_{g}")).sum(axis=1)
                    + np.abs(gate(w, f"U_{g}")).sum(axis=1)
                    + np.abs(gate(w, f"b_{g}")) + widen[g])
            return float(rows.max())

        got = lstm.gate_sigmas(w.W, w.U, w.b, w.u_max,
                               np.concatenate([widen[g] for g in lstm.GATES]))
        want = (*(1.0 / (1.0 + math.exp(-bound(g))) for g in "fio"), math.tanh(bound("c")))
        assert len(set(want)) == 4
        assert got == pytest.approx(want, rel=1e-14)

    def test_increment_gains(self):
        w = self._net()
        sigmas = (0.7, 0.6, 0.8, 0.9)
        recurrent = [gate(w, f"U_{g}") for g in lstm.GATES]
        inputs = [gate(w, f"W_{g}") for g in lstm.GATES]
        got = lstm.increment_gains(sigmas, recurrent, inputs)
        sf, si, so, sc = sigmas
        two = {name: np.linalg.norm(gate(w, name), 2)
               for name in ("U_f", "U_i", "U_o", "U_c", "W_f", "W_i", "W_o", "W_c")}
        c_rad = si * sc / (1.0 - sf)
        sx = math.tanh(c_rad)
        alpha = 0.25 * two["U_f"] * c_rad + si * two["U_c"] + 0.25 * two["U_i"] * sc
        beta = 0.25 * two["W_f"] * c_rad + si * two["W_c"] + 0.25 * two["W_i"] * sc
        assert (got.sigma_f, got.sigma_i, got.sigma_o, got.sigma_c) == sigmas
        assert (got.cell_radius, got.sigma_x) == pytest.approx((c_rad, sx), rel=1e-14)
        np.testing.assert_allclose(
            got.gains, [[sf, alpha], [so * sf, alpha * so + 0.25 * sx * two["U_o"]]],
            rtol=1e-14)
        np.testing.assert_allclose(
            got.column, [[beta], [beta * so + 0.25 * sx * two["W_o"]]], rtol=1e-14)


def uncertified_net():
    w = small_net(seed=1, n=3)
    return with_arrays(w, b_f=30.0, U_o=200.0 * gate(w, "U_o"))     # push sigma_f -> 1


class TestCertification:
    def test_zero_weights(self):
        cert = lstm.incremental_lyapunov(zero_net())
        np.testing.assert_allclose(cert.A_delta, [[0.5, 0.0], [0.25, 0.0]], atol=1e-15)
        assert cert.rho_A == pytest.approx(0.5)
        assert cert.certified is True
        assert cert.r1 < 0 and cert.r2 < 0

    def test_rejects_inflated_recurrence(self):
        w = uncertified_net()
        assert numerics.spectral_radius(lstm.gate_bounds(w).gains) >= 1.0
        with pytest.raises(InstabilityError, match="model not certified"):
            lstm.incremental_lyapunov(w)

    def test_certified_record_is_built_whole(self, bench_w):
        # one builder: the record holds its model's gate_bounds, their
        # spectral radius and lyapunov_bounds of its own A_delta
        nets = [small_net(seed=seed, n=n, m=m, p=p)
                for seed, n, m, p in ((0, 3, 1, 1), (1, 5, 2, 1), (2, 8, 1, 3), (3, 2, 3, 2))]
        for w in [bench_w, *nets]:
            cert = lstm.incremental_lyapunov(w)
            g = lstm.gate_bounds(w)
            np.testing.assert_array_equal(cert.A_delta, g.gains)
            np.testing.assert_array_equal(cert.B_delta, g.column)
            assert (cert.rho_A, cert.r1, cert.r2) == (numerics.spectral_radius(g.gains), g.r1, g.r2)
            p_s, rho_s, c_sl, c_su = lstm.lyapunov_bounds(cert.A_delta)
            np.testing.assert_array_equal(cert.P_s, p_s)
            assert (cert.rho_s, cert.c_sl, cert.c_su) == (rho_s, c_sl, c_su)
            np.testing.assert_array_equal(cert.c_s, np.linalg.norm(w.W_y, axis=1) / c_sl)

    def test_certified_is_always_true_and_not_a_field(self, bench_w):
        cert = lstm.incremental_lyapunov(bench_w)
        assert cert.certified is True
        assert "certified" not in {field.name for field in dataclasses.fields(cert)}
        with pytest.raises(AttributeError):
            cert.certified = False
        with pytest.raises(TypeError, match="certified"):
            dataclasses.replace(cert, w=bench_w, certified=False)

    def test_certificate_holds_no_mutable_field(self, bench_w):
        # scalars and read-only arrays only: no field can be edited in place
        cert = lstm.incremental_lyapunov(bench_w)
        for field in dataclasses.fields(cert):
            value = getattr(cert, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name
            else:
                assert isinstance(value, float), field.name

    def test_jury_equivalent_to_spectral_radius(self, bench_w):
        cert = lstm.incremental_lyapunov(bench_w)
        assert (cert.rho_A < 1.0) == (cert.r1 < 0.0 and cert.r2 < 0.0)
        # same equivalence on random small nets, certified or not
        for seed in range(20):
            g = lstm.gate_bounds(small_net(seed=seed, n=3, scale=0.8))
            assert (numerics.spectral_radius(g.gains) < 1.0) == (g.r1 < 0.0 and g.r2 < 0.0)

    def test_lyapunov_fields(self, bench_w, bench_cert):
        cert = bench_cert
        np.testing.assert_allclose(
            cert.A_delta.T @ cert.P_s @ cert.A_delta - cert.P_s, -1000.0 * np.eye(2),
            atol=1e-6)
        lam = np.linalg.eigvalsh(cert.P_s)
        assert cert.c_sl == pytest.approx(np.sqrt(lam[0]), abs=1e-9)
        assert cert.c_su == pytest.approx(np.sqrt(lam[1]), abs=1e-9)
        assert cert.rho_s == pytest.approx(np.sqrt(1.0 - 1000.0 / lam[1]), abs=1e-12)
        np.testing.assert_allclose(
            cert.c_s, np.linalg.norm(bench_w.W_y, axis=1) / np.sqrt(lam[0]), atol=1e-12)

    def test_benchmark_contraction_rate(self, bench_cert):
        # the published experiment reports 0.92 for this Q_s regime
        assert bench_cert.rho_s == pytest.approx(0.92, abs=0.05)

    def test_contraction_monte_carlo(self, bench_w, bench_cert, bench_cell):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x_a = random_invariant_state(bench_w, rng)
            x_b = random_invariant_state(bench_w, rng)
            u = rng.uniform(-1.0, 1.0, bench_w.m)
            v0 = lstm.v_s(bench_cert, x_a, x_b)
            v1 = lstm.v_s(bench_cert, lstm.step(bench_w, x_a, u, bench_cell),
                          lstm.step(bench_w, x_b, u, bench_cell))
            assert v1 <= bench_cert.rho_s * v0 + 1e-9
            # norm equivalence and output sensitivity on the same samples
            dx = np.linalg.norm(x_a.as_vector() - x_b.as_vector())
            assert bench_cert.c_sl * dx - 1e-9 <= v0 <= bench_cert.c_su * dx + 1e-9
            dy = np.abs(bench_w.W_y @ (x_a.h - x_b.h))
            assert np.all(dy <= bench_cert.c_s * v0 + 1e-9)


class TestVs:
    def test_equal_pair_is_zero(self, bench_cert, bench_w):
        x = random_invariant_state(bench_w, np.random.default_rng(1))
        assert lstm.v_s(bench_cert, x, x) == 0.0

    def test_identity_metric_unit_cell_error(self):
        # a unit cell error alone weighs sqrt(P_s[0, 0]); in the identity metric, 1
        cert = lstm.incremental_lyapunov(zero_net())
        x_a = LstmState(np.array([1.0, 0.0]), np.zeros(2))
        x_b = LstmState(np.zeros(2), np.zeros(2))
        assert lstm.v_s(cert, x_a, x_b) == pytest.approx(np.sqrt(cert.P_s[0, 0]), rel=1e-15)
        assert lstm.v_s(SimpleNamespace(P_s=np.eye(2)), x_a, x_b) == pytest.approx(1.0)

    def test_quadratic_form_oracle(self, bench_cert, bench_w):
        rng = np.random.default_rng(8)
        x_a = random_invariant_state(bench_w, rng)
        x_b = random_invariant_state(bench_w, rng)
        v = np.array([np.sqrt(np.sum((x_a.c - x_b.c) ** 2)),
                      np.sqrt(np.sum((x_a.h - x_b.h) ** 2))])
        assert lstm.v_s(bench_cert, x_a, x_b) == pytest.approx(
            float(np.sqrt(v @ bench_cert.P_s @ v)), abs=1e-12)


class TestWeightStorage:
    """W, U, b are stored once, stacked in GATES order; a gate's rows of a
    stack (the weights file's W_f ... b_o) are views into it."""

    def test_stacks_in_gate_order(self, bench_w):
        doc = json.loads((ASSETS / "model.json").read_text())
        for stack in ("W", "U", "b"):
            np.testing.assert_array_equal(
                getattr(bench_w, stack), np.concatenate([doc[f"{stack}_{g}"] for g in lstm.GATES]))

    def test_item_write_updates_stack(self):
        # a per-gate array is a view of its rows of the stack, so an item
        # write would change the stack: it is refused, and the changed model
        # is new weights whose stack holds the write
        w = small_net(seed=4, n=3)
        before = w.b.copy()
        assert np.shares_memory(gate(w, "b_f"), w.b)
        with pytest.raises(ValueError, match="read-only"):
            gate(w, "b_f")[...] = 30.0
        np.testing.assert_array_equal(w.b, before)
        np.testing.assert_array_equal(with_arrays(w, b_f=30.0).b[gate_rows(3)["f"]], 30.0)

    def test_in_place_update_scales_stack(self):
        w = small_net(seed=4, n=3)
        before = w.U.copy()
        u_o = gate(w, "U_o")
        with pytest.raises(ValueError, match="read-only"):
            u_o *= 200.0
        np.testing.assert_array_equal(w.U, before)
        scaled = with_arrays(w, U_o=200.0 * gate(w, "U_o")).U
        rows = gate_rows(3)["o"]
        np.testing.assert_array_equal(scaled[rows], 200.0 * before[rows])
        np.testing.assert_array_equal(np.delete(scaled, rows, axis=0),
                                      np.delete(before, rows, axis=0))

    def test_attribute_assignment_writes_into_stack(self):
        w = small_net(seed=4, n=3, m=2)
        stack, before = w.W, w.W.copy()
        with pytest.raises(AttributeError, match="read-only"):
            w.W_c = np.full((3, 2), 0.5)
        assert w.W is stack
        np.testing.assert_array_equal(w.W, before)

    def test_constructor_and_copy_own_their_arrays(self):
        # weights built from another's (read-only) arrays are an equal copy
        # that shares memory with neither the source nor a second copy
        w = small_net(seed=4, n=3)
        given = {name: getattr(w, name) for name in lstm.PARAMETERS}
        ranges = dict(u_max=w.u_max, u_range=w.u_range, y_range=w.y_range)
        dup, w2 = (lstm.LstmWeights(**given, **ranges) for _ in range(2))
        for name in lstm.PARAMETERS:
            for a, b in ((w, dup), (w, w2), (dup, w2)):
                assert not np.shares_memory(getattr(a, name), getattr(b, name)), name
            np.testing.assert_array_equal(getattr(dup, name), getattr(w, name))
        assert (dup.u_max, dup.u_range, dup.y_range) == (w.u_max, w.u_range, w.y_range)

    def test_read_only(self, bench_w, bench_certificate):
        # every array the weights hold refuses writes (stacks, readout,
        # per-gate views and cell operands), also after a control step, an
        # observer step and a training epoch have run on them, which leave
        # the attributes that construction made; no name can be assigned,
        # and the constructor shares no memory with its inputs
        given = {name: getattr(bench_w, name).copy() for name in lstm.PARAMETERS}
        w = lstm.LstmWeights(**given, u_range=bench_w.u_range, y_range=bench_w.y_range)
        built = set(vars(w))
        cell = lstm.Workspace(w.n, w.m, 1)
        ref = refcalc.solve_reference(w, [0.1], [0.0], cell)
        chi = observer.AugmentedState(ref.x_bar, np.zeros(w.p))
        u, _, _ = mpc.Controller(w, bench_certificate).step(chi, np.array([0.1]))
        observer.observer_step(w, bench_certificate.spec, chi, u, [0.12], cell)
        ds = sysid.generate_dataset(seed=3, n_train=1, n_val=1, n_test=1, steps=120)
        sysid.train(ds, sysid.TrainConfig(epochs=1, n_neurons=w.n, washout=10), init=w)
        assert set(vars(w)) == built
        arrays = [name for name, a in vars(w).items() if isinstance(a, np.ndarray)]
        operands = ("W", "U", "b", "W_y", "b_y", "U_half", "W_half", "b_half", "UW",
                    "residual_jacobian", "_scale", "_half", "_one")
        assert set(arrays) == set(operands)
        views = [(name, gate(w, name)) for name in lstm.MATRIX_FIELDS[:-2]]
        for name, array in [*((name, getattr(w, name)) for name in arrays), *views]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            assert not any(np.shares_memory(array, a) for a in given.values()), name
        for name, value in (*given.items(), ("W_f", gate(w, "W_f")), ("U_half", w.U_half),
                            ("u_max", 2.0)):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(w, name, value)
        for name, a in given.items():
            np.testing.assert_array_equal(getattr(w, name), a)


def weights_digest(w):
    """sha256 over every attribute of the weights ``w``, in name order: its
    name, then an array's dtype, shape and bytes, or another value's repr."""
    digest = hashlib.sha256()
    for name, value in sorted(vars(w).items()):
        digest.update(name.encode())
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype} {value.shape}".encode())
            digest.update(value.tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


class TestFromStacks:
    """The one constructor takes the stacks W, U, b in ``GATES`` order and
    forms the same checks, operands and read-only copies byte for byte."""

    NETS = TestPreparedKernel.NETS
    # weights_digest of each net, pinned: the bench model as load_weights
    # builds it, the others as small_net draws them
    DIGESTS = {"bench": "3ed18da5d6d5fe515303f8faf29ce83748b8f7ea9e7d2ef88d45b7f49117f4a8",
               "small": "f5ecf220a0fbd56a55d5bec47da24f1ef29c4c2692b06cb0fece96157ff43a10",
               "square2": "551da2dfb02ffcd5f7fa25b65bd121605cdedc5d43c823e79f8b4c369ea1272a"}

    @pytest.mark.parametrize("net", list(NETS))
    def test_every_attribute_keeps_its_bytes(self, bench_w, net):
        w = bench_w if net == "bench" else small_net(**self.NETS[net])
        assert weights_digest(w) == self.DIGESTS[net]
        stacks = [getattr(w, name).copy() for name in lstm.PARAMETERS]
        rest = dict(u_max=w.u_max, u_range=w.u_range, y_range=w.y_range)
        for given in (stacks, [a.tolist() for a in stacks]):
            assert weights_digest(lstm.LstmWeights(*given, **rest)) == self.DIGESTS[net]

    @pytest.mark.parametrize("net", list(NETS))
    @pytest.mark.parametrize("ranges", [True, False])
    def test_equals_the_keyword_constructor_byte_for_byte(self, bench_w, net, ranges):
        # the stacks named by keyword, or given in order as arrays or as
        # lists: the same attributes, each array a read-only copy of its own
        w = bench_w if net == "bench" else small_net(**self.NETS[net])
        rest = dict(u_max=0.9, u_range=w.u_range, y_range=w.y_range) if ranges else {}
        by_keyword = lstm.LstmWeights(**{name: getattr(w, name) for name in lstm.PARAMETERS},
                                      **rest)
        stacks = [getattr(w, name).copy() for name in lstm.PARAMETERS]
        for given in (stacks, [a.tolist() for a in stacks]):
            built = lstm.LstmWeights(*given, **rest)
            assert vars(built).keys() == vars(by_keyword).keys()
            for name, value in vars(by_keyword).items():
                got = getattr(built, name)
                if isinstance(value, np.ndarray):
                    assert (got.dtype, got.shape, got.tobytes()) == \
                        (value.dtype, value.shape, value.tobytes()), name
                    assert not got.flags.writeable, name
                    assert not any(np.shares_memory(got, a) for a in stacks), name
                else:
                    assert type(got) is type(value) and got == value, name

    @pytest.mark.parametrize("stack, gate_name, rows, cols, message", [
        ("W", "i", 1, 0, "input-weight"), ("U", "f", 1, 0, "recurrent-weight"),
        ("U", "o", 0, 1, "recurrent-weight"), ("b", "c", 1, None, "bias"),
        ("W_y", None, 0, 1, "readout"), ("b_y", None, 1, None, "readout"),
    ], ids=["W-rows", "U-rows", "U-columns", "b", "W_y", "b_y"])
    def test_raises_the_constructors_dimension_error(self, tiny_w, stack, gate_name, rows, cols,
                                                     message):
        # one gate's block (or the readout) given one row or column too many:
        # in the stacks, a row within that block or a column of the whole stack
        def grown(a):
            return np.pad(a, [(0, rows)] + ([(0, cols)] if cols is not None else []))

        stacks = {name: getattr(tiny_w, name) for name in lstm.PARAMETERS}
        if gate_name is not None and rows:
            blocks = dict(zip(lstm.GATES, np.split(stacks[stack], 4)))
            blocks[gate_name] = grown(blocks[gate_name])
            stacks[stack] = np.concatenate([blocks[g] for g in lstm.GATES])
        else:
            stacks[stack] = grown(stacks[stack])
        with pytest.raises(DimensionError, match=f"^{message} shapes disagree$"):
            lstm.LstmWeights(**stacks)

    def test_rejects_a_stack_that_is_not_a_matrix(self, tiny_w):
        stacks = {name: getattr(tiny_w, name) for name in lstm.PARAMETERS}
        with pytest.raises(DimensionError, match="^input-weight shapes disagree$"):
            lstm.LstmWeights(**{**stacks, "W": stacks["W"].ravel()})

    @pytest.mark.parametrize("n, m, p", [(0, 1, 1), (3, 0, 1), (3, 1, 0)])
    def test_rejects_zero_size_stacks(self, n, m, p):
        # shapes that agree, with no state, input or output: the certificate's
        # norms and the controller need at least one of each
        with pytest.raises(DimensionError, match=rf"^\(n, m, p\) = \({n}, {m}, {p}\): each must "
                                                 "be at least 1$"):
            lstm.LstmWeights(np.zeros((4 * n, m)), np.zeros((4 * n, n)), np.zeros(4 * n),
                             np.zeros((p, n)), np.zeros(p))

    def test_result_is_read_only(self, tiny_w):
        w = lstm.LstmWeights(*(getattr(tiny_w, name) for name in lstm.PARAMETERS))
        for array in (*(getattr(w, name) for name in (*lstm.PARAMETERS, "U_half", "UW")),
                      gate(w, "W_f")):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        with pytest.raises(AttributeError, match="read-only"):
            w.W = tiny_w.W


class TestSerialization:
    def test_round_trip(self, tmp_path, bench_w, bench_spec):
        path = tmp_path / "w.json"
        lstm.save_weights(bench_w, path, observer=bench_spec.to_dict())
        w2, obs = lstm.load_weights(path)
        for name in lstm.PARAMETERS:
            np.testing.assert_array_equal(getattr(bench_w, name), getattr(w2, name))
        assert w2.u_max == bench_w.u_max
        assert w2.u_range == tuple(bench_w.u_range)
        assert w2.y_range == tuple(bench_w.y_range)
        assert obs == bench_spec.to_dict()

    def test_shipped_asset_byte_round_trip(self, tmp_path):
        src = ASSETS / "model.json"
        w, obs = lstm.load_weights(src)
        lstm.save_weights(w, tmp_path / "model.json", observer=obs)
        assert (tmp_path / "model.json").read_bytes() == src.read_bytes()

    def test_shape_validation(self, tmp_path):
        # one gate's block of the wrong size: DimensionError from the stacks,
        # and from a weights file a ValueError that names the array first,
        # before the gates are stacked
        w = small_net(seed=4, n=2)
        blocks = np.split(w.W, 4)
        blocks[lstm.GATES.index("i")] = np.zeros((3, 1))
        with pytest.raises(DimensionError, match="^input-weight shapes disagree$"):
            lstm.LstmWeights(np.concatenate(blocks), w.U, w.b, w.W_y, w.b_y)
        doc = json.loads((ASSETS / "model.json").read_text())
        n, m = doc["n"], doc["m"]
        path = tmp_path / "model.json"
        for name, value, message in (
                ("W_c", [0.5] * n,
                 f"W_c's shape must be (rows, columns), each at least 1, got ({n},)"),
                ("W_i", [[0.5] * m] * (n - 1), f"W_i's shape must be ({n}, {m}), as W_c's"),
                ("U_c", [[0.5] * (n - 1)] * n, f"U_c's shape must be ({n}, {n}), as W_c's"),
                ("b_o", [[0.5]] * n, f"b_o's shape must be ({n},), as W_c's")):
            path.write_text(json.dumps({**doc, name: value}))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                lstm.load_weights(path)

    @pytest.mark.parametrize("change, error, message", [
        (lambda w: {"W_y": np.zeros((w.p, w.n + 1))}, DimensionError, "readout"),
        (lambda w: {"b_y": np.zeros(w.p + 1)}, DimensionError, "readout"),
        (lambda w: {"u_max": 0.0}, ValueError, "u_max"),
        (lambda w: {"u_max": -1.0}, ValueError, "u_max"),
    ], ids=["W_y", "b_y", "u_max-zero", "u_max-negative"])
    def test_rejects_bad_readout_or_input_bound(self, tiny_w, change, error, message):
        fields = {name: getattr(tiny_w, name) for name in lstm.PARAMETERS}
        with pytest.raises(error, match=message):
            lstm.LstmWeights(**{**fields, **change(tiny_w)})


def test_inputs_given_as_lists_run_as_arrays(bench_w):
    # the input products call the inputs' ndarray.dot, after np.asarray
    x0 = random_invariant_state(bench_w, np.random.default_rng(9))
    u = [[0.3], [-0.2], [0.1]]
    for got, want in zip(lstm.rollout(bench_w, x0.c, x0.h, u)[:2],
                         lstm.rollout(bench_w, x0.c, x0.h, np.array(u))[:2]):
        assert got.tobytes() == want.tobytes()
    ws = lstm.Workspace(bench_w.n, bench_w.m, 1)
    given = [a.copy() for a in ws.step(bench_w, x0.c, x0.h, u[0])]
    for got, want in zip(given, ws.step(bench_w, x0.c, x0.h, np.array(u[0]))):
        assert got.tobytes() == want.tobytes()
