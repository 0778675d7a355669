"""Unit tests for the LSTM model and its contraction certificates."""

import dataclasses
import math

import numpy as np
import pytest

from lstmpc import lstm, numerics, sysid
from lstmpc.errors import DimensionError, InstabilityError
from lstmpc.lstm import LstmState

from conftest import ASSETS, random_invariant_state, small_net, zero_net


def scalar_step_oracle(w, x, u):
    """Independent pure-Python reimplementation of the state update."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))

    def gate(w_in, u_rec, b, fn):
        out = []
        for j in range(w.n):
            z = b[j]
            for k in range(w.m):
                z += w_in[j][k] * u[k]
            for k in range(w.n):
                z += u_rec[j][k] * x.h[k]
            out.append(fn(z))
        return out

    f = gate(w.W_f, w.U_f, w.b_f, sig)
    i = gate(w.W_i, w.U_i, w.b_i, sig)
    g = gate(w.W_c, w.U_c, w.b_c, math.tanh)
    o = gate(w.W_o, w.U_o, w.b_o, sig)
    c_next = [f[j] * x.c[j] + i[j] * g[j] for j in range(w.n)]
    h_next = [o[j] * math.tanh(c_next[j]) for j in range(w.n)]
    return np.array(c_next), np.array(h_next)


def rollout_oracle(w, c0, h0, u_seq, inject=0.0):
    """Reference kernel: a sigmoid over the f, i, o rows and a tanh over
    the c rows, each step; ``lstm.rollout`` must equal it bit for bit."""
    n_t, n = len(u_seq), len(c0)
    c = np.empty((n_t + 1, n))
    h = np.empty((n_t + 1, n))
    c[0], h[0] = c0, h0
    sig = np.empty((n_t, 3 * n))
    gct = np.empty((n_t, n))
    tc = np.empty((n_t, n))
    pre = u_seq @ w.W.T + w.b + inject
    for k in range(n_t):
        z = pre[k] + w.U @ h[k]
        s = sig[k] = 0.5 * (1.0 + np.tanh(0.5 * z[:3 * n]))
        g = gct[k] = np.tanh(z[3 * n:])
        c[k + 1] = s[:n] * c[k] + s[n:2 * n] * g
        tc[k] = np.tanh(c[k + 1])
        h[k + 1] = s[2 * n:] * tc[k]
    return c, h, (sig, gct, tc)


def adjoint_oracle(w, c, cache, dc_stage, dh_stage):
    """Reference reverse sweep, one gate block of dz at a time."""
    f, k_f, k_i, k_g, k_o, k_t = lstm.local_factors(c, cache)
    n_t, n = f.shape
    dz = np.empty((n_t, 4 * n))
    dc = dc_stage[n_t]
    dh = dh_stage[n_t]
    for k in range(n_t - 1, -1, -1):
        dct = dc + dh * k_t[k]
        dz[k, :n] = dct * k_f[k]
        dz[k, n:2 * n] = dct * k_i[k]
        dz[k, 2 * n:3 * n] = dh * k_o[k]
        dz[k, 3 * n:] = dct * k_g[k]
        dc = dct * f[k] + dc_stage[k]
        dh = w.U.T @ dz[k] + dh_stage[k]
    return dz


def oracle_sensitivities(w, c, cache):
    """Reference forward sweep, the chain rule written out one gate at a
    time: (dc_k/du, dh_k/du), each (T+1, n, T*m)."""
    f, k_f, k_i, k_g, k_o, k_t = lstm.local_factors(c, cache)
    n_t, n = f.shape
    m = w.m
    s_c = np.zeros((n_t + 1, n, n_t * m))
    s_h = np.zeros((n_t + 1, n, n_t * m))
    for k in range(n_t):
        j = (k + 1) * m                  # columns u_0..u_k, the only nonzero ones
        dz = w.U @ s_h[k, :, :j]
        dz[:, k * m:j] += w.W
        s_c[k + 1, :, :j] = f[k, :, None] * s_c[k, :, :j] \
            + k_f[k, :, None] * dz[:n] + k_i[k, :, None] * dz[n:2 * n] \
            + k_g[k, :, None] * dz[3 * n:]
        s_h[k + 1, :, :j] = k_o[k, :, None] * dz[2 * n:3 * n] \
            + k_t[k, :, None] * s_c[k + 1, :, :j]
    return s_c, s_h


def assert_adjoint_matches_oracle(w, c, cache, dc_stage, dh_stage):
    """``lstm.adjoint`` sums through the step Jacobians, the oracle gate
    by gate: equal up to rounding, relative to the largest |dz|."""
    ref = adjoint_oracle(w, c, cache, dc_stage, dh_stage)
    np.testing.assert_allclose(lstm.adjoint(w, c, cache, dc_stage, dh_stage), ref,
                               rtol=0.0, atol=1e-14 * np.abs(ref).max())


class TestKernelOracle:
    """rollout equals the reference kernel exactly, adjoint up to rounding."""

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 300])
    @pytest.mark.parametrize("injected", [False, True])
    def test_rollout_and_adjoint(self, bench_w, net, n_steps, injected):
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-1.0, 1.0, (n_steps, w.m))
        inject = rng.normal(scale=0.5, size=(n_steps, 4 * w.n)) if injected else 0.0
        c, h, cache = lstm.rollout(w, x0.c, x0.h, u, inject)
        c_ref, h_ref, cache_ref = rollout_oracle(w, x0.c, x0.h, u, inject)
        np.testing.assert_array_equal(c, c_ref)
        np.testing.assert_array_equal(h, h_ref)
        assert len(cache) == len(cache_ref)
        for part, ref in zip(cache, cache_ref):
            np.testing.assert_array_equal(part, ref)
        dc_stage = rng.normal(size=(n_steps + 1, w.n))
        dh_stage = rng.normal(size=(n_steps + 1, w.n))
        assert_adjoint_matches_oracle(w, c, cache, dc_stage, dh_stage)

    def test_warm_started_training(self, bench_w, monkeypatch):
        ds = sysid.generate_dataset(seed=2, n_train=2, n_val=1, n_test=1, steps=300)
        cfg = sysid.TrainConfig(epochs=2, n_neurons=bench_w.n, seed=4)
        fast = sysid.train(ds, cfg, init=bench_w)
        monkeypatch.setattr(lstm, "rollout", rollout_oracle)
        monkeypatch.setattr(lstm, "adjoint", adjoint_oracle)
        ref = sysid.train(ds, cfg, init=bench_w)
        for name in lstm.PARAMETERS:
            param = getattr(ref, name)
            np.testing.assert_allclose(getattr(fast, name), param, rtol=0.0,
                                       atol=1e-13 * np.abs(param).max())


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
        inject = rng.normal(scale=0.5, size=(40, 4 * n))
        c, h, cache = lstm.rollout(w, x0.c, x0.h, u, inject)
        c_ref, h_ref, cache_ref = rollout_oracle(w, x0.c, x0.h, u, inject)
        for part, ref in zip((c, h, *cache), (c_ref, h_ref, *cache_ref)):
            np.testing.assert_array_equal(part, ref)
        dc_stage, dh_stage = rng.normal(size=(2, 41, n))
        assert_adjoint_matches_oracle(w, c, cache, dc_stage, dh_stage)


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
        c, h, cache = lstm.rollout(w, x0.c, x0.h, u)
        dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
        assert_adjoint_matches_oracle(w, c, cache, dc_stage, dh_stage)
        dz = lstm.adjoint(w, c, cache, dc_stage, dh_stage)
        monkeypatch.setattr(lstm, "_SWEEP_BLOCK_BYTES", 1 << 40)
        assert lstm._sweep_block(w.n, w.m) > n_steps
        np.testing.assert_array_equal(lstm.adjoint(w, c, cache, dc_stage, dh_stage), dz)

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 1), (33, 2), (128, 2)])
    def test_block_size(self, n, m):
        block = lstm._sweep_block(n, m)
        step_bytes = 8 * 2 * n * (2 * n + m)
        assert block >= 1
        assert block * step_bytes <= max(lstm._SWEEP_BLOCK_BYTES, step_bytes)


class TestKernelCalls:
    """The sweeps' per-step numpy calls: adjoint makes one BLAS call per
    step, and rollout's in-place ufuncs take shared read-only arrays."""

    @pytest.mark.parametrize("extra_blocks", [0, 1])
    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_adjoint_one_dot_per_step(self, bench_w, monkeypatch, n_steps, extra_blocks):
        w = bench_w
        n_steps += extra_blocks * lstm._sweep_block(w.n, w.m)
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        c, h, cache = lstm.rollout(w, x0.c, x0.h, rng.uniform(-1.0, 1.0, (n_steps, w.m)))
        dc_stage, dh_stage = rng.normal(size=(2, n_steps + 1, w.n))
        calls = []
        dot = np.dot

        def counted_dot(*args, **kwargs):
            calls.append(1)
            return dot(*args, **kwargs)

        monkeypatch.setattr(np, "dot", counted_dot)
        lstm.adjoint(w, c, cache, dc_stage, dh_stage)
        assert len(calls) == n_steps

    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_rollout_operands_are_read_only(self, n):
        scale, ones = lstm._gate_scale(n), lstm._gate_ones(n)
        np.testing.assert_array_equal(scale, np.repeat([0.5, 1.0], [3 * n, n]))
        np.testing.assert_array_equal(ones, np.ones(3 * n))
        for operand in (scale, ones):
            with pytest.raises(ValueError, match="read-only"):
                operand[0] = 2.0
        assert lstm._gate_ones(n) is ones


class TestKernelPurity:
    """rollout and adjoint write only into arrays they allocate."""

    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_inputs_unchanged_and_outputs_unshared(self, bench_w, n_steps):
        w = bench_w.copy()
        rng = np.random.default_rng(n_steps)
        x0 = random_invariant_state(w, rng)
        inputs = {"W": w.W, "U": w.U, "b": w.b, "c0": x0.c, "h0": x0.h,
                  "u_seq": rng.uniform(-1.0, 1.0, (n_steps, w.m)),
                  "inject": rng.normal(size=(n_steps, 4 * w.n)),
                  "dc_stage": rng.normal(size=(n_steps + 1, w.n)),
                  "dh_stage": rng.normal(size=(n_steps + 1, w.n))}
        before = {name: a.copy() for name, a in inputs.items()}
        c, h, cache = lstm.rollout(w, x0.c, x0.h, inputs["u_seq"], inputs["inject"])
        forward = [a.copy() for a in (c, h, *cache)]
        dz = lstm.adjoint(w, c, cache, inputs["dc_stage"], inputs["dh_stage"])
        for name, a in inputs.items():
            np.testing.assert_array_equal(a, before[name], err_msg=name)
        for a, ref in zip((c, h, *cache), forward):
            np.testing.assert_array_equal(a, ref)
        for out in (c, h, *cache, dz):
            assert not any(np.shares_memory(out, a) for a in inputs.values())
        assert not any(np.shares_memory(dz, a) for a in (c, h, *cache))


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
        nxt = lstm.step(w, x, [0.5])
        np.testing.assert_allclose(nxt.c, 0.5 * x.c, atol=1e-15)
        np.testing.assert_allclose(nxt.h, 0.5 * np.tanh(nxt.c), atol=1e-15)

    def test_matches_scalar_loop_oracle(self, bench_w):
        rng = np.random.default_rng(17)
        x = random_invariant_state(bench_w, rng)
        u = rng.uniform(-1.0, 1.0, bench_w.m)
        nxt = lstm.step(bench_w, x, u)
        c_ref, h_ref = scalar_step_oracle(bench_w, x, u)
        np.testing.assert_allclose(nxt.c, c_ref, atol=1e-14)
        np.testing.assert_allclose(nxt.h, h_ref, atol=1e-14)

    def test_invariance_of_operating_sets(self, bench_w):
        g = lstm.gate_bounds(bench_w)
        c_rad = g.cell_radius
        h_rad = g.sigma_o * g.sigma_x
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = random_invariant_state(bench_w, rng, g)
            u = rng.uniform(-1.0, 1.0, bench_w.m)
            nxt = lstm.step(bench_w, x, u)
            assert np.max(np.abs(nxt.c)) <= c_rad + 1e-12
            assert np.max(np.abs(nxt.h)) <= h_rad + 1e-12

    def test_warns_outside_input_box(self, tiny_w):
        with pytest.warns(UserWarning):
            lstm.step(tiny_w, tiny_w.zero_state(), [1.5])

    def test_rejects_bad_input_shape(self, tiny_w):
        with pytest.raises(DimensionError):
            lstm.step(tiny_w, tiny_w.zero_state(), [0.1, 0.2])


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

        c, h, cache = lstm.rollout(w, x0.c, x0.h, u)
        dz = lstm.adjoint(w, c, cache, a, b)
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
        w = bench_w if net == "bench" else small_net(n=3, m=2, p=2)
        rng = np.random.default_rng(10 + n_steps)
        x0 = random_invariant_state(w, rng)
        u = rng.uniform(-0.9, 0.9, (n_steps, w.m))
        c, h, cache = lstm.rollout(w, x0.c, x0.h, u)
        return w, rng, x0, u, c, cache

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_matches_central_differences(self, bench_w, net, n_steps):
        w, _, x0, u, c, cache = self._case(bench_w, net, n_steps)
        s = lstm.sensitivities(w, c, cache)
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

    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_agrees_with_adjoint(self, bench_w, net, n_steps):
        # a^T (S v) = (dz @ W) . v for stage weights a and a direction v
        w, rng, _, u, c, cache = self._case(bench_w, net, n_steps)
        a_c = rng.normal(size=(n_steps + 1, w.n))
        a_h = rng.normal(size=(n_steps + 1, w.n))
        v = rng.normal(size=n_steps * w.m)
        s = lstm.sensitivities(w, c, cache)
        s_c, s_h = s[:, :w.n], s[:, w.n:]
        forward = float(np.sum(a_c * (s_c @ v)) + np.sum(a_h * (s_h @ v)))
        dz = lstm.adjoint(w, c, cache, a_c, a_h)
        reverse = float((dz @ w.W).ravel() @ v)
        assert forward == pytest.approx(reverse, rel=1e-12)


def local_factors_oracle(c, cache):
    """``local_factors`` with each sigmoid derivative as its own product."""
    sig, g, tc = cache
    n = tc.shape[1]
    f, i, o = sig[:, :n], sig[:, n:2 * n], sig[:, 2 * n:]
    return (f, f * (1.0 - f) * c[:-1], i * (1.0 - i) * g, i * (1.0 - g ** 2),
            o * (1.0 - o) * tc, o * (1.0 - tc ** 2))


class TestLocalFactors:
    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 10])
    def test_matches_per_gate_products(self, bench_w, net, n_steps):
        w, _, _, _, c, cache = TestSensitivities._case(bench_w, net, n_steps)
        factors = lstm.local_factors(c, cache)
        expect = local_factors_oracle(c, cache)
        assert len(factors) == len(expect) == 6
        for got, want in zip(factors, expect):
            assert got.shape == (n_steps, w.n)
            assert np.array_equal(got, want)


class TestStepJacobians:
    @pytest.mark.parametrize("net", ["bench", "small"])
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_matches_central_differences(self, bench_w, net, n_steps):
        # A_k, B_k against a one-step rollout from (c_k, h_k) with input u_k
        w, _, x0, u, _, _ = TestSensitivities._case(bench_w, net, n_steps)
        c, h, cache = lstm.rollout(w, x0.c, x0.h, u)
        a, b = lstm.step_jacobians(w, c, cache)
        n = w.n
        assert a.shape == (n_steps, 2 * n, 2 * n)
        assert b.shape == (n_steps, 2 * n, w.m)
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
    @pytest.mark.parametrize("n_steps", [1, 5, 10])
    def test_sensitivities_match_per_gate_oracle(self, bench_w, net, n_steps):
        w, _, _, _, c, cache = TestSensitivities._case(bench_w, net, n_steps)
        s = lstm.sensitivities(w, c, cache)
        s_c, s_h = oracle_sensitivities(w, c, cache)
        np.testing.assert_allclose(s[:, :w.n], s_c, rtol=0, atol=1e-13)
        np.testing.assert_allclose(s[:, w.n:], s_h, rtol=0, atol=1e-13)
        for k in range(n_steps + 1):       # stage k does not depend on u_k..u_T-1
            assert np.all(s[k, :, k * w.m:] == 0.0), k


class TestOutput:
    def test_zero_readout(self, tiny_w):
        w = tiny_w.copy()
        w.W_y[...] = 0.0
        x = LstmState(np.zeros(w.n), np.ones(w.n))
        np.testing.assert_allclose(lstm.output(w, x), w.b_y)

    def test_zero_state(self, tiny_w):
        np.testing.assert_allclose(
            lstm.output(tiny_w, tiny_w.zero_state()), tiny_w.b_y)

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
        assert g.alpha == 0.0 and g.beta == 0.0

    def test_forget_bias_saturation(self):
        w = zero_net()
        w.b_f[...] = 30.0
        g = lstm.gate_bounds(w)
        assert g.sigma_f == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_transcription(self, bench_w):
        w = bench_w
        g = lstm.gate_bounds(w)

        def inf_norm(w_in, u_rec, b):
            return max(w.u_max * np.sum(np.abs(w_in[j])) + np.sum(np.abs(u_rec[j]))
                       + abs(b[j]) for j in range(w.n))

        sf = 1.0 / (1.0 + math.exp(-inf_norm(w.W_f, w.U_f, w.b_f)))
        si = 1.0 / (1.0 + math.exp(-inf_norm(w.W_i, w.U_i, w.b_i)))
        so = 1.0 / (1.0 + math.exp(-inf_norm(w.W_o, w.U_o, w.b_o)))
        sc = math.tanh(inf_norm(w.W_c, w.U_c, w.b_c))
        c_rad = si * sc / (1.0 - sf)
        assert g.sigma_f == pytest.approx(sf, abs=1e-12)
        assert g.sigma_i == pytest.approx(si, abs=1e-12)
        assert g.sigma_o == pytest.approx(so, abs=1e-12)
        assert g.sigma_c == pytest.approx(sc, abs=1e-12)
        assert g.sigma_x == pytest.approx(math.tanh(c_rad), abs=1e-12)
        two = np.linalg.norm
        assert g.alpha == pytest.approx(
            0.25 * two(w.U_f, 2) * c_rad + si * two(w.U_c, 2)
            + 0.25 * two(w.U_i, 2) * sc, abs=1e-12)
        assert g.beta == pytest.approx(
            0.25 * two(w.W_f, 2) * c_rad + si * two(w.W_c, 2)
            + 0.25 * two(w.W_i, 2) * sc, abs=1e-12)


class TestCertification:
    def test_zero_weights(self):
        cert = lstm.delta_iss_check(zero_net())
        np.testing.assert_allclose(cert.A_delta, [[0.5, 0.0], [0.25, 0.0]], atol=1e-15)
        assert cert.rho_A == pytest.approx(0.5)
        assert cert.certified
        assert cert.r1 < 0 and cert.r2 < 0

    def test_rejects_inflated_recurrence(self):
        w = small_net(seed=1, n=3)
        w.b_f[...] = 30.0            # push sigma_f -> 1
        w.U_o *= 200.0
        cert = lstm.delta_iss_check(w)
        assert cert.rho_A >= 1.0
        assert not cert.certified
        with pytest.raises(InstabilityError):
            lstm.incremental_lyapunov(w)

    def test_certificate_holds_no_mutable_field(self, bench_w):
        # scalars, flags and read-only arrays only: no field can be edited in place
        for cert in (lstm.delta_iss_check(bench_w), lstm.incremental_lyapunov(bench_w)):
            for field in dataclasses.fields(cert):
                value = getattr(cert, field.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, field.name
                else:
                    assert value is None or isinstance(value, (bool, float)), field.name

    def test_jury_equivalent_to_spectral_radius(self, bench_w):
        cert = lstm.delta_iss_check(bench_w)
        assert cert.certified
        assert (cert.rho_A < 1.0) == (cert.r1 < 0.0 and cert.r2 < 0.0)
        # same equivalence on random small nets, certified or not
        for seed in range(20):
            w = small_net(seed=seed, n=3, scale=0.8)
            c = lstm.delta_iss_check(w)
            assert (c.rho_A < 1.0) == (c.r1 < 0.0 and c.r2 < 0.0)

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

    def test_contraction_monte_carlo(self, bench_w, bench_cert):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x_a = random_invariant_state(bench_w, rng)
            x_b = random_invariant_state(bench_w, rng)
            u = rng.uniform(-1.0, 1.0, bench_w.m)
            v0 = lstm.v_s(bench_cert, x_a, x_b)
            v1 = lstm.v_s(bench_cert, lstm.step(bench_w, x_a, u),
                          lstm.step(bench_w, x_b, u))
            assert v1 <= bench_cert.rho_s * v0 + 1e-9
            # norm equivalence and output sensitivity on the same samples
            dx = np.linalg.norm(x_a.as_vector() - x_b.as_vector())
            assert bench_cert.c_sl * dx - 1e-9 <= v0 <= bench_cert.c_su * dx + 1e-9
            dy = np.abs(bench_w.W_y @ (x_a.h - x_b.h))
            assert np.all(dy <= bench_cert.c_s * v0 + 1e-9)


class TestVs:
    def _manual_cert(self):
        return dataclasses.replace(lstm.delta_iss_check(zero_net()), P_s=np.eye(2))

    def test_equal_pair_is_zero(self, bench_cert, bench_w):
        x = random_invariant_state(bench_w, np.random.default_rng(1))
        assert lstm.v_s(bench_cert, x, x) == 0.0

    def test_identity_metric_unit_cell_error(self):
        cert = self._manual_cert()
        x_a = LstmState(np.array([1.0, 0.0]), np.zeros(2))
        x_b = LstmState(np.zeros(2), np.zeros(2))
        assert lstm.v_s(cert, x_a, x_b) == pytest.approx(1.0)

    def test_quadratic_form_oracle(self, bench_cert, bench_w):
        rng = np.random.default_rng(8)
        x_a = random_invariant_state(bench_w, rng)
        x_b = random_invariant_state(bench_w, rng)
        v = np.array([np.sqrt(np.sum((x_a.c - x_b.c) ** 2)),
                      np.sqrt(np.sum((x_a.h - x_b.h) ** 2))])
        assert lstm.v_s(bench_cert, x_a, x_b) == pytest.approx(
            float(np.sqrt(v @ bench_cert.P_s @ v)), abs=1e-12)

    def test_requires_lyapunov_data(self):
        cert = lstm.delta_iss_check(zero_net())
        x = LstmState(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            lstm.v_s(cert, x, x)


class TestWeightStorage:
    """W, U, b are stored once, stacked in GATES order; W_f ... b_c are views."""

    def test_stacks_in_gate_order(self, bench_w):
        for stack in ("W", "U", "b"):
            np.testing.assert_array_equal(
                getattr(bench_w, stack),
                np.concatenate([getattr(bench_w, f"{stack}_{g}") for g in lstm.GATES]))

    def test_item_write_updates_stack(self):
        w = small_net(seed=4, n=3)
        w.b_f[...] = 30.0
        np.testing.assert_array_equal(w.b[:3], 30.0)

    def test_in_place_update_scales_stack(self):
        w = small_net(seed=4, n=3)
        before = w.U.copy()
        w.U_o *= 200.0
        np.testing.assert_array_equal(w.U[6:9], 200.0 * before[6:9])
        np.testing.assert_array_equal(np.delete(w.U, np.s_[6:9], axis=0),
                                      np.delete(before, np.s_[6:9], axis=0))

    def test_attribute_assignment_writes_into_stack(self):
        w = small_net(seed=4, n=3, m=2)
        stack = w.W
        w.W_c = np.full((3, 2), 0.5)
        assert w.W is stack
        np.testing.assert_array_equal(w.W[9:], 0.5)

    def test_constructor_and_copy_own_their_arrays(self):
        w = small_net(seed=4, n=3)
        w2 = lstm.LstmWeights(*(getattr(w, name) for name in lstm.MATRIX_FIELDS))
        dup = w.copy()
        for name in lstm.PARAMETERS:
            for other in (w2, dup):
                assert not np.shares_memory(getattr(w, name), getattr(other, name))
        w.U *= 2.0
        w.W_y[...] = 7.0
        np.testing.assert_array_equal(dup.U, w2.U)
        np.testing.assert_array_equal(dup.W_y, w2.W_y)
        assert not np.array_equal(dup.U, w.U)
        assert (dup.u_max, dup.u_range, dup.y_range) == (w.u_max, w.u_range, w.y_range)


class TestSerialization:
    def test_round_trip(self, tmp_path, bench_w, bench_spec):
        path = tmp_path / "w.json"
        lstm.save_weights(bench_w, path, observer=bench_spec.to_dict())
        w2, obs = lstm.load_weights(path)
        for name in lstm.MATRIX_FIELDS:
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

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            lstm.LstmWeights(
                W_f=np.zeros((2, 1)), W_i=np.zeros((3, 1)), W_c=np.zeros((2, 1)),
                W_o=np.zeros((2, 1)), U_f=np.zeros((2, 2)), U_i=np.zeros((2, 2)),
                U_c=np.zeros((2, 2)), U_o=np.zeros((2, 2)), b_f=np.zeros(2),
                b_i=np.zeros(2), b_c=np.zeros(2), b_o=np.zeros(2),
                W_y=np.zeros((1, 2)), b_y=np.zeros(1))
