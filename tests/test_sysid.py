"""Unit tests for excitation design, datasets and the penalized trainer."""

import hashlib
import multiprocessing
import os
import re

import numpy as np
import pytest

from lstmpc import lstm, plant, sysid
from lstmpc.errors import DimensionError, TrainingError, UndefinedMetricError, UnphysicalStateError

from conftest import gate, small_net, with_arrays


def segment_lengths(trace):
    lengths = []
    run = 1
    for a, b in zip(trace, trace[1:]):
        if a == b:
            run += 1
        else:
            lengths.append(run)
            run = 1
    lengths.append(run)
    return lengths


def synthetic_dataset(seed=0, n_train=3, n_val=1, n_test=1, steps=120):
    """Small dataset from a random teacher network (no plant simulation)."""
    teacher = small_net(seed=seed + 100, n=3, scale=0.4)
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_train + n_val + n_test):
        u = generate_staircase(rng, steps)
        y = sysid.predict(teacher, u)[:, 0] + 0.01 * rng.normal(size=steps)
        seqs.append((u, y))
    nrm = plant.Normalizer(-1.0, 1.0, -1.0, 1.0)
    return sysid.Dataset(train=seqs[:n_train], val=seqs[n_train:n_train + n_val],
                         test=seqs[n_train + n_val:], normalizer=nrm)


def generate_staircase(rng, steps):
    return sysid.generate_excitation(rng, (-1.0, 1.0), (5, 15), steps)


class TestGenerateExcitation:
    def test_fixed_hold_segments(self):
        u = sysid.generate_excitation(0, (12.5, 17.0), (5, 5), 15)
        lengths = segment_lengths(u)
        assert lengths == [5, 5, 5]

    def test_deterministic(self):
        a = sysid.generate_excitation(42, (12.5, 17.0), (10, 100), 1500)
        b = sysid.generate_excitation(42, (12.5, 17.0), (10, 100), 1500)
        np.testing.assert_array_equal(a, b)

    def test_levels_inside_range(self):
        u = sysid.generate_excitation(3, (12.5, 17.0), (10, 100), 1500)
        assert u.min() >= 12.5 and u.max() <= 17.0

    def test_hold_length_distribution(self):
        # long trace: interior segment lengths roughly uniform over [10, 100]
        u = sysid.generate_excitation(7, (0.0, 1.0), (10, 100), 200_000)
        lengths = segment_lengths(u)[:-1]      # last segment is truncated
        lengths = np.asarray(lengths)
        assert lengths.min() >= 10 and lengths.max() <= 100
        assert np.mean(lengths) == pytest.approx(55.0, rel=0.05)
        lo_half = np.sum(lengths <= 55)
        assert lo_half / len(lengths) == pytest.approx(0.5, abs=0.05)

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            sysid.generate_excitation(0, (1.0, 0.0), (10, 100), 10)
        with pytest.raises(ValueError):
            sysid.generate_excitation(0, (0.0, 1.0), (10, 5), 10)
        with pytest.raises(ValueError):
            sysid.generate_excitation(0, (0.0, 1.0), (0, 5), 10)


def fresh_loss(w, u, y, cfg):
    """``sysid.loss`` in a workspace of the sequence's t - 1 steps, built for the call."""
    return sysid.loss(w, u, y, cfg, lstm.Workspace(w.n, w.m, max(len(u) - 1, 0)))


class TestLoss:
    def test_reduces_to_mse_without_penalties(self):
        w = small_net(seed=2, n=3)
        cfg = sysid.TrainConfig(lambda1=0.0, lambda2=0.0, washout=10, n_neurons=3)
        rng = np.random.default_rng(0)
        u = rng.uniform(-1, 1, 60)
        y = rng.uniform(-1, 1, 60)
        value, _ = fresh_loss(w, u, y, cfg)
        y_hat = sysid.predict(w, u)[:, 0]
        mse = np.mean((y_hat[10:] - y[10:]) ** 2)
        assert value == pytest.approx(mse, abs=1e-14)

    def test_perfect_predictor_leaves_reward_terms(self):
        w = small_net(seed=2, n=3)
        g = lstm.gate_bounds(w)
        r1, r2 = g.r1, g.r2
        assert r1 < 0 and r2 < 0
        cfg = sysid.TrainConfig(lambda1=0.03, lambda2=0.02, washout=5, n_neurons=3)
        u = np.random.default_rng(1).uniform(-1, 1, 40)
        y = sysid.predict(w, u)[:, 0]       # exact targets -> zero MSE
        value, _ = fresh_loss(w, u, y, cfg)
        assert value == pytest.approx(cfg.lambda2 * (r1 + r2), abs=1e-12)

    @staticmethod
    def _worst_gradient_error(w, u, y, cfg, eps=1e-5):
        """Largest relative gap between ``loss``'s gradient and central
        differences, over every parameter entry."""
        _, grads = fresh_loss(w, u, y, cfg)
        worst = 0.0
        assert sorted(grads) == sorted(lstm.PARAMETERS)
        for name in lstm.PARAMETERS:
            arr = getattr(w, name)
            for idx in np.ndindex(arr.shape):
                up, down = arr.copy(), arr.copy()
                up[idx] += eps
                down[idx] -= eps
                lp, _ = fresh_loss(with_arrays(w, **{name: up}), u, y, cfg)
                lm, _ = fresh_loss(with_arrays(w, **{name: down}), u, y, cfg)
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(grads[name][idx]), 1e-8)
                worst = max(worst, abs(fd - grads[name][idx]) / denom)
        return worst

    def test_gradient_matches_finite_differences(self):
        w = small_net(seed=5, n=3, scale=0.3)
        cfg = sysid.TrainConfig(lambda1=0.03, lambda2=0.02, washout=3, n_neurons=3)
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, 20)
        y = rng.uniform(-1, 1, 20)
        assert self._worst_gradient_error(w, u, y, cfg) < 1e-5

    def test_gradient_across_adjoint_blocks(self):
        # the adjoint forms its step Jacobians in blocks; span two and a half
        w = small_net(seed=5, n=3, scale=0.3)
        cfg = sysid.TrainConfig(lambda1=0.03, lambda2=0.02, washout=3, n_neurons=3)
        t = 5 * lstm._sweep_block(w.n, w.m) // 2 + 1
        rng = np.random.default_rng(3)
        u = generate_staircase(rng, t)
        y = rng.uniform(-1, 1, t)
        assert self._worst_gradient_error(w, u, y, cfg) < 1e-5

    @pytest.mark.parametrize("seed, n, scale", [(0, 3, 0.1), (1, 3, 0.3), (2, 4, 0.5),
                                                (3, 2, 0.2), (4, 5, 0.05)])
    def test_penalty_margins_match_certificate(self, seed, n, scale):
        # the training penalty takes (r1, r2) from lstm's certificate
        w = small_net(seed=seed, n=n, scale=scale)
        cfg = sysid.TrainConfig(n_neurons=n)
        grads = {name: np.zeros_like(getattr(w, name)) for name in ("W", "U", "b")}
        pen = sysid._penalty_with_grads(w, cfg, grads)
        g = lstm.gate_bounds(w)
        r1, r2 = g.r1, g.r2
        assert pen == (cfg.lambda1 * max(r1, 0.0) + cfg.lambda1 * max(r2, 0.0)
                       + cfg.lambda2 * min(r1, 0.0) + cfg.lambda2 * min(r2, 0.0))
        if scale == 0.5:
            assert r1 > 0.0

    def test_used_workspace_gives_the_fresh_loss(self, bench_w):
        # a training workspace that rejected a longer and a shorter sequence
        # and ran other weights gives, bit for bit, the loss of a workspace
        # built for the call
        cfg = sysid.TrainConfig(n_neurons=bench_w.n, washout=10)
        rng = np.random.default_rng(6)
        other = small_net(seed=4, n=bench_w.n, scale=0.3)
        workspace = lstm.Workspace(bench_w.n, bench_w.m, 249)
        u, y = generate_staircase(rng, 250), rng.uniform(-1, 1, 250)
        fresh = fresh_loss(bench_w, u, y, cfg)
        for net, steps in ((other, 400), (bench_w, 120)):
            with pytest.raises(DimensionError,
                               match=f"a sweep of {steps - 1} steps in a workspace of 249"):
                sysid.loss(net, generate_staircase(rng, steps), rng.uniform(-1, 1, steps), cfg,
                           workspace)
        sysid.loss(other, generate_staircase(rng, 250), rng.uniform(-1, 1, 250), cfg, workspace)
        used = sysid.loss(bench_w, u, y, cfg, workspace)
        assert repr(used[0]) == repr(fresh[0])
        assert {k: g.tobytes() for k, g in used[1].items()} == \
            {k: g.tobytes() for k, g in fresh[1].items()}

    def test_rejects_full_washout(self):
        w = small_net(seed=2, n=3)
        cfg = sysid.TrainConfig(washout=50, n_neurons=3)
        u = np.zeros(20)
        with pytest.raises(TrainingError):
            fresh_loss(w, u, u, cfg)


class TestTrain:
    def test_zero_epochs_returns_certified_init(self):
        ds = synthetic_dataset()
        init = small_net(seed=9, n=3)
        assert lstm.incremental_lyapunov(init).certified
        cfg = sysid.TrainConfig(epochs=0, n_neurons=3, washout=10)
        out = sysid.train(ds, cfg, init=init)
        for name in lstm.PARAMETERS:
            np.testing.assert_array_equal(getattr(out, name), getattr(init, name))

    def test_warm_start_takes_the_training_ranges(self, bench_w):
        # every update fits the weights to data normalized by the dataset's
        # normalizer, so the result carries its ranges, not the init's; the
        # zero-epoch return makes no update and keeps the init as it is
        ds = synthetic_dataset(n_train=1)
        nrm = ds.normalizer
        cfg = sysid.TrainConfig(epochs=1, n_neurons=bench_w.n, washout=10)
        w = sysid.train(ds, cfg, init=bench_w)
        assert (w.u_range, w.y_range) == ((nrm.u_lo, nrm.u_hi), (nrm.y_lo, nrm.y_hi))
        assert w.y_range != bench_w.y_range
        cfg = sysid.TrainConfig(epochs=0, n_neurons=bench_w.n, washout=10)
        assert sysid.train(ds, cfg, init=bench_w) is bench_w

    def test_deterministic(self):
        ds = synthetic_dataset()
        cfg = sysid.TrainConfig(epochs=3, n_neurons=3, washout=10, seed=4)
        w1 = sysid.train(ds, cfg)
        w2 = sysid.train(ds, cfg)
        for name in lstm.PARAMETERS:
            np.testing.assert_array_equal(getattr(w1, name), getattr(w2, name))

    def test_output_is_certified(self):
        ds = synthetic_dataset()
        cfg = sysid.TrainConfig(epochs=3, n_neurons=3, washout=10, seed=4)
        w = sysid.train(ds, cfg)
        assert lstm.incremental_lyapunov(w).certified

    def test_margin_penalty_restores_certificate(self):
        # adversarial init with r1 > 0: a large penalty drives the margins down
        ds = synthetic_dataset()
        net = small_net(seed=1, n=3)
        init = with_arrays(net, U_c=14.0 * gate(net, "U_c"))
        assert lstm.gate_bounds(init).r1 > 0
        cfg = sysid.TrainConfig(epochs=1, n_neurons=3, washout=10, seed=4,
                                lambda1=5.0, learning_rate=5e-3,
                                extension_factor=200)
        seen = []
        w = sysid.train(ds, cfg, init=init,
                        callback=lambda ep, lv, m: seen.append(m[0]))
        assert lstm.gate_bounds(w).r1 < 0
        first = seen[:3]
        assert all(b < a for a, b in zip(first, first[1:]))

    def test_reported_margins_are_those_of_the_returned_weights(self, bench_w):
        # the last callback's margins, which also decided the stop, describe
        # the weights train returns, after the epoch's last update
        ds = synthetic_dataset(n_train=2)
        cfg = sysid.TrainConfig(epochs=3, n_neurons=bench_w.n, washout=10,
                                learning_rate=1e-2)
        seen = []
        w = sysid.train(ds, cfg, init=bench_w, callback=lambda ep, lv, m: seen.append(m))
        g = lstm.gate_bounds(w)
        assert len(seen) >= 3
        assert seen[-1] == (g.r1, g.r2)
        assert g.r1 < 0 and g.r2 < 0

    def test_fails_without_certificate(self):
        ds = synthetic_dataset()
        net = small_net(seed=1, n=3)
        init = with_arrays(net, U_c=14.0 * gate(net, "U_c"))
        cfg = sysid.TrainConfig(epochs=1, n_neurons=3, washout=10, seed=4,
                                lambda1=0.0, lambda2=0.0, learning_rate=1e-6,
                                extension_factor=2)
        with pytest.raises(TrainingError):
            sysid.train(ds, cfg, init=init)

    def test_builds_one_workspace_whatever_the_epochs(self, monkeypatch):
        # counted by a spy, in exact numbers: four training sequences of
        # three lengths, one workspace per length, each of t - 1 steps, built
        # once per call
        ds = synthetic_dataset(n_train=4, steps=60)
        ds.train = [(u[:n], y[:n]) for (u, y), n in zip(ds.train, (60, 35, 60, 48))]
        built = []
        init = lstm.Workspace.__init__
        monkeypatch.setattr(lstm.Workspace, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        counts = []
        for epochs in (1, 3):
            built.clear()
            sysid.train(ds, sysid.TrainConfig(epochs=epochs, n_neurons=3, washout=10))
            counts.append(sorted(built))
        assert counts == [[(3, 1, 34), (3, 1, 47), (3, 1, 59)]] * 2

    # Training and FIT on sequences of two lengths, pinned: the weights'
    # sha256 over lstm.PARAMETERS and repr(FIT) that a trainer sweeping every
    # sequence in one workspace of the longest length gave.
    RAGGED_WEIGHTS = "56832f6e1d06cee5d8cc39d6445b7de9534d5674d5e145c0761a74fdc8c7d369"
    RAGGED_FIT = "84.0752533502743"

    def test_ragged_lengths_give_the_pinned_weights_and_fit(self, bench_w):
        # training and test splits of sequences of 400 and 300 samples,
        # warm-started from the shipped model
        ds = sysid.generate_dataset(seed=3, n_train=4, n_val=0, n_test=2, steps=400)
        ds.train, ds.test = ([(u[:t], y[:t]) for (u, y), t in zip(split, (400, 300, 400, 300))]
                             for split in (ds.train, ds.test))
        w = sysid.train(ds, sysid.TrainConfig(epochs=3, n_neurons=bench_w.n, seed=2),
                        init=bench_w)
        digest = hashlib.sha256(b"".join(getattr(w, name).tobytes()
                                         for name in lstm.PARAMETERS)).hexdigest()
        assert digest == self.RAGGED_WEIGHTS
        assert repr(sysid.evaluate_fit(w, ds.test)) == self.RAGGED_FIT

    # init_weights' draw, pinned by (seed, n, m, p): the sha256 over
    # lstm.PARAMETERS of the weights it returns
    INIT_WEIGHTS = {
        (0, 4, 2, 2): "3f1ab5f22b37d3b087d3c85f3b3d77576023fc8b4cf0d8b39d039ba32c918c3b",
        (3, 3, 1, 1): "fcc5bfedca4a5d5cfb031a1ff8dcbd01ae98a042df83abcdb54bd99fa5926bf9"}

    @pytest.mark.parametrize("seed, n, m, p", list(INIT_WEIGHTS))
    def test_init_weights_give_the_pinned_draw(self, seed, n, m, p):
        w = sysid.init_weights(sysid.TrainConfig(seed=seed, n_neurons=n), m=m, p=p)
        digest = hashlib.sha256(b"".join(getattr(w, name).tobytes()
                                         for name in lstm.PARAMETERS)).hexdigest()
        assert digest == self.INIT_WEIGHTS[seed, n, m, p]

    def test_non_finite_input_in_memory_names_epoch_and_sequence(self):
        # a Dataset built in memory skips load_dataset's check: the loss
        # rejects the forward pass, and train says where
        ds = synthetic_dataset()
        ds.train[1][0][5] = np.nan
        cfg = sysid.TrainConfig(epochs=1, n_neurons=3, washout=10)
        with pytest.raises(TrainingError,
                           match="^epoch 0, sequence 1: non-finite forward pass$"):
            sysid.train(ds, cfg)


class TestFitIndex:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0, 2.5])
        assert sysid.fit_index(y, y) == 100.0

    def test_mean_prediction(self):
        y = np.array([1.0, 2.0, 3.0, 2.0])
        assert sysid.fit_index(y, np.full(4, y.mean())) == pytest.approx(0.0)

    def test_hand_computed_value(self):
        y = np.array([0.0, 2.0])
        y_hat = np.array([0.0, 1.0])
        # ||err|| = 1, ||y - mean|| = sqrt(2) -> 100 (1 - 1/sqrt(2))
        assert sysid.fit_index(y, y_hat) == pytest.approx(
            100.0 * (1.0 - 1.0 / np.sqrt(2.0)))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            sysid.fit_index([1.0, 2.0], [1.0])

    def test_rejects_constant_reference(self):
        with pytest.raises(UndefinedMetricError):
            sysid.fit_index([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_evaluate_fit_rejects_no_sequences(self, tiny_w):
        with pytest.raises(UndefinedMetricError):
            sysid.evaluate_fit(tiny_w, [])


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        ds = synthetic_dataset(seed=3)
        sysid.save_dataset(ds, tmp_path / "ds")
        ds2 = sysid.load_dataset(tmp_path / "ds")
        assert len(ds2.train) == len(ds.train)
        assert len(ds2.val) == len(ds.val)
        assert len(ds2.test) == len(ds.test)
        for (u1, y1), (u2, y2) in zip(ds.train + ds.val + ds.test,
                                      ds2.train + ds2.val + ds2.test):
            np.testing.assert_allclose(u1, u2, atol=1e-12)
            np.testing.assert_allclose(y1, y2, atol=1e-12)
        assert ds2.normalizer == ds.normalizer

    @pytest.mark.parametrize("name, row, column, value", [
        ("seq_001.csv", 3, 2, "nan"), ("seq_004.csv", 0, 1, "-inf")], ids=["train-y", "test-u"])
    def test_rejects_non_finite_sample(self, tmp_path, name, row, column, value):
        # in a training file it would fail training with a misleading
        # message, in a test file it would make the test FIT nan
        sysid.save_dataset(synthetic_dataset(seed=3), tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        cells = lines[row + 1].split(",")
        cells[column] = value
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{name} line {row + 2} must be a finite (u_raw, y_raw) pair, got [")):
            sysid.load_dataset(tmp_path)

    def test_one_row_file_loads_as_one_sample(self, tmp_path):
        ds = synthetic_dataset(seed=3)
        sysid.save_dataset(ds, tmp_path)
        path = tmp_path / "seq_000.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        u, y = sysid.load_dataset(tmp_path).train[0]
        assert u.shape == y.shape == (1,)
        np.testing.assert_allclose([u[0], y[0]], [ds.train[0][0][0], ds.train[0][1][0]],
                                   atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sysid.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            sysid.TrainConfig(lambda1=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.nan),
        ("learning_rate", np.inf), ("extension_factor", 0), ("n_neurons", 0),
        ("washout", -1), ("lambda1", np.nan), ("lambda2", np.nan), ("epochs", 1.5),
        ("epochs", True), ("n_neurons", 2.5), ("washout", 0.5), ("init_scale", np.nan),
        ("extension_factor", True), ("seed", -1)])
    def test_config_rejects_values_that_train_wrongly(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            sysid.TrainConfig(**{field: value})


class TestGenerateDataset:
    KWARGS = dict(seed=5, n_train=2, n_val=1, n_test=1, steps=40)

    def test_matches_serial_excitation(self):
        self._assert_serial(sysid.generate_dataset(**self.KWARGS))

    def test_pool_takes_the_cpus_the_process_may_run_on(self, monkeypatch):
        # under an affinity of one CPU, os.cpu_count() still counts the
        # machine's: the pool takes the affinity's one worker
        import concurrent.futures

        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        self._assert_serial(sysid.generate_dataset(**self.KWARGS))
        assert pools == [1]

    @staticmethod
    def _assert_serial(ds):
        """``ds``, of ``KWARGS``, equals a serial run of its sequences."""
        params = plant.PhParams()
        for s, (u, y) in enumerate(ds.train + ds.val + ds.test):
            u_phi, y_phi = sysid._excite(params, 5 * 1000 + s, 40)
            np.testing.assert_array_equal(u_phi, sysid.generate_excitation(
                5 * 1000 + s, plant.U_PHI_RANGE, (10, 100), 40))
            np.testing.assert_array_equal(u, ds.normalizer.normalize_u(u_phi))
            np.testing.assert_array_equal(y, ds.normalizer.normalize_y(y_phi))
        assert [len(ds.train), len(ds.val), len(ds.test)] == [2, 1, 1]
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller(self, monkeypatch):
        original = plant.plant_step
        # the first level of sequence 2 only
        level = sysid.generate_excitation(5 * 1000 + 2, plant.U_PHI_RANGE, (10, 100), 40)[0]

        def failing(params, x, u_phi, d_phi, t_s):
            if u_phi == level:
                raise UnphysicalStateError(f"injected at u_phi = {u_phi!r}")
            return original(params, x, u_phi, d_phi, t_s)

        monkeypatch.setattr(plant, "plant_step", failing)
        with pytest.raises(UnphysicalStateError, match=re.escape(f"injected at u_phi = {level!r}")):
            sysid.generate_dataset(**self.KWARGS)
        assert multiprocessing.active_children() == []

    # each is rejected before the pool starts: a float size would end in a
    # TypeError there or inside the workers
    @pytest.mark.parametrize("sizes, message", [
        (dict(n_train=0), "n_train must be a positive integer"),
        (dict(n_train=-1), "n_train must be a positive integer"),
        (dict(n_val=-1), "n_val must be a nonnegative integer"),
        (dict(n_test=-1), "n_test must be a nonnegative integer"),
        (dict(n_train=10, n_val=-1, n_test=2), "n_val must be a nonnegative integer"),
        (dict(n_train=1.5), "n_train must be a positive integer"),
        (dict(n_val=1.0), "n_val must be a nonnegative integer"),
        (dict(steps=2.5), "steps must be a positive integer"),
        (dict(steps=0), "steps must be a positive integer"),
    ], ids=["n_train-zero", "n_train-negative", "n_val-negative", "n_test-negative",
            "n_val-negative-among-valid", "n_train-float", "n_val-float", "steps-float",
            "steps-zero"])
    def test_rejects_bad_sizes(self, sizes, message, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context", None)
        with pytest.raises(ValueError, match=message):
            sysid.generate_dataset(**{**self.KWARGS, **sizes})


class TestHookPoints:
    """The identification pipeline calls the plant and the cell kernel
    through their module attributes, so a wrapper installed there (as the
    benchmark's spans and clock samples are) sees every call."""

    @staticmethod
    def _count(monkeypatch, owner, names):
        """Wrap each function to count its calls in shared memory, so that
        calls made in the dataset's forked workers count too; returns a
        reader of the counts."""
        counts = {name: multiprocessing.Value("q", 0) for name in names}
        for name in names:
            original = getattr(owner, name)

            def counted(*args, _count=counts[name], _original=original, **kwargs):
                with _count.get_lock():
                    _count.value += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return lambda: {name: c.value for name, c in counts.items()}

    def test_dataset_calls_plant_once_per_sample(self, monkeypatch):
        counts = self._count(monkeypatch, plant, ("plant_step", "measure_ph"))
        sysid.generate_dataset(seed=5, n_train=2, n_val=1, n_test=1, steps=40)
        assert counts() == {"plant_step": 4 * 40, "measure_ph": 4 * 40}

    def test_loss_runs_one_rollout_and_one_adjoint(self, monkeypatch):
        # a workspace's forward and reverse loops, once each per loss, in a
        # new workspace of the sequence's length and again in the same one
        w = small_net(seed=2, n=3)
        cfg = sysid.TrainConfig(washout=5, n_neurons=3)
        u = np.random.default_rng(3).uniform(-1, 1, 30)
        forward = self._count(monkeypatch, lstm.Workspace, ("rollout",))
        reverse = self._count(monkeypatch, lstm, ("_adjoint",))
        seen = []
        workspace = lstm.Workspace(w.n, w.m, 29)
        for _ in range(2):
            sysid.loss(w, u, u, cfg, workspace)
            seen.append({**forward(), **reverse()})
        assert seen == [{"rollout": 1, "_adjoint": 1}, {"rollout": 2, "_adjoint": 2}]

    def test_train_calls_loss_through_the_module(self, monkeypatch):
        # once per training sequence per epoch, each call in the one workspace
        # of the sequences' one length
        ds = synthetic_dataset(n_train=3, steps=40)
        cfg = sysid.TrainConfig(epochs=2, n_neurons=3, washout=10)
        workspaces = []
        loss = sysid.loss
        monkeypatch.setattr(sysid, "loss", lambda *args: workspaces.append(args[4]) or loss(*args))
        epochs = []
        sysid.train(ds, cfg, callback=lambda ep, lv, m: epochs.append(ep))
        assert epochs == [0, 1]
        assert len(workspaces) == 2 * 3
        assert isinstance(workspaces[0], lstm.Workspace)
        assert all(ws is workspaces[0] for ws in workspaces)
