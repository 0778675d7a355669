"""Unit tests for excitation design, datasets and the penalized trainer."""

import multiprocessing
import re

import numpy as np
import pytest

from lstmpc import lstm, plant, sysid
from lstmpc.errors import TrainingError, UndefinedMetricError, UnphysicalStateError

from conftest import small_net


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


class TestLoss:
    def test_reduces_to_mse_without_penalties(self):
        w = small_net(seed=2, n=3)
        cfg = sysid.TrainConfig(lambda1=0.0, lambda2=0.0, washout=10, n_neurons=3)
        rng = np.random.default_rng(0)
        u = rng.uniform(-1, 1, 60)
        y = rng.uniform(-1, 1, 60)
        value, _, _ = sysid.loss(w, u, y, cfg)
        y_hat = sysid.predict(w, u)[:, 0]
        mse = np.mean((y_hat[10:] - y[10:]) ** 2)
        assert value == pytest.approx(mse, abs=1e-14)

    def test_perfect_predictor_leaves_reward_terms(self):
        w = small_net(seed=2, n=3)
        r1, r2 = lstm.jury_margins(w)
        assert r1 < 0 and r2 < 0
        cfg = sysid.TrainConfig(lambda1=0.03, lambda2=0.02, washout=5, n_neurons=3)
        u = np.random.default_rng(1).uniform(-1, 1, 40)
        y = sysid.predict(w, u)[:, 0]       # exact targets -> zero MSE
        value, _, margins = sysid.loss(w, u, y, cfg)
        assert value == pytest.approx(cfg.lambda2 * (r1 + r2), abs=1e-12)
        assert margins == pytest.approx((r1, r2))

    @staticmethod
    def _worst_gradient_error(w, u, y, cfg, eps=1e-5):
        """Largest relative gap between ``loss``'s gradient and central
        differences, over every parameter entry."""
        _, grads, _ = sysid.loss(w, u, y, cfg)
        worst = 0.0
        assert sorted(grads) == sorted(lstm.PARAMETERS)
        for name in lstm.PARAMETERS:
            arr = getattr(w, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _, _ = sysid.loss(w, u, y, cfg)
                arr[idx] = orig - eps
                lm, _, _ = sysid.loss(w, u, y, cfg)
                arr[idx] = orig
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
        _, r1, r2 = sysid._penalty_with_grads(w, cfg, grads)
        assert (r1, r2) == lstm.jury_margins(w)
        if scale == 0.5:
            assert r1 > 0.0

    def test_rejects_full_washout(self):
        w = small_net(seed=2, n=3)
        cfg = sysid.TrainConfig(washout=50, n_neurons=3)
        u = np.zeros(20)
        with pytest.raises(TrainingError):
            sysid.loss(w, u, u, cfg)


class TestTrain:
    def test_zero_epochs_returns_certified_init(self):
        ds = synthetic_dataset()
        init = small_net(seed=9, n=3)
        assert lstm.delta_iss_check(init).certified
        cfg = sysid.TrainConfig(epochs=0, n_neurons=3, washout=10)
        out = sysid.train(ds, cfg, init=init)
        for name in lstm.MATRIX_FIELDS:
            np.testing.assert_array_equal(getattr(out, name), getattr(init, name))

    def test_deterministic(self):
        ds = synthetic_dataset()
        cfg = sysid.TrainConfig(epochs=3, n_neurons=3, washout=10, seed=4)
        w1 = sysid.train(ds, cfg)
        w2 = sysid.train(ds, cfg)
        for name in lstm.MATRIX_FIELDS:
            np.testing.assert_array_equal(getattr(w1, name), getattr(w2, name))

    def test_output_is_certified(self):
        ds = synthetic_dataset()
        cfg = sysid.TrainConfig(epochs=3, n_neurons=3, washout=10, seed=4)
        w = sysid.train(ds, cfg)
        assert lstm.delta_iss_check(w).certified

    def test_margin_penalty_restores_certificate(self):
        # adversarial init with r1 > 0: a large penalty drives the margins down
        ds = synthetic_dataset()
        init = small_net(seed=1, n=3)
        init.U_c *= 14.0
        r1_0, _ = lstm.jury_margins(init)
        assert r1_0 > 0
        cfg = sysid.TrainConfig(epochs=1, n_neurons=3, washout=10, seed=4,
                                lambda1=5.0, learning_rate=5e-3,
                                extension_factor=200)
        seen = []
        w = sysid.train(ds, cfg, init=init,
                        callback=lambda ep, lv, m: seen.append(m[0]))
        assert lstm.jury_margins(w)[0] < 0
        first = seen[:3]
        assert all(b < a for a, b in zip(first, first[1:]))

    def test_fails_without_certificate(self):
        ds = synthetic_dataset()
        init = small_net(seed=1, n=3)
        init.U_c *= 14.0
        cfg = sysid.TrainConfig(epochs=1, n_neurons=3, washout=10, seed=4,
                                lambda1=0.0, lambda2=0.0, learning_rate=1e-6,
                                extension_factor=2)
        with pytest.raises(TrainingError):
            sysid.train(ds, cfg, init=init)


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sysid.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            sysid.TrainConfig(lambda1=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.nan),
        ("learning_rate", np.inf), ("extension_factor", 0), ("n_neurons", 0),
        ("washout", -1)])
    def test_config_rejects_values_that_train_wrongly(self, field, value):
        with pytest.raises(ValueError, match=field):
            sysid.TrainConfig(**{field: value})


class TestGenerateDataset:
    KWARGS = dict(seed=5, n_train=2, n_val=1, n_test=1, steps=40)

    def test_matches_serial_excitation(self):
        ds = sysid.generate_dataset(**self.KWARGS)
        params = plant.PhParams()
        for s, (u, y) in enumerate(ds.train + ds.val + ds.test):
            u_phi, y_phi = sysid._excite(params, 5 * 1000 + s, 40, plant.T_S, (10, 100))
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

    @pytest.mark.parametrize("sizes, message", [
        (dict(n_train=0), "n_train must be at least 1"),
        (dict(n_train=-1), "n_train must be at least 1"),
        (dict(n_val=-1), "n_val must be nonnegative"),
        (dict(n_test=-1), "n_test must be nonnegative"),
        (dict(n_train=10, n_val=-1, n_test=2), "n_val must be nonnegative"),
    ])
    def test_rejects_bad_sizes(self, sizes, message):
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
        w = small_net(seed=2, n=3)
        cfg = sysid.TrainConfig(washout=5, n_neurons=3)
        u = np.random.default_rng(3).uniform(-1, 1, 30)
        counts = self._count(monkeypatch, lstm, ("rollout", "adjoint"))
        sysid.loss(w, u, u, cfg)
        assert counts() == {"rollout": 1, "adjoint": 1}
