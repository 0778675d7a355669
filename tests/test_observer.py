"""Unit tests for the disturbance-augmented model and its observer."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lstmpc import lstm, numerics, observer
from lstmpc.errors import (DimensionError, DomainViolationError, GainSelectionError,
                           InstabilityError)
from lstmpc.lstm import LstmState
from lstmpc.observer import AugmentedState

from conftest import (gate, induced_inf_norm, random_invariant_state, small_net, with_arrays,
                      zero_net)


def make_spec(w, d_max=0.1, l_d=0.1, **kw):
    return observer.derive_constants(w, observer.select_gains(w, d_max, l_d, 0.0), **kw)


def random_augmented(w, rng, d_max):
    return AugmentedState(random_invariant_state(w, rng),
                          rng.uniform(-d_max, d_max, w.p))


class TestAugmentedModel:
    def test_zero_increment_keeps_d(self, tiny_w):
        chi = AugmentedState(tiny_w.zero_state(), np.array([0.05]))
        nxt = observer.augmented_step(tiny_w, chi, [0.2], lstm.Workspace(tiny_w.n, 1, 1),
                                      w_k=np.zeros(1), d_max=0.1)
        np.testing.assert_array_equal(nxt.d, chi.d)

    def test_pure_integrator(self):
        w = zero_net()
        chi = AugmentedState(w.zero_state(), np.zeros(1))
        cell = lstm.Workspace(w.n, w.m, 1)
        for _ in range(7):
            chi = observer.augmented_step(w, chi, [0.0], cell, w_k=[1e-3], d_max=0.1)
        assert chi.d[0] == pytest.approx(7e-3, abs=1e-15)

    def test_rejects_domain_violation(self, tiny_w):
        chi = AugmentedState(tiny_w.zero_state(), np.array([0.09]))
        with pytest.raises(DomainViolationError):
            observer.augmented_step(tiny_w, chi, [0.0], lstm.Workspace(tiny_w.n, 1, 1),
                                    w_k=[0.05], d_max=0.1)

    def test_output_adds_disturbance(self, tiny_w):
        chi = AugmentedState(tiny_w.zero_state(), np.array([0.07]))
        np.testing.assert_allclose(observer.augmented_output(tiny_w, chi),
                                   lstm.output(tiny_w, chi.x) + 0.07)


class TestObserverStep:
    def test_zero_innovation_is_open_loop(self, bench_w, bench_spec, bench_cell):
        rng = np.random.default_rng(0)
        chi = random_augmented(bench_w, rng, bench_spec.d_max)
        u = rng.uniform(-1, 1, bench_w.m)
        y = observer.augmented_output(bench_w, chi)    # consistent measurement
        nxt = observer.observer_step(bench_w, bench_spec, chi, u, y, bench_cell)
        ref = observer.augmented_step(bench_w, chi, u, bench_cell)
        np.testing.assert_allclose(nxt.x.c, ref.x.c, atol=1e-14)
        np.testing.assert_allclose(nxt.x.h, ref.x.h, atol=1e-14)
        np.testing.assert_allclose(nxt.d, ref.d, atol=1e-14)

    def test_suboptimal_gains_integrate_innovation(self, bench_w, bench_cell):
        l_d = 0.25
        spec = make_spec(bench_w, l_d=l_d)
        rng = np.random.default_rng(1)
        chi = random_augmented(bench_w, rng, 0.05)
        u = rng.uniform(-1, 1, bench_w.m)
        y = observer.augmented_output(bench_w, chi) + 0.03
        nxt = observer.observer_step(bench_w, spec, chi, u, y, bench_cell)
        # state evolves open loop, d integrates l_d * innovation
        ref = lstm.step(bench_w, chi.x, u, bench_cell)
        np.testing.assert_allclose(nxt.x.c, ref.c, atol=1e-14)
        np.testing.assert_allclose(nxt.x.h, ref.h, atol=1e-14)
        assert nxt.d[0] == pytest.approx(chi.d[0] + l_d * 0.03, abs=1e-12)

    def test_innovation_enters_f_i_o_gates_only(self, bench_w, bench_cell):
        n, p = bench_w.n, bench_w.p
        rng = np.random.default_rng(6)
        spec = observer.ObserverSpec(
            L_f=rng.normal(0.0, 0.5, (n, p)), L_i=rng.normal(0.0, 0.5, (n, p)),
            L_o=rng.normal(0.0, 0.5, (n, p)), L_d=0.2 * np.eye(p), d_max=0.1)
        chi = random_augmented(bench_w, rng, 0.05)
        u = rng.uniform(-1, 1, bench_w.m)
        y = observer.augmented_output(bench_w, chi) + rng.uniform(-0.2, 0.2, p)
        nxt = observer.observer_step(bench_w, spec, chi, u, y, bench_cell)
        w, x = bench_w, chi.x
        innov = y - (w.W_y @ x.h + w.b_y + chi.d)

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        f = sig(gate(w, "W_f") @ u + gate(w, "U_f") @ x.h + gate(w, "b_f") + spec.L_f @ innov)
        i = sig(gate(w, "W_i") @ u + gate(w, "U_i") @ x.h + gate(w, "b_i") + spec.L_i @ innov)
        g = np.tanh(gate(w, "W_c") @ u + gate(w, "U_c") @ x.h + gate(w, "b_c"))
        o = sig(gate(w, "W_o") @ u + gate(w, "U_o") @ x.h + gate(w, "b_o") + spec.L_o @ innov)
        c_next = f * x.c + i * g
        np.testing.assert_allclose(nxt.x.c, c_next, rtol=0, atol=1e-14)
        np.testing.assert_allclose(nxt.x.h, o * np.tanh(c_next), rtol=0, atol=1e-14)
        np.testing.assert_allclose(nxt.d, chi.d + 0.2 * innov, rtol=0, atol=1e-14)

    def test_disturbance_saturation(self, bench_w, bench_spec, bench_cell):
        chi = AugmentedState(bench_w.zero_state(), np.array([0.09]))
        y = observer.augmented_output(bench_w, chi) + 100.0
        nxt = observer.observer_step(bench_w, bench_spec, chi, np.zeros(1), y, bench_cell)
        assert nxt.d[0] == bench_spec.d_max

    def test_invariance_of_hatted_sets(self, bench_w, bench_spec, bench_cell):
        # observer states driven by plant-consistent measurements stay in
        # the hatted invariant set
        g = lstm.gate_bounds(bench_w)
        rng = np.random.default_rng(5)
        c_rad_hat = bench_spec.cell_radius_hat
        for _ in range(200):
            chi_true = random_augmented(bench_w, rng, bench_spec.d_max)
            chi_hat = AugmentedState(
                LstmState(rng.uniform(-c_rad_hat, c_rad_hat, bench_w.n),
                          rng.uniform(-1, 1, bench_w.n)),
                rng.uniform(-0.1, 0.1, bench_w.p))
            for _ in range(50):
                u = rng.uniform(-1, 1, bench_w.m)
                y = observer.augmented_output(bench_w, chi_true)
                chi_hat = observer.observer_step(bench_w, bench_spec, chi_hat, u, y,
                                                 bench_cell)
                chi_true = observer.augmented_step(bench_w, chi_true, u, bench_cell)
                assert np.max(np.abs(chi_hat.x.c)) <= c_rad_hat + 1e-12
                assert np.max(np.abs(chi_hat.d)) <= bench_spec.d_max


class TestObserverMatrices:
    def test_zero_gains_embed_model_contraction(self, bench_w):
        spec = make_spec(bench_w, l_d=0.3)
        cert = lstm.incremental_lyapunov(bench_w)
        np.testing.assert_array_equal(spec.A_d[:2, :2], cert.A_delta)
        # exactly, on seeded nets of every size, certified or not
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, m, p = int(rng.integers(2, 13)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
            w = small_net(seed=seed, n=n, m=m, p=p, scale=float(rng.uniform(0.05, 3.0)))
            zero = np.zeros((n, p))
            a_d = observer.observer_matrices(w, observer.ObserverSpec(
                L_f=zero, L_i=zero, L_o=zero, L_d=0.3 * np.eye(p), d_max=0.1))
            np.testing.assert_array_equal(a_d[:2, :2], lstm.gate_bounds(w).gains,
                                          err_msg=f"seed {seed}")
        np.testing.assert_allclose(spec.A_d[:2, 2], 0.0, atol=1e-15)
        assert spec.A_d[2, 0] == 0.0
        assert spec.A_d[2, 1] == pytest.approx(
            0.3 * np.linalg.norm(bench_w.W_y, 2), abs=1e-12)
        assert spec.A_d[2, 2] == pytest.approx(0.7, abs=1e-12)
        # spectrum = model spectrum + {|1 - l_d|}
        eigs = sorted(np.abs(np.linalg.eigvals(spec.A_d)))
        model_eigs = sorted(np.abs(np.linalg.eigvals(cert.A_delta)))
        np.testing.assert_allclose(sorted(model_eigs + [0.7]), eigs, atol=1e-10)

    def test_unit_ld_kills_third_eigenvalue(self, bench_w):
        spec = make_spec(bench_w, l_d=1.0)
        eigs = np.abs(np.linalg.eigvals(spec.A_d))
        assert np.min(eigs) == pytest.approx(0.0, abs=1e-12)


def hand_certificate(w, spec):
    """A_d's top two rows, L_mat and the hatted cell radius, term by term."""
    two, inf = numerics.induced_two_norm, induced_inf_norm

    def hat_sigma(w_in, u_rec, b, l_gain):
        # model block and innovation columns summed apart, then added
        lw = l_gain @ w.W_y
        model = np.abs(np.hstack([w_in * w.u_max, u_rec - lw, b.reshape(-1, 1)])).sum(axis=1)
        gain = np.abs(np.hstack([lw, l_gain * spec.d_max, l_gain * spec.d_max])).sum(axis=1)
        return float(lstm.sigmoid(np.max(model + gain)))

    sf = hat_sigma(gate(w, "W_f"), gate(w, "U_f"), gate(w, "b_f"), spec.L_f)
    si = hat_sigma(gate(w, "W_i"), gate(w, "U_i"), gate(w, "b_i"), spec.L_i)
    so = hat_sigma(gate(w, "W_o"), gate(w, "U_o"), gate(w, "b_o"), spec.L_o)
    sc = float(np.tanh(inf(np.hstack([gate(w, "W_c") * w.u_max, gate(w, "U_c"),
                                      gate(w, "b_c").reshape(-1, 1)]))))
    c_rad = si * sc / (1.0 - sf)
    g_bar = 0.25 * float(np.tanh(c_rad))
    a_hat = 0.25 * c_rad * two(gate(w, "U_f") - spec.L_f @ w.W_y) + si * two(gate(w, "U_c")) \
        + 0.25 * sc * two(gate(w, "U_i") - spec.L_i @ w.W_y)
    b_hat = 0.25 * c_rad * two(spec.L_f) + 0.25 * sc * two(spec.L_i)
    top = np.array([
        [sf, a_hat, b_hat],
        [so * sf, so * a_hat + g_bar * two(gate(w, "U_o") - spec.L_o @ w.W_y),
         so * b_hat + g_bar * two(spec.L_o)],
    ])
    a_bar = 0.25 * c_rad * two(spec.L_f @ w.W_y) + 0.25 * sc * two(spec.L_i @ w.W_y)
    b_bar = 0.25 * c_rad * two(spec.L_f) + 0.25 * sc * two(spec.L_i)
    l_mat = np.array([
        [0.0, a_bar, b_bar],
        [0.0, g_bar * two(spec.L_o @ w.W_y) + so * a_bar, g_bar * two(spec.L_o) + so * b_bar],
        [0.0, two(spec.L_d @ w.W_y), two(spec.L_d)],
    ])
    return top, l_mat, c_rad


class TestCertificateOracle:
    """A_d's top rows and L_mat come from lstm.increment_gains with
    (U - L W_y, L) and (L W_y, L); they equal the hand formulas exactly."""

    @staticmethod
    def check(w, spec):
        top, l_mat, c_rad = hand_certificate(w, spec)
        np.testing.assert_array_equal(spec.A_d[:2], top)
        np.testing.assert_array_equal(spec.L_mat, l_mat)
        assert spec.cell_radius_hat == c_rad

    def test_shipped_spec(self, bench_w, bench_spec):
        self.check(bench_w, bench_spec)

    @pytest.mark.parametrize("seed, net", [(s, "bench") for s in range(6)]
                             + [(6, "small"), (7, "small")])
    def test_seeded_injection_gains(self, bench_w, seed, net):
        w = bench_w if net == "bench" else small_net(seed=seed, n=3, m=2, p=2)
        rng = np.random.default_rng(seed)
        n, p, scale = w.n, w.p, 0.002 if net == "bench" else 0.05   # rho(A_d) < 1
        spec = observer.ObserverSpec(
            L_f=rng.normal(0.0, scale, (n, p)), L_i=rng.normal(0.0, scale, (n, p)),
            L_o=rng.normal(0.0, scale, (n, p)), L_d=rng.uniform(0.2, 1.0) * np.eye(p),
            d_max=0.1)
        spec = observer.derive_constants(w, spec)
        assert all(np.all(g != 0.0) for g in (spec.L_f, spec.L_i, spec.L_o))
        self.check(w, spec)


class TestSelectGains:
    def test_returns_underived_suboptimal_gains(self, bench_w):
        # the gains and settings alone: the constants come with the model, from
        # derive_constants
        spec = observer.select_gains(bench_w, d_max=0.08, l_d=0.3, w_bar=0.005)
        assert type(spec) is observer.ObserverSpec
        assert [f.name for f in dataclasses.fields(spec)] == [
            "L_f", "L_i", "L_o", "L_d", "d_max", "w_bar", "injection"]
        assert not hasattr(spec, "A_d") and not hasattr(spec, "P_o")
        for name in ("L_f", "L_i", "L_o"):
            np.testing.assert_array_equal(getattr(spec, name), np.zeros((bench_w.n, bench_w.p)))
        np.testing.assert_array_equal(spec.L_d, 0.3 * np.eye(bench_w.p))
        assert (spec.d_max, spec.w_bar) == (0.08, 0.005)

    def test_suboptimal_spectral_radius(self, bench_w):
        spec = make_spec(bench_w, l_d=0.1)
        cert = lstm.incremental_lyapunov(bench_w)
        assert numerics.spectral_radius(spec.A_d) == pytest.approx(
            max(cert.rho_A, 0.9), abs=1e-10)

    def test_rejects_ld_out_of_range(self, bench_w):
        with pytest.raises(GainSelectionError):
            make_spec(bench_w, l_d=2.5)
        with pytest.raises(GainSelectionError):
            make_spec(bench_w, l_d=0.0)

    def test_rejects_uncertified_model(self):
        net = small_net(seed=1, n=3)
        w = with_arrays(net, b_f=30.0, U_o=200.0 * gate(net, "U_o"))
        with pytest.raises(GainSelectionError):
            make_spec(w)

    def test_saturated_forget_gate_is_typed(self, bench_w):
        # the model's own bound saturates, or only the hatted one that the
        # injection widens
        w = with_arrays(bench_w, b_f=40.0)
        with pytest.raises(InstabilityError, match="^sigma_f"):
            make_spec(w)
        assert lstm.gate_bounds(bench_w).sigma_f < 1.0
        spec = dataclasses.replace(observer.select_gains(bench_w),
                                   L_f=np.full((bench_w.n, bench_w.p), 100.0))
        with pytest.raises(InstabilityError, match="^sigma_f"):
            observer.derive_constants(bench_w, spec)


class TestDeriveConstants:
    def test_lyapunov_and_norm_constants(self, bench_w, bench_spec):
        spec = bench_spec
        np.testing.assert_allclose(
            spec.A_d.T @ spec.P_o @ spec.A_d - spec.P_o, -1000.0 * np.eye(3),
            atol=1e-6)
        lam = np.linalg.eigvalsh(spec.P_o)
        assert spec.c_ol == pytest.approx(np.sqrt(lam[0]), abs=1e-9)
        assert spec.c_ou == pytest.approx(np.sqrt(lam[-1]), abs=1e-9)
        assert spec.rho_o == pytest.approx(np.sqrt(1 - 1000.0 / lam[-1]), abs=1e-12)
        w_y_bar = np.hstack([np.zeros((bench_w.p, bench_w.n)), bench_w.W_y,
                             np.eye(bench_w.p)])
        np.testing.assert_allclose(
            spec.c_o, np.linalg.norm(w_y_bar, axis=1) / np.sqrt(lam[0]), atol=1e-12)
        assert spec.L_max == pytest.approx(
            np.linalg.norm(spec.L_mat, 2) / np.sqrt(lam[0]), abs=1e-12)

    def test_w_bar_defaults_to_zero(self, bench_w):
        spec = make_spec(bench_w)
        assert (spec.w_bar, spec.w_max) == (0.0, 0.0)
        zero = np.zeros((bench_w.n, bench_w.p))
        assert observer.ObserverSpec(L_f=zero, L_i=zero, L_o=zero, L_d=np.eye(bench_w.p),
                                     d_max=0.1).w_bar == 0.0

    def test_configured_w_bar_overrides(self, bench_w):
        assert make_spec(bench_w, w_bar=0.01).w_bar == 0.01
        # the spec's own w_bar is the setting; the keyword overrides it
        gains = observer.select_gains(bench_w, w_bar=0.01)
        assert observer.derive_constants(bench_w, gains).w_bar == 0.01
        assert observer.derive_constants(bench_w, gains, w_bar=0.02).w_bar == 0.02

    def test_w_max_is_the_increment_w_bar_certifies(self, bench_w, bench_spec):
        # by the triangle inequality in the P_o metric: w_bar = sqrt(P_o[2, 2]) w_max,
        # and P_o does not depend on w_bar
        assert bench_spec.w_max == bench_spec.w_bar / np.sqrt(bench_spec.P_o[2, 2])
        assert bench_spec.w_max == pytest.approx(1.378e-4, abs=1e-7)
        for w_bar in (0.0, 0.005, 0.1451):
            spec = make_spec(bench_w, w_bar=w_bar)
            np.testing.assert_array_equal(spec.P_o, make_spec(bench_w).P_o)
            assert spec.w_max == pytest.approx(w_bar / np.sqrt(spec.P_o[2, 2]), rel=1e-15)

    @pytest.mark.parametrize("l_d", [0.05, 0.1, 0.2, 0.3, 0.5])
    @pytest.mark.parametrize("net", ["bench", "small"])
    def test_error_dynamics_and_metric_are_nonnegative(self, bench_w, net, l_d):
        # the premise of the w_max bound: the error update is componentwise at most
        # A_d e + [0, 0, |w|] with A_d >= 0, so P_o = sum (A_d^T)^k 1000 A_d^k >= 0
        w = bench_w if net == "bench" else small_net(seed=4, n=4)
        spec = make_spec(w, l_d=l_d)
        assert np.all(spec.A_d >= 0.0)
        assert np.all(spec.P_o >= 0.0)

    def test_section_w_bar_is_kept(self, bench):
        # a section's w_bar is its setting; a section without one certifies no increment
        w, obs_doc = bench
        section = {**obs_doc, "w_bar": 0.01}
        spec = observer.derive_constants(w, observer.ObserverSpec.from_dict(section))
        assert spec.w_bar == 0.01
        without = {k: v for k, v in obs_doc.items() if k != "w_bar"}
        assert observer.ObserverSpec.from_dict(without).w_bar == 0.0
        spec = observer.derive_constants(w, observer.ObserverSpec.from_dict(without))
        assert (spec.w_bar, spec.w_max) == (0.0, 0.0)

    def test_rederive_after_gain_change_matches_fresh(self, bench_w):
        # a derived spec's constants are formed from its gains and the model, so
        # changing L_d without the model cannot leave a stale A_d or rho_o behind;
        # with it, or through derive_constants, they are formed afresh
        derived, l_d = make_spec(bench_w, l_d=0.1), 0.5 * np.eye(bench_w.p)
        with pytest.raises(ValueError, match="InitVar 'w' must be specified"):
            dataclasses.replace(derived, L_d=l_d)
        gains = dataclasses.replace(observer.select_gains(bench_w, l_d=0.1, w_bar=0.0), L_d=l_d)
        fresh = make_spec(bench_w, l_d=0.5)
        assert fresh.rho_o != derived.rho_o
        for spec in (dataclasses.replace(derived, L_d=l_d, w=bench_w),
                     observer.derive_constants(bench_w, gains)):
            for name in ("A_d", "P_o", "c_o", "L_mat"):
                np.testing.assert_array_equal(getattr(spec, name), getattr(fresh, name))
            for name in ("rho_o", "c_ol", "c_ou", "L_max", "w_bar"):
                assert getattr(spec, name) == getattr(fresh, name)

    def test_spec_copies_the_callers_gains(self, bench_w):
        n, p = bench_w.n, bench_w.p
        gains = {name: np.zeros((n, p)) for name in ("L_f", "L_i", "L_o")}
        l_d = 0.1 * np.eye(p)
        spec = observer.ObserverSpec(**gains, L_d=l_d, d_max=0.1)
        derived = observer.derive_constants(bench_w, spec)
        before = derived.A_d.copy()
        gains["L_f"][0, 0] = 5.0
        l_d[0, 0] = 0.9
        np.testing.assert_array_equal(spec.L_f, 0.0)
        assert spec.L_d[0, 0] == 0.1
        np.testing.assert_array_equal(observer.derive_constants(bench_w, spec).A_d, before)

    def test_benchmark_observer_rate(self, bench_spec):
        # the published experiment reports 0.97 for this Q_o regime
        assert bench_spec.rho_o == pytest.approx(0.97, abs=0.05)


class TestVo:
    def test_equal_pair_is_zero(self, bench_w, bench_spec):
        chi = random_augmented(bench_w, np.random.default_rng(0), 0.1)
        assert observer.v_o(bench_spec, chi, chi) == 0.0

    def test_identity_metric_unit_d_error(self, bench_w):
        # a unit disturbance error alone weighs sqrt(P_o[2, 2]); in the identity metric, 1
        spec = make_spec(bench_w)
        x = bench_w.zero_state()
        a = AugmentedState(x, np.array([1.0]))
        b = AugmentedState(x.copy(), np.array([0.0]))
        assert observer.v_o(spec, a, b) == pytest.approx(np.sqrt(spec.P_o[2, 2]), rel=1e-15)
        assert observer.v_o(SimpleNamespace(P_o=np.eye(3)), a, b) == pytest.approx(1.0)

    def test_quadratic_form_oracle(self, bench_w, bench_spec):
        rng = np.random.default_rng(2)
        a = random_augmented(bench_w, rng, 0.1)
        b = random_augmented(bench_w, rng, 0.1)
        e = np.array([np.sqrt(np.sum((a.x.c - b.x.c) ** 2)),
                      np.sqrt(np.sum((a.x.h - b.x.h) ** 2)),
                      abs(a.d[0] - b.d[0])])
        assert observer.v_o(bench_spec, a, b) == pytest.approx(
            float(np.sqrt(e @ bench_spec.P_o @ e)), abs=1e-12)

    def test_requires_lyapunov_data(self, bench_w):
        # gains alone carry no metric: P_o exists only on a derived spec
        spec = observer.ObserverSpec(L_f=np.zeros((bench_w.n, 1)),
                                     L_i=np.zeros((bench_w.n, 1)),
                                     L_o=np.zeros((bench_w.n, 1)),
                                     L_d=np.eye(1), d_max=0.1)
        chi = AugmentedState(bench_w.zero_state(), np.zeros(1))
        with pytest.raises(AttributeError, match="P_o"):
            observer.v_o(spec, chi, chi)
        assert observer.v_o(observer.derive_constants(bench_w, spec), chi, chi) == 0.0


class TestSpecInputs:
    """ObserverSpec checks d_max and that its gains agree with each other on
    construction and forms the injection matrix every observer step reads;
    derive_constants and observer_step reject what they cannot use."""

    @staticmethod
    def _gains(w, **change):
        n, p = w.n, w.p
        gains = {"L_f": np.zeros((n, p)), "L_i": np.zeros((n, p)),
                 "L_o": np.zeros((n, p)), "L_d": 0.1 * np.eye(p), "d_max": 0.1}
        return {**gains, **change}

    @pytest.mark.parametrize("d_max", [0.0, -0.1, np.inf, np.nan])
    def test_rejects_nonpositive_d_max(self, bench_w, d_max):
        with pytest.raises(ValueError, match="d_max"):
            observer.ObserverSpec(**self._gains(bench_w, d_max=d_max))

    def test_injection_stacks_the_gains_in_gate_order(self, bench_w):
        rng = np.random.default_rng(5)
        n, p = bench_w.n, bench_w.p
        l_f, l_i, l_o = rng.normal(size=(3, n, p))
        spec = observer.ObserverSpec(**self._gains(bench_w, L_f=l_f, L_i=l_i, L_o=l_o))
        blocks = dict(zip(lstm.GATES, spec.injection.reshape(4, n, p)))
        for gate, gain in (("f", l_f), ("i", l_i), ("o", l_o), ("c", np.zeros((n, p)))):
            np.testing.assert_array_equal(blocks[gate], gain)
        replaced = dataclasses.replace(spec, L_o=2.0 * l_o)
        o = lstm.GATES.index("o")
        np.testing.assert_array_equal(replaced.injection[o * n:(o + 1) * n], 2.0 * l_o)

    def test_derive_constants_rejects_unstable_error_dynamics(self, bench_w):
        # |1 - l_d| = 1.5 on A_d's nonnegative diagonal, so rho(A_d) >= 1.5
        spec = observer.ObserverSpec(**self._gains(bench_w, L_d=2.5 * np.eye(bench_w.p)))
        with pytest.raises(GainSelectionError, match="rho"):
            observer.derive_constants(bench_w, spec)

    @pytest.mark.parametrize("u, y", [([0.1, 0.2], [0.0]), ([0.1], [0.0, 0.0])],
                             ids=["u", "y"])
    def test_observer_step_rejects_bad_shapes(self, bench_w, bench_spec, u, y, bench_cell):
        chi = AugmentedState(bench_w.zero_state(), np.zeros(bench_w.p))
        with pytest.raises(DimensionError, match="shape mismatch"):
            observer.observer_step(bench_w, bench_spec, chi, u, y, bench_cell)

    # gains that disagree with each other; the message names the gain and
    # L_f's shape. In the last case the injection matrix would have the
    # model's 4n rows.
    @pytest.mark.parametrize("shapes, gain", [
        ({"L_f": (6, 1)}, "L_i"), ({"L_o": (4, 1)}, "L_o"), ({"L_d": (2, 2)}, "L_d"),
        ({"L_i": (5, 2)}, "L_i"), ({"L_f": (6, 1), "L_i": (4, 1), "L_o": (4, 1)}, "L_i"),
    ], ids=["L_f", "L_o", "L_d", "L_i-columns", "rows-sum-to-4n"])
    def test_construction_names_a_gain_that_disagrees(self, bench_w, shapes, gain):
        gains = {name: np.zeros(shape) for name, shape in shapes.items()}
        with pytest.raises(DimensionError, match=rf"^{gain} has shape .*, for L_f of shape \("):
            observer.ObserverSpec(**self._gains(bench_w, **gains))

    # gains that agree with each other, built directly and never passed
    # through derive_constants, but not of the model's (n, p) = (5, 1)
    @pytest.mark.parametrize("shapes", [
        {"L_f": (6, 1), "L_i": (6, 1), "L_o": (6, 1)},
        {"L_f": (5, 2), "L_i": (5, 2), "L_o": (5, 2), "L_d": (2, 2)},
    ], ids=["L_f", "L_f-columns"])
    def test_observer_step_names_a_gain_that_does_not_fit(self, bench_w, shapes, bench_cell):
        gains = {name: np.zeros(shape) for name, shape in shapes.items()}
        spec = observer.ObserverSpec(**self._gains(bench_w, **gains))
        chi = AugmentedState(bench_w.zero_state(), np.zeros(bench_w.p))
        with pytest.raises(DimensionError, match=r"L_f has shape \(.*\(n, p\) = \(5, 1\)"):
            observer.observer_step(bench_w, spec, chi, [0.1], [0.0], bench_cell)
        with pytest.raises(DimensionError, match="L_f"):
            observer.derive_constants(bench_w, spec)


class TestConvergence:
    def test_decay_inequality_and_convergence(self, bench_w, bench_spec, bench_cell):
        # short co-simulations; the full statistical check is in acceptance
        rng = np.random.default_rng(9)
        spec = bench_spec
        for _ in range(10):
            chi_true = random_augmented(bench_w, rng, spec.d_max)
            chi_hat = random_augmented(bench_w, rng, spec.d_max)
            v = observer.v_o(spec, chi_hat, chi_true)
            for _ in range(60):
                u = rng.uniform(-1, 1, bench_w.m)
                y = observer.augmented_output(bench_w, chi_true)
                chi_hat = observer.observer_step(bench_w, spec, chi_hat, u, y, bench_cell)
                chi_true = observer.augmented_step(bench_w, chi_true, u, bench_cell)
                v_next = observer.v_o(spec, chi_hat, chi_true)
                assert v_next <= spec.rho_o * v + 1e-9
                v = v_next

    def test_steady_input_unique_attractor(self, bench_w, bench_cell):
        # two different initial states converge to the same fixed point
        rng = np.random.default_rng(3)
        u = np.array([0.2])
        xa = random_invariant_state(bench_w, rng)
        xb = random_invariant_state(bench_w, rng)
        for _ in range(600):
            xa = lstm.step(bench_w, xa, u, bench_cell)
            xb = lstm.step(bench_w, xb, u, bench_cell)
        assert np.max(np.abs(xa.as_vector() - xb.as_vector())) < 1e-6
