"""Unit tests for the pH neutralization simulator and signal scaling."""

import numpy as np
import pytest

from lstmpc import plant, sysid
from lstmpc.errors import UnphysicalStateError

# Published nominal operating point of the benchmark tank.
NOMINAL_STATE = np.array([-4.32e-4, 5.28e-4, 14.0])


# -- reference implementation: the model on numpy 3-vectors ---------------
# plant.py runs the same arithmetic on Python floats; the results must be
# exactly equal, not merely close.

def xdot_oracle(p, x, u_phi, d_phi):
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


def plant_step_oracle(p, x, u_phi, d_phi, dt, substeps=10):
    u_phi = float(np.clip(u_phi, *plant.U_PHI_RANGE))
    x = np.asarray(x, dtype=float).copy()
    h = dt / substeps
    for _ in range(substeps):
        k1 = xdot_oracle(p, x, u_phi, d_phi)
        k2 = xdot_oracle(p, x + 0.5 * h * k1, u_phi, d_phi)
        k3 = xdot_oracle(p, x + 0.5 * h * k2, u_phi, d_phi)
        k4 = xdot_oracle(p, x + h * k3, u_phi, d_phi)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if x[2] <= 0.0:
            raise UnphysicalStateError("tank level went non-positive during integration")
    return x


def charge_balance_oracle(p, x, ph):
    w_a4, w_b4 = x[0], x[1]
    return (w_a4 + 10.0 ** (ph - 14.0) - 10.0 ** (-ph)
            + w_b4 * (1.0 + 2.0 * 10.0 ** (ph - p.pK2))
            / (1.0 + 10.0 ** (p.pK1 - ph) + 10.0 ** (ph - p.pK2)))


def measure_ph_oracle(p, x):
    lo, hi = 0.0, 14.0
    c_lo, c_hi = charge_balance_oracle(p, x, lo), charge_balance_oracle(p, x, hi)
    if c_lo * c_hi > 0.0:
        raise UnphysicalStateError("charge balance has no sign change in [0, 14]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if charge_balance_oracle(p, x, mid) * c_lo <= 0.0:
            hi = mid
        else:
            lo = mid
    ph = 0.5 * (lo + hi)
    for _ in range(2):
        c = charge_balance_oracle(p, x, ph)
        eps = 1e-7
        dc = (charge_balance_oracle(p, x, ph + eps)
              - charge_balance_oracle(p, x, ph - eps)) / (2 * eps)
        if dc != 0.0:
            ph -= c / dc
    return float(ph)


def xdot(p, x, u_phi, d_phi):
    """The plant's ODE right-hand side at the state x, as an array."""
    return np.array(plant._rates(p)(*map(float, x), u_phi, d_phi))


def charge_balance(p, x, ph):
    """The plant's titration residual c(x, pH); the measured pH is its root."""
    return plant._residual(p, float(x[0]), float(x[1]))(ph)


@pytest.fixture(scope="module")
def params():
    return plant.PhParams()


class TestEquilibrium:
    def test_matches_nominal_state(self, params):
        eq = plant.equilibrium(params)
        np.testing.assert_allclose(eq, NOMINAL_STATE, atol=5e-6)

    def test_is_fixed_point_of_dynamics(self, params):
        eq = plant.equilibrium(params, u_phi=14.2, d_phi=0.6)
        np.testing.assert_allclose(xdot(params, eq, 14.2, 0.6),
                                   np.zeros(3), atol=1e-15)


class TestPlantStep:
    def test_nominal_drift_over_1000s(self, params):
        x = NOMINAL_STATE.copy()
        for _ in range(100):
            x = plant.plant_step(params, x, 15.6, 0.55, 10.0)
        assert np.max(np.abs(x - NOMINAL_STATE)) < 1e-3

    def test_level_decay_decoupled(self, params):
        # with all inflows zero only the outflow term drives the level and
        # the concentration states are frozen
        x = NOMINAL_STATE.copy()
        p0 = plant.PhParams(q1=0.0)
        dx0 = xdot(p0, x, 0.0, 0.0)
        np.testing.assert_allclose(dx0[:2], 0.0, atol=1e-18)
        outflow = p0.C_v4 * (x[2] + p0.z) ** p0.n_exp
        assert dx0[2] == pytest.approx(-outflow / p0.A1, abs=1e-15)

    def test_rk4_richardson_ratio(self, params):
        x0 = NOMINAL_STATE + np.array([2e-4, -1e-4, 1.0])
        dt = 40.0
        coarse = plant.plant_step(params, x0, 16.2, 0.55, dt, substeps=1)
        fine = plant.plant_step(params, x0, 16.2, 0.55, dt, substeps=2)
        finest = plant.plant_step(params, x0, 16.2, 0.55, dt, substeps=4)
        # order-4 scheme: halving the step divides the error by ~16, so the
        # successive-difference ratio sits near 16 as well
        ratio = np.linalg.norm(coarse - fine) / np.linalg.norm(fine - finest)
        assert 12.0 <= ratio <= 20.0

    def test_input_saturation(self, params):
        # inputs outside [12.5, 17] are clamped: same result as the boundary
        x = NOMINAL_STATE.copy()
        lo = plant.plant_step(params, x, 5.0, 0.55, 10.0)
        lo_ref = plant.plant_step(params, x, 12.5, 0.55, 10.0)
        np.testing.assert_array_equal(lo, lo_ref)

    def test_rejects_nonpositive_level(self, params):
        with pytest.raises(UnphysicalStateError):
            plant.plant_step(params, [0.0, 0.0, -1.0], 15.6, 0.55, 10.0)

    def test_rejects_negative_valve_head(self):
        # a scenario may override z; below the valve the outflow law has no
        # real value
        with pytest.raises(UnphysicalStateError):
            plant.plant_step(plant.PhParams(z=-20.0), NOMINAL_STATE, 15.6, 0.55, 10.0)


class TestMeasurePh:
    def test_nominal_ph(self, params):
        assert plant.measure_ph(params, NOMINAL_STATE) == pytest.approx(7.0, abs=0.01)

    def test_strong_acid_limit(self, params):
        x = np.array([1e-3, 0.0, 14.0])
        assert plant.measure_ph(params, x) == pytest.approx(3.0, abs=0.01)

    def test_charge_balance_residual(self, params):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = np.array([rng.uniform(-2e-3, 2e-3), rng.uniform(0.0, 2e-3), 14.0])
            ph = plant.measure_ph(params, x)
            assert abs(charge_balance(params, x, ph)) < 1e-12

    def test_single_root_bracket(self, params):
        # the titration residual is monotone in pH, so the root is unique
        x = NOMINAL_STATE
        phs = np.linspace(0.0, 14.0, 200)
        vals = [charge_balance(params, x, ph) for ph in phs]
        assert np.sum(np.diff(np.sign(vals)) != 0) == 1

    def test_monotone_in_alkaline_flow(self, params):
        phs = []
        for u in (13.0, 14.5, 16.0, 17.0):
            eq = plant.equilibrium(params, u_phi=u)
            phs.append(plant.measure_ph(params, eq))
        assert all(a < b for a, b in zip(phs, phs[1:]))

    def test_rejects_no_sign_change(self, params):
        with pytest.raises(UnphysicalStateError):
            plant.measure_ph(params, np.array([2.0, 0.0, 14.0]))


class TestOracle:
    """plant_step, measure_ph and charge_balance equal the numpy reference
    bit for bit."""

    def test_excitation_trajectory(self, params):
        # a staircase that also leaves U_PHI_RANGE, with the buffer flow
        # stepping across [0.45, 0.7]
        rng = np.random.default_rng(12)
        u = sysid.generate_excitation(rng, (11.0, 18.5), (5, 60), 2000)
        q2 = sysid.generate_excitation(rng, (0.45, 0.7), (20, 200), 2000)
        x = plant.equilibrium(params)
        for k in range(2000):
            ph = plant.measure_ph(params, x)
            assert type(ph) is float and ph == measure_ph_oracle(params, x)
            assert charge_balance(params, x, ph) == charge_balance_oracle(params, x, ph)
            nxt = plant.plant_step(params, x, u[k], q2[k], plant.T_S)
            np.testing.assert_array_equal(nxt, plant_step_oracle(params, x, u[k], q2[k], plant.T_S))
            x = nxt

    @pytest.mark.parametrize("substeps", [1, 2, 4, 10])
    def test_substeps(self, params, substeps):
        rng = np.random.default_rng(substeps)
        x = NOMINAL_STATE + np.array([2e-4, -1e-4, 1.0])
        for _ in range(50):
            u, q2 = rng.uniform(12.0, 17.5), rng.uniform(0.45, 0.7)
            nxt = plant.plant_step(params, x, u, q2, 40.0, substeps=substeps)
            np.testing.assert_array_equal(
                nxt, plant_step_oracle(params, x, u, q2, 40.0, substeps=substeps))
            x = nxt

    def test_xdot(self, params):
        x = NOMINAL_STATE + np.array([2e-4, -1e-4, 1.0])
        np.testing.assert_array_equal(xdot(params, x, 16.2, 0.6),
                                      xdot_oracle(params, x, 16.2, 0.6))

    def test_generate_dataset(self, monkeypatch):
        kwargs = dict(seed=1, n_train=2, n_val=1, n_test=1, steps=300)
        fast = sysid.generate_dataset(**kwargs)
        monkeypatch.setattr(plant, "plant_step", plant_step_oracle)
        monkeypatch.setattr(plant, "measure_ph", measure_ph_oracle)
        ref = sysid.generate_dataset(**kwargs)
        assert fast.normalizer == ref.normalizer
        for (u, y), (u_ref, y_ref) in zip(fast.train + fast.val + fast.test,
                                          ref.train + ref.val + ref.test, strict=True):
            np.testing.assert_array_equal(u, u_ref)
            np.testing.assert_array_equal(y, y_ref)
        # The patches reach the dataset's worker processes: an oracle shifted
        # by 100 pH shifts every sample of every sequence. Were the workers
        # still on the fast plant, the comparison above would pass vacuously.
        monkeypatch.setattr(plant, "measure_ph",
                            lambda params, x: measure_ph_oracle(params, x) + 100.0)
        shifted = sysid.generate_dataset(**kwargs)
        for (_, y), (_, y_ref) in zip(shifted.train + shifted.val + shifted.test,
                                           ref.train + ref.val + ref.test, strict=True):
            np.testing.assert_allclose(shifted.normalizer.denormalize_y(y),
                                       ref.normalizer.denormalize_y(y_ref) + 100.0,
                                       rtol=0.0, atol=1e-9)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_plant_step_rejects_flows_and_dt(self, params, bad):
        with pytest.raises(UnphysicalStateError):
            plant.plant_step(params, NOMINAL_STATE, bad, 0.55, 10.0)
        with pytest.raises(UnphysicalStateError):
            plant.plant_step(params, NOMINAL_STATE, 15.6, bad, 10.0)
        with pytest.raises(UnphysicalStateError):
            plant.plant_step(params, NOMINAL_STATE, 15.6, 0.55, bad)

    @pytest.mark.parametrize("entry", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_plant_step_rejects_state(self, params, entry, bad):
        x = NOMINAL_STATE.copy()
        x[entry] = bad
        with pytest.raises(UnphysicalStateError):
            plant.plant_step(params, x, 15.6, 0.55, 10.0)

    @pytest.mark.parametrize("entry", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_measure_ph_rejects_concentrations(self, params, entry, bad):
        x = NOMINAL_STATE.copy()
        x[entry] = bad
        with pytest.raises(UnphysicalStateError):
            plant.measure_ph(params, x)


class TestNormalizer:
    def test_endpoints(self):
        nrm = plant.Normalizer(12.5, 17.0, 6.0, 9.0)
        assert nrm.normalize_u(12.5) == -1.0
        assert nrm.normalize_u(17.0) == 1.0
        assert nrm.normalize_y(6.0) == -1.0
        assert nrm.normalize_y(9.0) == 1.0

    def test_round_trip(self):
        nrm = plant.Normalizer(12.5, 17.0, 5.0, 10.0)
        rng = np.random.default_rng(0)
        v = rng.uniform(-1.0, 1.0, 100)
        np.testing.assert_allclose(nrm.normalize_u(nrm.denormalize_u(v)), v, atol=1e-12)
        np.testing.assert_allclose(nrm.normalize_y(nrm.denormalize_y(v)), v, atol=1e-12)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            plant.Normalizer(2.0, 1.0, 0.0, 1.0)
