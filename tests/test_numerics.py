"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
import scipy.linalg

from lstmpc import numerics
from lstmpc.errors import DimensionError, InstabilityError, NotSpdError

from conftest import induced_inf_norm


def power_iteration_two_norm(m, iters=500, seed=0):
    """Independent oracle: power iteration on m^T m."""
    m = np.atleast_2d(m)
    v = np.random.default_rng(seed).normal(size=m.shape[1])
    for _ in range(iters):
        v = m.T @ (m @ v)
        v /= np.linalg.norm(v)
    return float(np.linalg.norm(m @ v))


class TestInducedTwoNorm:
    def test_identity(self):
        assert numerics.induced_two_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert numerics.induced_two_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_random_vs_power_iteration(self):
        m = np.random.default_rng(7).normal(size=(4, 3))
        assert numerics.induced_two_norm(m) == pytest.approx(
            power_iteration_two_norm(m), abs=1e-10)

    def test_empty(self):
        assert numerics.induced_two_norm(np.zeros((0, 0))) == 0.0


class TestInducedInfNorm:
    def test_identity(self):
        assert induced_inf_norm(np.eye(2)) == pytest.approx(1.0)

    def test_row_sum(self):
        assert induced_inf_norm([[1.0, -2.0], [3.0, 0.5]]) == pytest.approx(3.5)

    def test_gate_block_concatenation(self):
        rng = np.random.default_rng(5)
        w_in = rng.normal(size=(4, 1))
        u_rec = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 1))
        u_max = 0.8
        block = np.hstack([w_in * u_max, u_rec, b])
        oracle = max(u_max * abs(w_in[j, 0]) + np.sum(np.abs(u_rec[j])) + abs(b[j, 0])
                     for j in range(4))
        assert induced_inf_norm(block) == pytest.approx(oracle, abs=1e-12)


class TestSpectralRadius:
    def test_diagonal(self):
        assert numerics.spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_scaled_rotation(self):
        th = 0.3
        rot = 0.7 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert numerics.spectral_radius(rot) == pytest.approx(0.7, abs=1e-12)

    def test_random_nonnegative_vs_power_iteration(self):
        # entrywise-nonnegative matrices have a real dominant eigenvalue
        m = np.abs(np.random.default_rng(11).normal(size=(3, 3)))
        v = np.ones(3)
        for _ in range(2000):
            v = m @ v
            v /= np.linalg.norm(v)
        oracle = float(v @ m @ v)
        assert numerics.spectral_radius(m) == pytest.approx(oracle, abs=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            numerics.spectral_radius(np.zeros((2, 3)))


class TestSolveDiscreteLyapunov:
    def test_zero_dynamics(self):
        p = numerics.solve_discrete_lyapunov(np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(p, np.eye(2), atol=1e-12)

    def test_scalar_geometric_series(self):
        p = numerics.solve_discrete_lyapunov([[0.5]], [[1.0]])
        assert p[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_random_stable_residual_and_spd(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        a *= 0.9 / numerics.spectral_radius(a)
        q = np.eye(3)
        p = numerics.solve_discrete_lyapunov(a, q)
        np.testing.assert_allclose(a.T @ p @ a - p, -q, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(p)) > 0

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        a *= 0.8 / numerics.spectral_radius(a)
        q = np.eye(3) + 0.1 * np.outer(np.arange(3.0), np.arange(3.0))
        # scipy solves A P A^T - P = -Q; ours is the transposed convention
        oracle = scipy.linalg.solve_discrete_lyapunov(a.T, q)
        np.testing.assert_allclose(
            numerics.solve_discrete_lyapunov(a, q), oracle, atol=1e-9)

    def test_rejects_unstable(self):
        with pytest.raises(InstabilityError):
            numerics.solve_discrete_lyapunov(np.eye(2), np.eye(2))

    def test_rejects_non_spd_q(self):
        with pytest.raises(NotSpdError):
            numerics.solve_discrete_lyapunov(0.5 * np.eye(2), -np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            numerics.solve_discrete_lyapunov(0.5 * np.eye(2), np.eye(3))

    @pytest.mark.parametrize("q", [np.full((2, 2), np.nan), np.nan * np.eye(2),
                                   np.diag([np.inf, 1.0])], ids=["nan", "nan-diagonal", "inf"])
    def test_rejects_non_finite_q(self, q):
        with pytest.raises(NotSpdError, match="q is not finite"):
            numerics.solve_discrete_lyapunov(0.5 * np.eye(2), q)

    def test_residual_test_fails_on_nan(self, monkeypatch):
        # a solve that returns NaN must fail the residual test, not pass it
        monkeypatch.setattr(numerics.np.linalg, "solve",
                            lambda k, rhs: np.full_like(rhs, np.nan))
        with pytest.raises(InstabilityError, match="residual"):
            numerics.solve_discrete_lyapunov(0.5 * np.eye(2), np.eye(2))


class TestEigExtremaSpd:
    def test_identity(self):
        assert numerics.eig_extrema_spd(np.eye(3)) == (1.0, 1.0)

    def test_diagonal(self):
        assert numerics.eig_extrema_spd(np.diag([2.0, 5.0])) == (2.0, 5.0)

    def test_rayleigh_quotient_bracketing(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4))
        spd = m @ m.T + 4.0 * np.eye(4)
        lo, hi = numerics.eig_extrema_spd(spd)
        for _ in range(200):
            v = rng.normal(size=4)
            r = (v @ spd @ v) / (v @ v)
            assert lo - 1e-9 <= r <= hi + 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpdError):
            numerics.eig_extrema_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            numerics.eig_extrema_spd(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("m", [np.full((2, 2), np.nan), np.diag([np.inf, 1.0]),
                                   np.diag([-np.inf, 1.0])], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, m):
        with pytest.raises(NotSpdError, match="m is not finite"):
            numerics.eig_extrema_spd(m)

    def test_definiteness_test_fails_on_nan(self, monkeypatch):
        # a NaN eigenvalue (as eigvalsh gives for a NaN matrix) fails the test
        monkeypatch.setattr(numerics.np.linalg, "eigvalsh", lambda m: np.full(len(m), np.nan))
        with pytest.raises(NotSpdError, match="not positive definite"):
            numerics.eig_extrema_spd(np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError, match=r"must be square, got \(2, 3\)"):
            numerics.eig_extrema_spd(np.ones((2, 3)))


# lists of 1 to 21 floats with a NaN, an infinity or both at every position:
# Python's max and min skip a NaN that is not first, numpy's do not
def _reduction_cases():
    rng = np.random.default_rng(11)
    cases = [[0.5], [-2.0, 3.0], [np.inf, -np.inf], [1e308, 1e308, -np.inf], [-0.0, -1.0]]
    for size in (1, 2, 5, 11, 21):
        base = rng.normal(size=size).tolist()
        cases.append(base)
        for k in range(size):
            for special in ((np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf),
                            (np.nan, np.inf)):
                case = list(base)
                for j, value in enumerate(special):
                    case[(k + j) % size] = value
                cases.append(case)
    return cases


class TestReductionsOnFloats:
    def test_largest_is_ndarray_max(self):
        for case in _reduction_cases():
            want = np.array(case).max()
            got = numerics.largest(case)
            assert type(got) is float
            assert np.array(got).tobytes() == want.tobytes(), case

    def test_magnitude_is_abs_max(self):
        for case in _reduction_cases():
            want = abs(np.array(case)).max()
            got = numerics.magnitude(case)
            assert type(got) is float
            assert np.array(got).tobytes() == want.tobytes(), case

    def test_a_nan_after_a_small_entry_gives_nan(self):
        # the case the builtins get wrong: max([1e-12, nan]) is 1e-12
        assert max([1e-12, np.nan]) == 1e-12
        assert np.isnan(numerics.largest([1e-12, np.nan]))
        assert np.isnan(numerics.magnitude([1e-12, np.nan, -3.0]))
