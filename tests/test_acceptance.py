"""End-to-end acceptance checks for the complete control stack.

Ten top-level criteria: identification quality, certification constants,
the incremental-stability bound, observer convergence, solver optimality
against an exhaustive grid, recursive feasibility and constraint
satisfaction over the full benchmark scenario, offset-free tracking, the
shifted-candidate mechanism, plant fidelity, and the admissible
set-point band.
"""

import csv
import dataclasses
import pathlib
import time

import numpy as np
import pytest

from lstmpc import harness, lstm, mpc, observer, plant, refcalc, sysid
from lstmpc.errors import InfeasibleSetpointError
from lstmpc.lstm import LstmState
from lstmpc.observer import AugmentedState

from conftest import ASSETS, random_invariant_state

# Closed-loop trace of the benchmark scenario, the behaviour oracle. A change
# that moves any column by more than TRACE_ATOL regenerates it and says why.
TRACE_ORACLE = pathlib.Path(__file__).resolve().parent / "data" / "closed_loop_trace.csv"
TRACE_ATOL = 1e-9


@pytest.fixture(scope="module")
def benchmark_run(bench_w, bench_spec):
    """One full physical-mode closed-loop run of the shipped scenario,
    shared by the feasibility / offset-free / candidate criteria."""
    sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
    t0 = time.monotonic()
    report = harness.run_scenario(sc, bench_w, spec=bench_spec)
    return report, time.monotonic() - t0


@pytest.mark.slow
class TestCriterion1IdentificationQuality:
    """Desk-scale pipeline: excite the plant, train, certify, FIT >= 85%."""

    def test_pipeline_yields_certified_accurate_model(self):
        t0 = time.monotonic()
        ds = sysid.generate_dataset(seed=1, n_train=10, n_val=3, n_test=2,
                                    steps=1500)
        cfg = sysid.TrainConfig(epochs=300, n_neurons=5, seed=1)
        w = sysid.train(ds, cfg)
        assert lstm.delta_iss_check(w).certified
        fit = sysid.evaluate_fit(w, ds.test)
        assert fit >= 85.0
        assert time.monotonic() - t0 < 1800.0


class TestCriterion2CertificationConstants:
    def test_contraction_rates_in_published_regime(self, bench_cert, bench_spec):
        assert 0.85 <= bench_cert.rho_s <= 0.97
        assert 0.90 <= bench_spec.rho_o <= 0.995

    def test_error_bound_fixed_point_identity(self, bench_certificate, bench_spec):
        sched = bench_certificate.schedule
        e = sched.e_bar_inf
        assert abs(e - (bench_spec.rho_o * e + bench_spec.w_bar)) < 1e-12
        assert abs(e - bench_spec.w_bar / (1.0 - bench_spec.rho_o)) < 1e-12


class TestCriterion3IncrementalStabilityBound:
    def test_componentwise_bound_and_contraction(self, bench_w, bench_cert):
        rng = np.random.default_rng(12)
        a_d, b_d = bench_cert.A_delta, bench_cert.B_delta
        for _ in range(100):
            x_a = random_invariant_state(bench_w, rng)
            x_b = random_invariant_state(bench_w, rng)
            for _ in range(50):
                u_a = rng.uniform(-1.0, 1.0, bench_w.m)
                u_b = rng.uniform(-1.0, 1.0, bench_w.m)
                n_a = lstm.step(bench_w, x_a, u_a)
                n_b = lstm.step(bench_w, x_b, u_b)
                delta = np.array([np.linalg.norm(x_a.c - x_b.c),
                                  np.linalg.norm(x_a.h - x_b.h)])
                delta_next = np.array([np.linalg.norm(n_a.c - n_b.c),
                                       np.linalg.norm(n_a.h - n_b.h)])
                bound = a_d @ delta + b_d[:, 0] * np.linalg.norm(u_a - u_b)
                assert np.all(delta_next <= bound + 1e-9)
                x_a, x_b = n_a, n_b

    def test_same_input_lyapunov_contraction(self, bench_w, bench_cert):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x_a = random_invariant_state(bench_w, rng)
            x_b = random_invariant_state(bench_w, rng)
            for _ in range(50):
                u = rng.uniform(-1.0, 1.0, bench_w.m)
                n_a = lstm.step(bench_w, x_a, u)
                n_b = lstm.step(bench_w, x_b, u)
                assert lstm.v_s(bench_cert, n_a, n_b) <= \
                    bench_cert.rho_s * lstm.v_s(bench_cert, x_a, x_b) + 1e-9
                x_a, x_b = n_a, n_b


class TestCriterion4ObserverConvergence:
    def test_error_vanishes_without_disturbance_increments(self, bench_w,
                                                           bench_spec):
        rng = np.random.default_rng(14)
        spec = bench_spec
        chi_true = AugmentedState(random_invariant_state(bench_w, rng),
                                  rng.uniform(-spec.d_max, spec.d_max, bench_w.p))
        chi_hat = AugmentedState(
            LstmState(rng.uniform(-spec.cell_radius_hat, spec.cell_radius_hat,
                                  bench_w.n),
                      rng.uniform(-1.0, 1.0, bench_w.n)),
            rng.uniform(-spec.d_max, spec.d_max, bench_w.p))
        v0 = observer.v_o(spec, chi_hat, chi_true)
        for _ in range(500):
            u = rng.uniform(-1.0, 1.0, bench_w.m)
            y = observer.augmented_output(bench_w, chi_true)
            chi_hat = observer.observer_step(bench_w, spec, chi_hat, u, y)
            chi_true = observer.augmented_step(bench_w, chi_true, u)
        assert observer.v_o(spec, chi_hat, chi_true) < 1e-3 * v0

    def test_decay_inequality_under_bounded_increments(self, bench_w):
        w_max = 0.002
        spec = observer.select_gains(bench_w, d_max=0.1, l_d=0.1, w_max=w_max)
        w_bar = spec.w_bar            # analytic bound for this w_max
        assert w_bar > 0.0
        rng = np.random.default_rng(15)
        for _ in range(100):
            chi_true = AugmentedState(
                random_invariant_state(bench_w, rng),
                rng.uniform(-0.5 * spec.d_max, 0.5 * spec.d_max, bench_w.p))
            chi_hat = AugmentedState(
                LstmState(rng.uniform(-spec.cell_radius_hat,
                                      spec.cell_radius_hat, bench_w.n),
                          rng.uniform(-1.0, 1.0, bench_w.n)),
                rng.uniform(-spec.d_max, spec.d_max, bench_w.p))
            v = observer.v_o(spec, chi_hat, chi_true)
            for _ in range(30):
                u = rng.uniform(-1.0, 1.0, bench_w.m)
                w_k = rng.uniform(-w_max, w_max, bench_w.p)
                y = observer.augmented_output(bench_w, chi_true)
                chi_hat = observer.observer_step(bench_w, spec, chi_hat, u, y)
                chi_true = observer.augmented_step(bench_w, chi_true, u,
                                                   w_k=w_k, d_max=spec.d_max)
                v_next = observer.v_o(spec, chi_hat, chi_true)
                assert v_next <= spec.rho_o * v + w_bar + 1e-9
                v = v_next


class TestCriterion5SolverOptimality:
    def test_matches_exhaustive_grid_on_random_instances(self, bench_w, bench_spec):
        ctrl = mpc.Controller(bench_w, mpc.certify(bench_w, bench_spec, 2))
        sched = ctrl.certificate.schedule
        rng = np.random.default_rng(16)
        grid = np.linspace(-1.0, 1.0, 201)
        uu0, uu1 = np.meshgrid(grid, grid, indexing="ij")
        cand_u = np.stack([uu0.ravel(), uu1.ravel()], axis=1)   # (201^2, 2)

        solved = 0
        while solved < 20:
            y0 = rng.uniform(-0.3, 0.45)
            ref = refcalc.solve_reference(bench_w, [y0], [0.0])
            ctrl.e_o = e_o = rng.uniform(sched.e_bar_inf, 0.5)
            # the set-point check comes before the state is drawn
            try:
                problem = ctrl.problem_at(None, ref, [y0])
            except InfeasibleSetpointError:
                continue
            x_hat = LstmState(ref.x_bar.c + rng.uniform(-0.03, 0.03, bench_w.n),
                              ref.x_bar.h + rng.uniform(-0.03, 0.03, bench_w.n))
            problem = dataclasses.replace(problem, x_hat=x_hat)
            if problem.evaluate(np.tile(ref.u_bar, (2, 1)))[1].max() > 0.0:
                continue
            sol = mpc.solve_fhocp(problem)
            assert sol.max_violation <= 1e-7
            best = self._grid_best(bench_w, sched, problem, e_o,
                                   bench_spec.d_max, cand_u)
            assert sol.cost <= best + 1e-3
            solved += 1

    @staticmethod
    def _grid_best(w, sched, problem, e_o, d_max, cand_u):
        """Vectorized independent evaluation of every grid input plan."""
        ref, x_hat = problem.ref, problem.x_hat
        n_c = cand_u.shape[0]
        c = np.tile(x_hat.c, (n_c, 1))
        h = np.tile(x_hat.h, (n_c, 1))
        x_bar = np.concatenate([ref.x_bar.c, ref.x_bar.h])
        cost = np.zeros(n_c)
        feasible = np.ones(n_c, dtype=bool)
        for i in range(2):
            y = h @ w.W_y.T + w.b_y
            tight = sched.a[i] * e_o + sched.b[i] + d_max
            feasible &= (y[:, 0] + tight[0] <= 1.0 + 1e-12)
            feasible &= (-1.0 + tight[0] <= y[:, 0] + 1e-12)
            dx = np.hstack([c, h]) - x_bar
            cost += np.sum(dx ** 2, axis=1)
            cost += (cand_u[:, i] - ref.u_bar[0]) ** 2
            u = cand_u[:, i:i + 1]
            zf = 1.0 / (1.0 + np.exp(-(u @ w.W_f.T + h @ w.U_f.T + w.b_f)))
            zi = 1.0 / (1.0 + np.exp(-(u @ w.W_i.T + h @ w.U_i.T + w.b_i)))
            zo = 1.0 / (1.0 + np.exp(-(u @ w.W_o.T + h @ w.U_o.T + w.b_o)))
            zg = np.tanh(u @ w.W_c.T + h @ w.U_c.T + w.b_c)
            c = zf * c + zi * zg
            h = zo * np.tanh(c)
        ev = np.stack([np.linalg.norm(c - ref.x_bar.c, axis=1),
                       np.linalg.norm(h - ref.x_bar.h, axis=1)], axis=1)
        term_vals = np.einsum("ki,ij,kj->k", ev, problem.P_f, ev)
        feasible &= term_vals <= problem.alpha ** 2 + 1e-12
        cost += term_vals
        return float(np.min(cost[feasible]))


class TestCriterion6RecursiveFeasibilityAndConstraints:
    def test_full_scenario_clean(self, benchmark_run):
        report, _ = benchmark_run
        assert report.steps == 1000
        assert report.feasibility_losses == 0
        assert report.constraint_violations == 0
        assert all(6.0 - 1e-9 <= y <= 9.0 + 1e-9 for y in report.trace["y_phys"])


class TestClosedLoopTraceOracle:
    """The benchmark run against ``tests/data/closed_loop_trace.csv``.

    To regenerate the oracle after a change that moves the trace on
    purpose, run from the repository root::

        PYTHONPATH=src python -m lstmpc.cli simulate \\
            --weights src/lstmpc/assets/model.json \\
            --scenario src/lstmpc/assets/benchmark_scenario.json --out run/
        cp run/trace.csv tests/data/closed_loop_trace.csv

    and record the old and new sha256 and the largest per-column change.
    """

    def test_matches_committed_trace(self, benchmark_run):
        report, _ = benchmark_run
        with open(TRACE_ORACLE, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == harness.TRACE_COLUMNS
        assert len(rows) - 1 == report.steps
        for j, col in enumerate(harness.TRACE_COLUMNS):
            expect = [r[j] for r in rows[1:]]
            if col == "status":
                assert report.trace[col] == expect
                continue
            got = np.asarray(report.trace[col], dtype=float)
            ref = np.asarray(expect, dtype=float)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(ref), err_msg=col)
            np.testing.assert_allclose(got, ref, rtol=0, atol=TRACE_ATOL, err_msg=col)


class TestCriterion7OffsetFree:
    def test_constant_segments_converge(self, benchmark_run):
        report, _ = benchmark_run
        assert len(report.segment_errors) >= 4
        for t_start, t_end, y0, err in report.segment_errors:
            assert err < 0.02, (t_start, t_end, y0, err)

    def test_disturbance_steps_rejected(self, benchmark_run):
        report, _ = benchmark_run
        t = np.asarray(report.trace["t"])
        err = np.abs(np.asarray(report.trace["y_phys"])
                     - np.asarray(report.trace["y0_phys"]))
        for t_step in (7000.0, 8000.0, 9000.0):
            window = (t >= t_step + 800.0) & (t < t_step + 1000.0)
            assert window.any()
            assert np.max(err[window]) < 0.02, t_step

    def test_runtime_budget(self, benchmark_run):
        _, elapsed = benchmark_run
        assert elapsed < 120.0


class TestCriterion8ShiftedCandidate:
    def test_candidate_feasible_at_every_step(self, benchmark_run):
        report, _ = benchmark_run
        assert report.candidate_checks == report.steps - 1
        assert report.max_candidate_violation <= 1e-7
        assert report.feasibility_losses == 0


class TestCriterion9PlantFidelity:
    def test_nominal_point_is_equilibrium(self):
        p = plant.PhParams()
        x = np.array([-4.32e-4, 5.28e-4, 14.0])
        x_end = x.copy()
        for _ in range(100):
            x_end = plant.plant_step(p, x_end, 15.6, 0.55, 10.0)
        assert np.max(np.abs(x_end - x)) < 1e-3

    def test_nominal_ph(self):
        p = plant.PhParams()
        assert plant.measure_ph(p, np.array([-4.32e-4, 5.28e-4, 14.0])) == \
            pytest.approx(7.0, abs=0.01)

    def test_integrator_order(self):
        p = plant.PhParams()
        x0 = np.array([-4.32e-4 + 2e-4, 5.28e-4 - 1e-4, 15.0])
        sols = [plant.plant_step(p, x0, 16.2, 0.55, 40.0, substeps=s)
                for s in (1, 2, 4)]
        ratio = np.linalg.norm(sols[0] - sols[1]) / np.linalg.norm(sols[1] - sols[2])
        assert 12.0 <= ratio <= 20.0


class TestCriterion10AdmissibleBand:
    def test_band_matches_published_interval(self, bench_certificate, bench_spec, bench_nrm):
        sched = bench_certificate.schedule
        y_lb = float(bench_nrm.normalize_y(6.0))
        y_ub = float(bench_nrm.normalize_y(9.0))
        lo0, hi0 = mpc.admissible_band(sched, y_lb, y_ub,
                                       bench_spec.d_max, 0.5)
        lo_inf, hi_inf = mpc.admissible_band(sched, y_lb, y_ub,
                                             bench_spec.d_max, sched.e_bar_inf)
        band0 = (float(bench_nrm.denormalize_y(lo0[0])),
                 float(bench_nrm.denormalize_y(hi0[0])))
        band_inf = (float(bench_nrm.denormalize_y(lo_inf[0])),
                    float(bench_nrm.denormalize_y(hi_inf[0])))
        assert band0[0] == pytest.approx(6.65, abs=0.1)
        assert band0[1] == pytest.approx(8.35, abs=0.1)
        assert band_inf[0] == pytest.approx(6.57, abs=0.1)
        assert band_inf[1] == pytest.approx(8.43, abs=0.1)
        # the band widens monotonically as the error proxy decays
        assert band_inf[0] < band0[0] < band0[1] < band_inf[1]
