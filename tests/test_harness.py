"""Unit tests for scenario scripting, the closed-loop engine and the CLI."""

import dataclasses
import inspect
import json
import pathlib
import re
import shutil
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lstmpc import cli, harness, lstm, mpc, observer, plant, refcalc, sysid
from lstmpc.errors import DomainViolationError, FeasibilityLossError

from conftest import ASSETS

DATA = pathlib.Path(__file__).resolve().parent / "data"

# Scenario fields that must fail before the first step, with the error and
# the start of its message. Each would otherwise end the run in a bare numpy
# error or a traceback, run the solver on a setting it cannot use, end the
# run at once (duration_s = inf), exceed numpy's array size or the memory
# (duration_s 1e308 or 1e15, beyond harness.MAX_STEPS steps) or (ramp_rate)
# drift a constant set-point; a weight of 1e308, or just under 1e308 (q 8e307,
# r 8.9e307), would overflow the terminal weight P_f or the QP Hessian, an
# output bound of 1e308 the normalized bound, and
# an acid flow of 1e308 the plant's equilibrium level;
# a negative tank section (A1) would run to the end on an unphysical plant.
# A profile entry out of time order or with a NaN time would be dropped
# without a word, and a null profile, null plant_overrides or an unknown
# plant parameter would end in a TypeError traceback. A setting that the
# mode does not read (a nominal run's disturbances or plant_overrides, a
# physical run's disturbance_increments) would be dropped without a word.
# Each row's fields are set on a physical scenario, in order.
BAD_FIELDS = pytest.mark.parametrize("fields, error, message", [
    ({"ramp_rate": -0.005}, ValueError, "ramp_rate"),
    ({"setpoints": []}, ValueError, "setpoints"),
    ({"setpoints": [[0.0]]}, ValueError, "setpoints"),
    ({"horizon": 0}, ValueError, "horizon"),
    ({"duration_s": -10.0}, ValueError, "duration_s"),
    ({"duration_s": np.inf}, ValueError, "duration_s"),
    ({"duration_s": 1e308}, ValueError, "duration_s"),
    ({"duration_s": 1e15}, ValueError, "duration_s"),
    ({"e_o0": -0.5}, ValueError, "e_o0"), ({"e_o0": np.nan}, ValueError, "e_o0"),
    ({"r_weight": 0.0}, ValueError, "r_weight"), ({"r_weight": -1.0}, ValueError, "r_weight"),
    ({"r_weight": np.nan}, ValueError, "r_weight"),
    ({"q_weight": np.nan}, ValueError, "q_weight"),
    ({"r_weight": 1e308}, ValueError, "r_weight"), ({"q_weight": 1e308}, ValueError, "q_weight"),
    ({"r_weight": 8.9e307}, ValueError, "r_weight"), ({"q_weight": 8e307}, ValueError, "q_weight"),
    ({"plant_overrides": {"q1": 1e308}}, ValueError, "q1"),
    ({"y_ub_phys": 1e308}, ValueError, "y_ub_phys"), ({"y_lb_phys": -1e308}, ValueError, "y_lb_phys"),
    ({"horizon": True}, ValueError, "horizon"), ({"seed": -1}, ValueError, "seed"),
    ({"seed": 1.5}, ValueError, "seed"),
    ({"plant_overrides": {"A1": 0}}, ValueError, "A1"),
    ({"plant_overrides": {"C_v4": 0}}, ValueError, "C_v4"),
    ({"plant_overrides": {"n_exp": 0}}, ValueError, "n_exp"),
    ({"plant_overrides": {"q1": "x"}}, ValueError, "q1"),
    ({"plant_overrides": {"A1": -207}}, ValueError, "A1"),
    ({"plant_overrides": None}, ValueError, "plant_overrides"),
    ({"plant_overrides": {"bogus": 1}}, ValueError, "plant_overrides"),
    ({"setpoints": [[300.0, 7.3], [0.0, 7.0]]}, ValueError, "setpoints"),
    ({"setpoints": [[0.0, 7.0], [0.0, 7.3]]}, ValueError, "setpoints"),
    ({"disturbances": [[300.0, 1.0], [0.0, 0.55]]}, ValueError, "disturbances"),
    ({"setpoints": [[0.0, 7.0], [np.nan, 7.3]]}, ValueError, "setpoints"),
    ({"setpoints": [[0.0, np.nan]]}, ValueError, "setpoints"),
    ({"disturbances": [[100.0, np.nan]]}, ValueError, "disturbances"),
    ({"disturbances": [[0.0, -0.1]]}, ValueError, "disturbances"),
    ({"disturbance_increments": [[0.0, np.inf]]}, ValueError, "disturbance_increments"),
    ({"setpoints": None}, ValueError, "setpoints"), ({"mode": "bogus"}, ValueError, "mode"),
    ({"mode": "nominal", "plant_overrides": {"A1": -207}}, ValueError,
     "plant_overrides must be empty in nominal mode"),
    ({"mode": "nominal", "disturbances": [[0.0, 0.45]]}, ValueError,
     "disturbances must be empty in nominal mode"),
    ({"disturbance_increments": [[0.0, 0.02]]}, ValueError,
     "disturbance_increments must be empty in physical mode"),
], ids=["ramp_rate", "setpoints-empty", "setpoints-entry", "horizon", "duration_s",
        "duration_s-inf", "duration_s-1e308", "duration_s-1e15", "e_o0-negative", "e_o0-nan", "r_weight-zero",
        "r_weight-negative", "r_weight-nan", "q_weight-nan", "r_weight-1e308", "q_weight-1e308",
        "r_weight-8.9e307", "q_weight-8e307",
        "plant-q1-1e308", "y_ub_phys-1e308", "y_lb_phys-1e308", "horizon-bool", "seed-negative",
        "seed-float", "plant-A1-zero", "plant-C_v4-zero", "plant-n_exp-zero", "plant-q1-str",
        "plant-A1-negative", "plant-null", "plant-unknown-key", "setpoints-out-of-order",
        "setpoints-repeated-time", "disturbances-out-of-order", "setpoints-nan-time",
        "setpoints-nan-value", "disturbances-nan", "disturbances-negative", "increments-inf",
        "setpoints-null", "mode", "nominal-plant-overrides", "nominal-disturbances",
        "physical-increments"])


def tiny_physical_scenario(**kw):
    base = dict(duration_s=300.0, mode="physical",
                setpoints=[(0.0, 7.0)], disturbances=[])
    base.update(kw)
    return harness.Scenario(**base)


def out_of_assumption_scenario():
    """Nominal run whose scripted increment, 1.35e-4 per step and so inside the
    w_max = 1.378e-4 that the shipped w_bar certifies, drives the true d past
    d_max = 0.1 at controller step 733."""
    return harness.Scenario(duration_s=7500.0, mode="nominal",
                            disturbance_increments=[(0.0, 1.35e-4)])


def beyond_w_max_scenario():
    """Nominal run whose scripted increment, 0.02 per step, is 145 times the
    w_max that the shipped w_bar certifies."""
    return harness.Scenario(duration_s=300.0, mode="nominal",
                            disturbance_increments=[(0.0, 0.02)])


def count_controller_steps(monkeypatch, fail_at=None):
    """Count Controller.step calls; call number ``fail_at`` raises
    FeasibilityLossError."""
    calls = []
    step = mpc.Controller.step

    def counted(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise FeasibilityLossError("test")
        return step(self, *args, **kwargs)

    monkeypatch.setattr(mpc.Controller, "step", counted)
    return calls


SCENARIO_FIELDS = [f.name for f in dataclasses.fields(harness.Scenario)]


class TestScenarioIo:
    def test_json_round_trip(self, tmp_path):
        sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
        path = tmp_path / "sc.json"
        sc.to_json(path)
        assert list(json.loads(path.read_text())) == SCENARIO_FIELDS
        sc2 = harness.Scenario.from_json(path)
        assert sc2 == sc

    def test_asset_lists_exactly_the_fields(self):
        # no stale key lingers, and no setting falls silently to its default
        doc = json.loads((ASSETS / "benchmark_scenario.json").read_text())
        assert list(doc) == SCENARIO_FIELDS

    def test_sampling_period_is_the_models(self):
        sc = harness.Scenario()
        assert sc.t_s == plant.T_S
        with pytest.raises(AttributeError):
            sc.t_s = 5.0
        with pytest.raises(TypeError, match="t_s"):
            harness.Scenario(t_s=5.0)

    def test_rejects_assigning_a_name_that_is_no_field(self):
        # a misspelled or removed field fails at once, not silently ignored
        sc = harness.Scenario(duration_s=50.0)
        for name in ("duraton_s", "l_d", "model_path"):
            with pytest.raises(AttributeError, match=name):
                setattr(sc, name, 5.0)
        assert sc == harness.Scenario(duration_s=50.0)

    def test_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"duration_s": 10.0, "warp_drive": True}))
        with pytest.raises(ValueError, match="warp_drive"):
            harness.Scenario.from_json(path)

    def test_shipped_benchmark_asset(self):
        sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
        assert sc.duration_s == 10000.0
        assert sc.disturbances == [(7000.0, 0.45), (8000.0, 0.6), (9000.0, 0.7)]


class TestSetpointTrace:
    def test_ramp_rate_bound(self, bench_nrm):
        sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
        y0s = harness.setpoint_trace(sc, bench_nrm, 1000)
        steps = np.abs(np.diff(y0s))
        assert np.max(steps) <= sc.ramp_rate + 1e-12

    def test_reaches_targets(self, bench_nrm):
        sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
        y0s = harness.setpoint_trace(sc, bench_nrm, 1000)
        phys = bench_nrm.denormalize_y(y0s)
        assert phys[200] == pytest.approx(7.5, abs=1e-9)     # after first ramp
        assert phys[-1] == pytest.approx(7.0, abs=1e-9)

    def test_constant_profile_has_single_segment(self, bench_nrm):
        sc = tiny_physical_scenario(duration_s=9000.0)
        segs = harness.constant_segments(sc, bench_nrm, 900)
        assert len(segs) == 1
        assert segs[0][:2] == (0, 900)

    def test_profile_value_lookup(self):
        prof = [(0.0, 1.0), (100.0, 2.0)]
        assert harness._profile_value(prof, 50.0, 0.0) == 1.0
        assert harness._profile_value(prof, 100.0, 0.0) == 2.0
        assert harness._profile_value([], 5.0, 9.0) == 9.0


def benchmark_scenario(duration_s):
    """The shipped benchmark scenario, cut to ``duration_s``."""
    sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
    sc.duration_s = duration_s
    return sc


class TestControllerBuffers:
    """A controller's sweep and QP buffers are its own and are built once: no
    step keeps state in the weights or the modules, and no step allocates them."""

    # 200 steps of the benchmark scenario at N = 5 or of a profile at N = 10:
    # a stream of the same scenario would read the other's leftovers one step
    # late, and streams of two horizons catch what the weights or a module keep
    @pytest.mark.parametrize("pair", [("benchmark", "benchmark"), ("horizon10", "horizon10"),
                                      ("benchmark", "horizon10")],
                             ids=["benchmark-twice", "horizon10-twice", "both"])
    def test_interleaved_streams_yield_their_records_alone(self, bench_w, bench_spec, pair):
        scenarios = [benchmark_scenario(2000.0) if name == "benchmark" else
                     harness.Scenario(duration_s=2000.0, horizon=10,
                                      setpoints=[(0.0, 7.0), (300.0, 7.4), (1200.0, 7.1)],
                                      disturbances=[(800.0, 0.65)]) for name in pair]
        alone = [[repr(rec) for rec in harness.steps(sc, bench_w, bench_spec)]
                 for sc in scenarios]
        streams = [harness.steps(sc, bench_w, bench_spec) for sc in scenarios]
        interleaved = [[], []]
        for records in zip(*streams):       # one step of each stream in turn
            for out, rec in zip(interleaved, records):
                out.append(repr(rec))
        assert [len(records) for records in alone] == [200, 200]
        assert interleaved == alone

    def test_a_run_builds_its_buffers_once(self, bench_w, bench_spec, monkeypatch):
        # counted by spies, in exact numbers, in either mode and whatever the
        # run's length: three workspaces, the controller's sweep and its
        # reference calculation's step, and the closed loop's one step, in
        # which the initial estimate, the observer and the nominal plant
        # model run; and no dual QP (every QP of these runs takes the early exit)
        built, dual = [], []
        init, dual_qp = lstm.Workspace.__init__, mpc._dual_qp
        monkeypatch.setattr(lstm.Workspace, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(mpc, "_dual_qp", lambda *args: dual.append(1) or dual_qp(*args))
        counts = []
        for duration_s in (500.0, 1000.0):
            for sc in (benchmark_scenario(duration_s),
                       harness.Scenario(duration_s=duration_s, mode="nominal",
                                        setpoints=[(0.0, 7.2)], seed=2)):
                built.clear()
                dual.clear()
                report = harness.run_scenario(sc, bench_w, spec=bench_spec)
                counts.append((sc.mode, report.steps, len(built), len(dual)))
        assert counts == [("physical", 50, 3, 0), ("nominal", 50, 3, 0),
                          ("physical", 100, 3, 0), ("nominal", 100, 3, 0)]


class TestRunScenario:
    # Scenario is mutable: a field assigned after construction is checked
    # when the run starts, before any step
    @BAD_FIELDS
    def test_rejects_field_assigned_after_construction(self, bench_w, bench_spec, monkeypatch,
                                                       fields, error, message):
        sc = tiny_physical_scenario(duration_s=100.0)
        for field, value in fields.items():
            setattr(sc, field, value)
        calls = count_controller_steps(monkeypatch)
        with pytest.raises(error, match=f"^{message}"):
            harness.run_scenario(sc, bench_w, spec=bench_spec)
        # the set-up is eager: the stream raises on the call, before any record
        with pytest.raises(error, match=f"^{message}"):
            harness.steps(sc, bench_w, bench_spec)
        assert calls == []

    def test_runs_valid_fields_assigned_after_construction(self, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=100.0)
        sc.setpoints = [[0.0, 7.0], [30.0, 7.2]]
        sc.duration_s = 60.0
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert report.steps == 6
        assert sc.setpoints == [(0.0, 7.0), (30.0, 7.2)]
        again = tiny_physical_scenario(duration_s=60.0, setpoints=[(0.0, 7.0), (30.0, 7.2)])
        assert harness.run_scenario(again, bench_w, spec=bench_spec).trace == report.trace

    def test_zero_duration(self, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=0.0)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert report.steps == 0
        assert report.constraint_violations == 0
        assert report.segment_errors == []

    def test_csv_byte_reproducibility(self, tmp_path, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=200.0)
        paths = []
        for tag in ("a", "b"):
            report = harness.run_scenario(sc, bench_w, spec=bench_spec)
            p = tmp_path / f"trace_{tag}.csv"
            report.save_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_schema(self, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=100.0)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert list(report.trace) == harness.TRACE_COLUMNS
        assert report.steps == 10
        assert all(len(v) == 10 for v in report.trace.values())

    def test_observer_section_fixes_its_own_gains(self, bench):
        # the gains are the weights': the section and its ObserverSpec agree,
        # and the shipped section holds the gains that select_gains picks
        # for weights without one
        w, obs_doc = bench
        spec = observer.ObserverSpec.from_dict(obs_doc)

        def trace(gains):
            sc = tiny_physical_scenario(duration_s=100.0)
            return harness.run_scenario(sc, w, spec=gains).trace

        shipped = trace(obs_doc)
        assert trace(spec) == trace(None) == trace(observer.select_gains(w)) == shipped
        other = observer.select_gains(w, d_max=0.09, l_d=0.2, w_bar=0.005)
        assert trace(other)["e_o"] != shipped["e_o"]

    def test_eo_trace_matches_affine_recursion(self, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=200.0)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        e = sc.e_o0
        for logged in report.trace["e_o"]:
            assert logged == pytest.approx(e, abs=1e-15)
            e = bench_spec.rho_o * e + bench_spec.w_bar

    def test_nominal_mode_estimate_and_tracking(self, bench_w, bench_spec):
        sc = harness.Scenario(duration_s=3000.0, mode="nominal",
                              setpoints=[(0.0, 7.2)], seed=2)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert report.constraint_violations == 0
        assert report.feasibility_losses == 0
        # true model state known: V_o is logged and must shrink to ~0
        v_o = report.trace["V_o"]
        assert v_o[-1] < 1e-3 * max(v_o[0], 1e-9)
        # asymptotic tracking of the constant set-point
        err = [abs(y - y0) for y, y0 in zip(report.trace["y_phys"],
                                            report.trace["y0_phys"])]
        assert max(err[-20:]) < 1e-3

    def test_nominal_mode_vo_bounded_by_eo(self, bench_w, bench_spec):
        sc = harness.Scenario(duration_s=2000.0, mode="nominal",
                              setpoints=[(0.0, 7.0)], seed=5, e_o0=0.5)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        for v, e in zip(report.trace["V_o"], report.trace["e_o"]):
            assert v <= e + 1e-9

    def test_nominal_mode_vo_is_error_of_same_step(self, bench_w, bench_spec):
        # the seeded initial error is scaled to V_o(0) = 0.9 e_o0; pairing the
        # estimate with the state after the plant advance logs 0.321 instead
        sc = harness.Scenario(duration_s=100.0, mode="nominal",
                              setpoints=[(0.0, 7.2)], seed=2)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert report.trace["V_o"][0] == pytest.approx(0.9 * sc.e_o0, abs=1e-12)

    def test_nominal_mode_disturbance_beyond_d_max_raises(self, bench_w, bench_spec,
                                                          monkeypatch):
        steps = count_controller_steps(monkeypatch)
        with pytest.raises(DomainViolationError, match="d_max"):
            harness.run_scenario(out_of_assumption_scenario(), bench_w, spec=bench_spec)
        assert len(steps) == 733

    def test_nominal_mode_increment_beyond_w_max_raises_in_set_up(self, bench_w, bench_spec,
                                                                 monkeypatch):
        # the certified envelope e_o holds only while |w| <= w_max: named before any record
        steps = count_controller_steps(monkeypatch)
        with pytest.raises(DomainViolationError, match=r"^disturbance increment 0.02 at t = "
                           r"0.0 s exceeds the w_max = 0.0001378 that w_bar = 0.01 certifies$"):
            harness.steps(beyond_w_max_scenario(), bench_w, bench_spec)
        assert not steps
        # a scripted w moves each of p outputs' d, so its norm is |w| sqrt(p)
        sc = harness.Scenario(mode="nominal", disturbance_increments=[(0.0, 0.8)])
        with pytest.raises(DomainViolationError, match="0.8 at t = 0.0 s exceeds the w_max = 1"):
            harness.NominalPlant(sc, SimpleNamespace(p=2), SimpleNamespace(w_max=1.0, w_bar=72.5),
                                 None, None)

    @pytest.mark.parametrize("seed", range(6))
    def test_nominal_mode_meets_the_observer_bound_at_w_max(self, bench_w, bench_spec, seed):
        # increments at the certified w_max, the sign switching every 50 steps: the
        # observer error meets V_o(k+1) <= rho_o V_o(k) + w_bar and V_o <= e_o at every step
        w_k = bench_spec.w_max * (1.0 - 1e-12) * (-1.0) ** seed
        sc = harness.Scenario(duration_s=1500.0, mode="nominal", seed=seed,
                              disturbance_increments=[(0.0, w_k), (500.0, -w_k), (1000.0, w_k)])
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        v_o, e_o = report.trace["V_o"], report.trace["e_o"]
        assert report.steps == 150
        for k in range(149):
            assert v_o[k + 1] <= bench_spec.rho_o * v_o[k] + bench_spec.w_bar + 1e-9
        assert all(v <= e + 1e-9 for v, e in zip(v_o, e_o))

    def test_feasibility_loss_ends_run_and_is_counted(self, bench_w, bench_spec,
                                                      monkeypatch):
        calls = count_controller_steps(monkeypatch, fail_at=4)
        report = harness.run_scenario(tiny_physical_scenario(duration_s=100.0), bench_w,
                                      spec=bench_spec)
        assert (report.steps, report.feasibility_losses, report.candidate_checks) == (3, 1, 2)
        assert len(report.solver_iterations) == 3
        assert all(len(v) == 3 for v in report.trace.values())
        # the stream ends in the loss's own record, which has no row
        calls.clear()
        records = list(harness.steps(tiny_physical_scenario(duration_s=100.0), bench_w,
                                     bench_spec))
        assert [r.outcome for r in records] == ["ok"] * 3 + ["feasibility-loss"]
        assert records[-1].row is None and all(r.row for r in records[:-1])

    def test_records_are_the_trace_and_its_counters(self, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=100.0)
        records = list(harness.steps(sc, bench_w, bench_spec))
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert len(records) == report.steps == 10
        assert [r.row for r in records] == list(zip(*report.trace.values()))
        assert [r.outcome for r in records] == ["ok"] * 10
        assert [r.solver_iterations for r in records] == report.solver_iterations
        assert max(r.candidate_violation for r in records[1:]) == report.max_candidate_violation
        assert harness.RunReport(sc, bench_w, records).summary() == report.summary()
        # scalars only, and frozen
        assert all(type(v) in (float, str) for v in records[0].row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[0].outcome = "feasibility-loss"

    @pytest.mark.parametrize("fail_at, steps, t_end", [(10, 9, None), (90, 89, 880.0),
                                                      (None, 100, 990.0)])
    def test_segment_cut_short_by_an_early_stop(self, bench_w, bench_spec, monkeypatch,
                                                fail_at, steps, t_end):
        # a flat 1000 s segment's error is the largest over its last 200 s
        # (20 steps) that ran; one left shorter than that by the stop is skipped
        count_controller_steps(monkeypatch, fail_at=fail_at)
        report = harness.run_scenario(tiny_physical_scenario(duration_s=1000.0), bench_w,
                                      spec=bench_spec)
        assert report.steps == steps
        if t_end is None:
            assert report.segment_errors == []
            return
        [(t_start, t_stop, y0, err)] = report.segment_errors
        assert (t_start, t_stop) == (0.0, t_end) and y0 == pytest.approx(7.0, abs=1e-12)
        tail = zip(report.trace["y_phys"][-20:], report.trace["y0_phys"][-20:])
        assert err == max(abs(y - y_ref) for y, y_ref in tail)

    def test_plant_calls_go_through_the_module(self, bench_w, bench_spec, monkeypatch):
        # wrappers installed on the plant module, as the benchmark installs
        # its spans, see every call the loop makes
        calls = {"plant_step": 0, "measure_ph": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(plant, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(plant, name, counted)
        report = harness.run_scenario(tiny_physical_scenario(duration_s=100.0), bench_w,
                                      spec=bench_spec)
        assert report.steps == 10
        assert calls == {"plant_step": 10, "measure_ph": 11}

    @pytest.mark.parametrize("mode", ["physical", "nominal"])
    def test_no_weights_built_in_run(self, bench_w, bench_spec, monkeypatch, mode):
        # the run steps on the weights it is given, so no control step,
        # observer update or plant step forms the cell operands again
        built = []
        init = lstm.LstmWeights.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(lstm.LstmWeights, "__init__", counted_init)
        sc = (tiny_physical_scenario(duration_s=100.0) if mode == "physical"
              else harness.Scenario(duration_s=100.0, mode="nominal"))
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert report.steps == 10
        assert built == []

    def test_rejects_unknown_mode(self):
        # on construction, before run_scenario could pick a plant adapter
        with pytest.raises(ValueError, match="^mode must be one of"):
            tiny_physical_scenario(mode="imaginary")

    def test_rejects_weights_without_ranges(self):
        from conftest import small_net
        sc = tiny_physical_scenario()
        with pytest.raises(ValueError):
            harness.run_scenario(sc, small_net())

    def test_solver_iterations_telemetry(self, bench_w, bench_spec, monkeypatch):
        solutions = []
        solve = mpc.solve_fhocp

        def recording_solve(*args, **kwargs):
            # every third step solves to convergence, so that both the
            # "optimal" and the "iterate" status occur
            kwargs["real_time"] = len(solutions) % 3 != 0
            sol = solve(*args, **kwargs)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(mpc, "solve_fhocp", recording_solve)
        sc = tiny_physical_scenario(duration_s=200.0)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        assert report.solver_iterations == [s.solver_iterations for s in solutions]
        assert len(report.solver_iterations) == report.steps
        summary = report.summary()
        assert summary["solver_iterations_total"] == sum(
            s.solver_iterations for s in solutions)
        assert summary["solver_iterations_max"] == max(
            s.solver_iterations for s in solutions)
        assert summary["solver_iterations_p50"] == np.median(report.solver_iterations)
        statuses = [s.status for s in solutions]
        assert report.converged_steps == statuses.count("optimal") >= 1
        assert report.fallback_steps == statuses.count("candidate-fallback")
        assert statuses.count("iterate") >= 1
        assert summary["converged_steps"] == report.converged_steps
        assert list(report.trace) == harness.TRACE_COLUMNS

    def test_report_round_trip(self, tmp_path, bench_w, bench_spec):
        sc = tiny_physical_scenario(duration_s=100.0)
        report = harness.run_scenario(sc, bench_w, spec=bench_spec)
        report.save_json(tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["steps"] == report.steps
        assert doc["constraint_violations"] == 0


@pytest.fixture(scope="module")
def gen_data_dir(tmp_path_factory):
    """A small ``lstmpc gen-data`` directory: one 60-step sequence per split,
    seq_000.csv training, seq_001.csv validation and seq_002.csv test."""
    out = tmp_path_factory.mktemp("gen-data") / "ds"
    assert cli.main(["gen-data", "--out", str(out), "--seed", "1", "--n-train", "1",
                     "--n-val", "1", "--n-test", "1", "--steps", "60"]) == 0
    return out


def cell_edit(line_no, column, value):
    """The text edit that puts ``value`` in the 0-based ``column`` of the
    1-based line ``line_no`` of a sequence file."""
    def apply(text):
        lines = text.splitlines()
        cells = lines[line_no - 1].split(",")
        cells[column] = value
        lines[line_no - 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return apply


def manifest_edit(edit):
    """The text edit of a manifest whose document ``edit`` changes in place or
    replaces by the value it returns."""
    def apply(text):
        doc = json.loads(text)
        return json.dumps(edit(doc) or doc)
    return apply


class TestCli:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_certify_prints_certificate(self, capsys):
        rc = cli.main(["certify", "--weights", str(ASSETS / "model.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"]["rho_A_delta"] < 1.0
        assert doc["model"]["certified"] is True
        assert doc["observer"]["rho_o"] < 1.0
        assert len(doc["tightening"]["a"]) == 6

    @pytest.mark.parametrize("missing", ["u_range", "y_range"])
    def test_certify_k_bar_needs_both_ranges(self, tmp_path, capsys, missing):
        doc = json.loads((ASSETS / "model.json").read_text())
        doc[missing] = None
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["certify", "--weights", str(path), "--k-bar"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "ValueError",
            "message": "the K_bar estimate needs weights with u_range and y_range"}

    # stdout of `lstmpc certify`, pinned byte for byte; a change that moves
    # any constant regenerates these files and says why.
    # certify_no_observer.json holds the suboptimal gains at d_max 0.08,
    # l_d 0.3 and w_bar 0.005, written as the model's observer section
    @pytest.mark.parametrize("golden, flags", [
        ("certify_shipped.json", []),
        ("certify_k_bar.json", ["--k-bar"]),
        ("certify_no_observer.json", ["--horizon", "8"]),
    ])
    def test_certify_output_is_pinned(self, tmp_path, capsys, bench_w, golden, flags):
        path = ASSETS / "model.json"
        if golden == "certify_no_observer.json":
            path = tmp_path / "model.json"
            lstm.save_weights(bench_w, path, observer=observer.select_gains(
                bench_w, 0.08, 0.3, 0.005).to_dict())
        assert cli.main(["certify", "--weights", str(path), *flags]) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text()

    def test_certify_k_bar_solves_its_grid_in_one_workspace(self, capsys, monkeypatch):
        # refcalc.estimate_k_bar builds one workspace for its 9 x 4 grid of
        # set-points and disturbances, and every solve of the grid runs in it
        built, used = [], set()
        init, solve = lstm.Workspace.__init__, refcalc.solve_reference
        monkeypatch.setattr(lstm.Workspace, "__init__",
                            lambda self, *args: built.append(self) or init(self, *args))
        monkeypatch.setattr(refcalc, "solve_reference",
                            lambda *args: used.add(id(args[3])) or solve(*args))
        assert cli.main(["certify", "--weights", str(ASSETS / "model.json"), "--k-bar"]) == 0
        assert capsys.readouterr().out == (DATA / "certify_k_bar.json").read_text()
        assert len(built) == 1
        assert used == {id(built[0])}

    def test_certify_rejects_observer_section_without_a_gain(self, tmp_path, capsys):
        doc = json.loads((ASSETS / "model.json").read_text())
        del doc["observer"]["L_f"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "missing observer fields must be empty, got ['L_f']"}

    # weights-file fields rejected by name before the model is used; each
    # would otherwise end in a traceback (a top-level list, an observer list,
    # a 3-entry u_range once simulate builds its normalizer, an array or a gain
    # that is an object, a null d_max), load without a word (n, m, an unknown
    # key or observer key, an empty observer section, which ran the default
    # gains, a string d_max), be blamed on the forget gate (a NaN in W_y) or
    # on numpy (a string or ragged array, a NaN gain), or name only the bare
    # key (a missing array, u_max or n) or no file (text that is not JSON)
    @pytest.mark.parametrize("command, mutate, message", [
        ("certify", lambda doc: [doc], "weights must be a JSON object, got 'list'"),
        ("certify", lambda doc: doc.update(observer=[doc["observer"]]),
         "observer must be an object or null"),
        ("simulate", lambda doc: doc.update(u_range=[-1.0, 0.0, 1.0]),
         "u_range must be null or a finite (lo, hi) pair with lo < hi"),
        ("simulate", lambda doc: doc.update(y_range=[9.0, 5.0]), "y_range must be null"),
        ("certify", lambda doc: doc.update(y_range=[np.nan, 9.0]), "y_range must be null"),
        ("certify", lambda doc: doc.update(n=7), "n must be 5 as in the arrays, got 7"),
        ("certify", lambda doc: doc.update(m=True), "m must be 1 as in the arrays"),
        ("certify", lambda doc: doc.update(bogus=1),
         "unknown weights fields must be empty, got ['bogus']"),
        ("certify", lambda doc: doc["W_y"][0].__setitem__(0, np.nan), "W_y must be finite"),
        ("simulate", lambda doc: doc["b_o"].__setitem__(2, np.inf), "b_o must be finite"),
        ("certify", lambda doc: doc.update(u_max=None), "u_max must be finite and positive"),
        ("certify", lambda doc: doc.update(W_f={}),
         "W_f must be finite numbers of one shape, got {}"),
        ("simulate", lambda doc: doc.update(W_f="x"), "W_f must be finite numbers of one shape"),
        ("certify", lambda doc: doc["U_c"].__setitem__(0, doc["U_c"][0][:2]),
         "U_c must be finite numbers of one shape"),
        ("certify", lambda doc: doc["b_y"].__setitem__(0, True), "b_y must be finite numbers"),
        ("certify", lambda doc: doc.update(observer={}), "missing observer fields must be "
         "empty, got ['L_d', 'L_f', 'L_i', 'L_o', 'd_max']"),
        ("simulate", lambda doc: doc["observer"].update(L_x=1),
         "unknown observer fields must be empty, got ['L_x']"),
        ("certify", lambda doc: doc["observer"].update(L_f={}),
         "L_f must be finite numbers of one shape, got {}"),
        ("certify", lambda doc: doc["observer"].update(L_o="x"), "L_o must be finite numbers"),
        ("certify", lambda doc: doc["observer"].update(L_d=[[np.nan]]),
         "L_d must be finite numbers"),
        ("certify", lambda doc: doc["observer"].update(d_max=None),
         "d_max must be finite and positive, got None"),
        ("simulate", lambda doc: doc["observer"].update(d_max="0.1"),
         "d_max must be finite and positive, got '0.1'"),
        ("certify", lambda doc: doc["observer"].update(w_bar=[0.01]),
         "w_bar must be finite and nonnegative, got [0.01]"),
        *(("certify", lambda doc, key=key: doc.__delitem__(key),
           f"missing weights fields must be empty, got ['{key}']")
          for key in ("W_f", "b_y", "u_max", "n")),
        ("simulate", lambda doc: json.dumps(doc)[:-1], "<path> is not JSON: Expecting"),
    ], ids=["top-level-list", "observer-list", "u_range-3-entries", "y_range-reversed",
            "y_range-nan", "n", "m-bool", "unknown-key", "W_y-nan", "b_o-inf", "u_max-null",
            "W_f-object", "W_f-string", "U_c-ragged", "b_y-bool", "observer-empty",
            "observer-unknown-key", "L_f-object", "L_o-string", "L_d-nan", "d_max-null",
            "d_max-string", "w_bar-list", "W_f-missing", "b_y-missing", "u_max-missing",
            "n-missing", "not-json"])
    def test_weights_file_field_is_named(self, tmp_path, capsys, command, mutate, message):
        # a mutation that returns text writes it as is, so it need not be JSON
        doc = json.loads((ASSETS / "model.json").read_text())
        path = tmp_path / "model.json"
        mutated = mutate(doc) or doc
        path.write_text(mutated if isinstance(mutated, str) else json.dumps(mutated))
        sc_path = tmp_path / "sc.json"
        tiny_physical_scenario(duration_s=50.0).to_json(sc_path)
        argv = {"certify": ["certify", "--weights", str(path)],
                "simulate": ["simulate", "--scenario", str(sc_path), "--weights", str(path),
                             "--out", str(tmp_path / "run")]}[command]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(message.replace("<path>", str(path)))
        assert not (tmp_path / "run").exists()

    def test_certify_rejects_negative_w_bar(self, tmp_path, capsys):
        doc = json.loads((ASSETS / "model.json").read_text())
        doc["observer"]["w_bar"] = -0.01
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "ValueError"
        assert "w_bar" in err["message"]

    def test_certify_rejects_w_bar_whose_bound_overflows(self, tmp_path, capsys):
        # finite, but its e_bar_inf = w_bar / (1 - rho_o) is not, and JSON has no Infinity
        doc = json.loads((ASSETS / "model.json").read_text())
        doc["observer"]["w_bar"] = 1e308
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "ValueError", "message": "w_bar must be small enough that e_bar_inf and "
            "the margins b are finite, got 1e+308"}

    # each gain disagrees with the others and is caught when the observer
    # section is read, before the model is: n + 1 rows of L_f, a 2 x 2 L_d,
    # an L_i with two columns and an L_o with n - 1 rows, the others being
    # (n, p) = (5, 1) and (p, p) for L_d
    @pytest.mark.parametrize("gain, shape, names", [
        ("L_f", (6, 1), "for L_f of shape (6, 1)"), ("L_d", (2, 2), "not (1, 1)"),
        ("L_i", (5, 2), "not (5, 1)"), ("L_o", (4, 1), "not (5, 1)"),
    ], ids=["L_f", "L_d", "L_i-columns", "L_o-rows"])
    def test_certify_rejects_gain_of_wrong_shape(self, tmp_path, capsys, gain, shape, names):
        doc = json.loads((ASSETS / "model.json").read_text())
        assert (doc["n"], doc["p"]) == (5, 1)
        doc["observer"][gain] = np.eye(*shape).tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DimensionError"
        assert gain in err["message"] and names in err["message"]

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        sc = tiny_physical_scenario(duration_s=100.0)
        sc_path = tmp_path / "sc.json"
        sc.to_json(sc_path)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["constraint_violations"] == 0
        # the streamed trace is the one RunReport.save_csv writes of the same run
        w, obs_doc = lstm.load_weights(ASSETS / "model.json")
        harness.run_scenario(sc, w, spec=obs_doc).save_csv(tmp_path / "saved.csv")
        streamed = (tmp_path / "run" / "trace.csv").read_bytes()
        assert streamed == (tmp_path / "saved.csv").read_bytes()
        assert len(streamed.splitlines()) == 11

    def test_simulate_reports_disturbance_beyond_d_max(self, tmp_path, capsys, monkeypatch):
        sc_path = tmp_path / "sc.json"
        out_of_assumption_scenario().to_json(sc_path)
        steps = count_controller_steps(monkeypatch)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainViolationError"
        # the trace keeps the header and a row for each step that ran: the
        # plant advance of the last controller step raised, so that step has none
        rows = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert rows[0].split(",") == harness.TRACE_COLUMNS
        assert len(rows) - 1 == len(steps) - 1 == 732
        assert not (tmp_path / "run" / "report.json").exists()

    def test_simulate_rejects_increment_beyond_w_max(self, tmp_path, capsys, monkeypatch):
        sc_path = tmp_path / "sc.json"
        beyond_w_max_scenario().to_json(sc_path)
        steps = count_controller_steps(monkeypatch)
        assert cli.main(["simulate", "--scenario", str(sc_path),
                         "--weights", str(ASSETS / "model.json"),
                         "--out", str(tmp_path / "run")]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "DomainViolationError"
        assert "w_max" in err["message"] and "w_bar = 0.01" in err["message"]
        assert not steps and not (tmp_path / "run").exists()

    # gains whose band at e_o0 is empty (l_d 0.5), or leaves out the first
    # set-point, pH 7.0 (l_d 0.3: the band is 7.17-7.83), fail in the set-up,
    # before any step and before --out exists
    @pytest.mark.parametrize("l_d, message", [
        (0.3, "set-point too close to lower bound on output 0"),
        (0.5, "empty admissible band (0.161, -0.1123) on output 0 at e_o0 = 0.5: "
              "d_max = 0.1, L_d = [[0.5]], w_bar = 0.01"),
    ], ids=["l_d-0.3", "l_d-0.5"])
    def test_simulate_rejects_gains_without_an_admissible_set_point(
            self, tmp_path, capsys, monkeypatch, bench_w, l_d, message):
        path, sc_path = tmp_path / "model.json", tmp_path / "sc.json"
        lstm.save_weights(bench_w, path, observer=observer.select_gains(bench_w, l_d=l_d)
                          .to_dict())
        tiny_physical_scenario(duration_s=50.0).to_json(sc_path)
        steps = count_controller_steps(monkeypatch)
        assert cli.main(["simulate", "--scenario", str(sc_path), "--weights", str(path),
                         "--out", str(tmp_path / "run")]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": "InfeasibleSetpointError", "message": message}
        assert not steps and not (tmp_path / "run").exists()

    def test_simulate_rejects_a_readout_row_of_zeros(self, tmp_path, capsys):
        # the terminal radius divides by the readout norm: named in the set-up,
        # with no divide-by-zero warning and no other error after it
        doc = json.loads((ASSETS / "model.json").read_text())
        doc["W_y"] = [[0.0] * doc["n"]]
        path, sc_path = tmp_path / "model.json", tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        tiny_physical_scenario(duration_s=50.0).to_json(sc_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["simulate", "--scenario", str(sc_path), "--weights", str(path),
                           "--out", str(tmp_path / "run")])
        assert rc == 2 and caught == []
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith("W_y must be a readout with no row of zeros")
        assert not (tmp_path / "run").exists()

    def test_certify_rejects_a_readout_row_of_zeros(self, tmp_path, capsys):
        # a certificate for an output the model cannot move: before, certify
        # exited 0 and printed c_s [0.0]
        doc = json.loads((ASSETS / "model.json").read_text())
        doc["W_y"] = [[0.0] * doc["n"]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["certify", "--weights", str(path)])
        assert rc == 2 and caught == []
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith("W_y must be a readout with no row of zeros")

    @pytest.mark.parametrize("y_lb_phys, y_ub_phys", [(9.0, 6.0), (7.0, 7.0)])
    def test_simulate_rejects_unordered_output_bounds(self, tmp_path, capsys,
                                                      y_lb_phys, y_ub_phys):
        sc_path = tmp_path / "sc.json"
        tiny_physical_scenario(y_lb_phys=y_lb_phys, y_ub_phys=y_ub_phys).to_json(sc_path)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "y_lb is not below y_ub on output 0"}

    @BAD_FIELDS
    def test_simulate_rejects_bad_scenario_field(self, tmp_path, capsys, fields, error,
                                                 message):
        sc_path = tmp_path / "sc.json"
        tiny_physical_scenario(duration_s=100.0).to_json(sc_path)
        doc = json.loads(sc_path.read_text())
        doc.update(fields)
        sc_path.write_text(json.dumps(doc))
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == error.__name__
        assert err["message"].startswith(message)
        assert not (tmp_path / "run").exists()

    def test_simulate_requires_weights(self, tmp_path, capsys):
        sc = tiny_physical_scenario(duration_s=100.0)
        sc_path = tmp_path / "sc.json"
        sc.to_json(sc_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "--weights" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_simulate_without_a_section_runs_the_default_gains(self, tmp_path, capsys,
                                                               bench_w):
        sc_path = tmp_path / "sc.json"
        tiny_physical_scenario(duration_s=100.0).to_json(sc_path)
        bare = tmp_path / "bare.json"
        lstm.save_weights(bench_w, bare)
        traces = []
        for weights in (ASSETS / "model.json", bare):
            out = tmp_path / weights.stem
            assert cli.main(["simulate", "--scenario", str(sc_path), "--weights", str(weights),
                             "--out", str(out)]) == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
        assert len(traces[0].splitlines()) == 11

    def test_gen_data_writes_dataset(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "ds"), "--seed", "1",
                       "--n-train", "1", "--n-val", "1", "--n-test", "1",
                       "--steps", "60"])
        assert rc == 0
        ds = sysid.load_dataset(tmp_path / "ds")
        assert len(ds.train) == 1 and len(ds.val) == 1 and len(ds.test) == 1
        assert len(ds.train[0][0]) == 60

    def test_defaults_are_their_owners(self):
        # gen-data's and train's defaults are generate_dataset's and
        # TrainConfig's, read from them, except --seed's 1 for both
        parser = cli.build_parser()
        data = vars(parser.parse_args(["gen-data", "--out", "ds"]))
        train = vars(parser.parse_args(["train", "--data", "ds", "--out", "model.json"]))
        owner = inspect.signature(sysid.generate_dataset).parameters
        for name in ("n_train", "n_val", "n_test", "steps"):
            assert data[name] == owner[name].default, name
        cfg = sysid.TrainConfig()
        for arg, name in (("epochs", "epochs"), ("learning_rate", "learning_rate"),
                          ("lambda1", "lambda1"), ("lambda2", "lambda2"),
                          ("washout", "washout"), ("neurons", "n_neurons")):
            assert train[arg] == getattr(cfg, name), arg
        assert data["seed"] == train["seed"] == 1

    # dataset parts rejected by name before training; each would otherwise end
    # in a traceback (a manifest or normalization that is a list, a string
    # bound, a split entry that is not a file name, a sequence file with no
    # row or 2 columns), name only the bare key (a missing normalization or
    # test split), blame numpy or the ranges in general (text that is not
    # JSON, a NaN bound, a row of 4 columns) or pass without a word (an
    # unknown key or split, an infinite bound, which normalizes every input
    # to -1)
    @pytest.mark.parametrize("name, edit, message", [
        ("manifest.json", lambda text: text[:-1], "<dir>/manifest.json is not JSON: Expecting"),
        ("manifest.json", manifest_edit(lambda doc: [doc]),
         "manifest must be a JSON object, got 'list'"),
        ("manifest.json", manifest_edit(lambda doc: doc.__delitem__("normalization")),
         "missing manifest fields must be empty, got ['normalization']"),
        ("manifest.json", manifest_edit(lambda doc: doc.update(bogus=1)),
         "unknown manifest fields must be empty, got ['bogus']"),
        ("manifest.json", manifest_edit(lambda doc: doc.update(
            normalization=list(doc["normalization"].values()))),
         "normalization must be a JSON object, got 'list'"),
        ("manifest.json", manifest_edit(lambda doc: doc["normalization"].update(u_hi="17.0")),
         "(u_lo, u_hi) must be a finite (lo, hi) pair with lo < hi, got ("),
        ("manifest.json", manifest_edit(lambda doc: doc["normalization"].update(u_lo=np.nan)),
         "(u_lo, u_hi) must be a finite (lo, hi) pair with lo < hi, got (nan, "),
        ("manifest.json", manifest_edit(lambda doc: doc["normalization"].update(u_hi=np.inf)),
         "(u_lo, u_hi) must be a finite (lo, hi) pair with lo < hi, got ("),
        ("manifest.json", manifest_edit(lambda doc: doc["splits"].__delitem__("test")),
         "missing splits fields must be empty, got ['test']"),
        ("manifest.json", manifest_edit(lambda doc: doc["splits"].update(
            holdout=["seq_001.csv"])), "unknown splits fields must be empty, got ['holdout']"),
        ("manifest.json", manifest_edit(lambda doc: doc["splits"].update(train=[5])),
         "train split must be a list of file names, got [5]"),
        ("manifest.json", manifest_edit(lambda doc: doc["splits"].update(val=5)),
         "val split must be a list of file names, got 5"),
        ("seq_000.csv", lambda text: text.splitlines()[0] + "\n",
         "rows of seq_000.csv after its header must be at least 1, got 0"),
        ("seq_002.csv", lambda text: "".join(line.rsplit(",", 1)[0] + "\n"
                                             for line in text.splitlines()),
         "seq_002.csv line 2 must be 3 comma-separated values, got '0.0,"),
        ("seq_001.csv", lambda text: text.replace("\n40.0,", "\n40.0,0.0,", 1),
         "seq_001.csv line 6 must be 3 comma-separated values, got '40.0,0.0,"),
        ("seq_001.csv", cell_edit(4, 1, "abc"),
         "seq_001.csv line 4 must be 3 comma-separated numbers, got '20.0,abc,"),
    ], ids=["not-json", "manifest-list", "normalization-missing", "manifest-unknown-key",
            "normalization-list", "u_hi-string", "u_lo-nan", "u_hi-inf", "test-split-missing",
            "split-unknown", "split-entry-number", "split-not-a-list", "header-only",
            "two-columns", "four-column-row", "cell-not-a-number"])
    def test_dataset_file_field_is_named(self, tmp_path, capsys, gen_data_dir, name, edit,
                                         message):
        data = tmp_path / "ds"
        shutil.copytree(gen_data_dir, data)
        path = data / name
        path.write_text(edit(path.read_text()))
        out = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
                         "--init", str(ASSETS / "model.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(message.replace("<dir>", str(data)))
        assert not out.exists()

    def test_train_rejects_negative_learning_rate(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        seq = (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40))
        sysid.save_dataset(sysid.Dataset(train=[seq], val=[], test=[seq],
                                         normalizer=plant.Normalizer(-1.0, 1.0, 6.0, 8.0)),
                           tmp_path / "ds")
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--data", str(tmp_path / "ds"), "--out", str(out),
                       "--epochs", "1", "--washout", "5", "--learning-rate", "-0.001"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "learning_rate" in err["message"]
        assert not out.exists()

    def test_train_without_test_split_reports_no_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        seq = (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40))
        sysid.save_dataset(sysid.Dataset(train=[seq], val=[], test=[],
                                         normalizer=plant.Normalizer(-1.0, 1.0, 6.0, 8.0)),
                           tmp_path / "ds")
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--data", str(tmp_path / "ds"), "--out", str(out),
                       "--epochs", "0", "--init", str(ASSETS / "model.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "no test split" in printed and "nan" not in printed
        assert out.exists()

    def test_train_reports_test_fit_and_logs_every_other_epoch(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        seq = (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40))
        sysid.save_dataset(sysid.Dataset(train=[seq], val=[], test=[seq],
                                         normalizer=plant.Normalizer(-1.0, 1.0, 6.0, 8.0)),
                           tmp_path / "ds")
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--data", str(tmp_path / "ds"), "--out", str(out),
                       "--epochs", "3", "--washout", "5", "--log-every", "2",
                       "--init", str(ASSETS / "model.json")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [["epoch", "0"], ["epoch", "2"]]
        assert re.fullmatch(rf"saved {re.escape(str(out))}; test FIT -?\d+\.\d\d%", lines[-1])
        assert out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_train_rejects_non_finite_sample_before_training(self, tmp_path, capsys, split):
        rng = np.random.default_rng(0)
        seqs = {"train": (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)),
                "test": (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40))}
        sysid.save_dataset(sysid.Dataset(train=[seqs["train"]], val=[], test=[seqs["test"]],
                                         normalizer=plant.Normalizer(-1.0, 1.0, 6.0, 8.0)),
                           tmp_path / "ds")
        name = {"train": "seq_000.csv", "test": "seq_001.csv"}[split]
        path = tmp_path / "ds" / name
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--data", str(tmp_path / "ds"), "--out", str(out),
                       "--epochs", "1", "--washout", "5", "--init", str(ASSETS / "model.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{name} line 4 must be a finite (u_raw, y_raw) pair")
        assert not out.exists()

    def test_train_rejects_empty_training_split(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        seq = (rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40))
        sysid.save_dataset(sysid.Dataset(train=[], val=[], test=[seq],
                                         normalizer=plant.Normalizer(-1.0, 1.0, 6.0, 8.0)),
                           tmp_path / "ds")
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--data", str(tmp_path / "ds"), "--out", str(out),
                       "--epochs", "1", "--washout", "5"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "TrainingError", "message": "the training split is empty"}
        assert not out.exists()

    @pytest.mark.parametrize("case", ["certify-saturated", "train-init-saturated",
                                      "certify-horizon-zero", "certify-horizon-negative",
                                      "simulate-plant-override", "train-lambda1-nan"])
    def test_bad_input_is_a_one_line_json_error(self, tmp_path, capsys, case):
        doc = json.loads((ASSETS / "model.json").read_text())
        doc["b_f"] = [40.0] * len(doc["b_f"])        # sigma_f rounds to 1.0
        saturated = tmp_path / "saturated.json"
        saturated.write_text(json.dumps(doc))
        seq = tuple(np.random.default_rng(0).uniform(-1, 1, (2, 40)))
        sysid.save_dataset(sysid.Dataset(train=[seq], val=[], test=[],
                                         normalizer=plant.Normalizer(-1.0, 1.0, 6.0, 8.0)),
                           tmp_path / "ds")
        sc_path = tmp_path / "sc.json"
        tiny_physical_scenario(duration_s=50.0, plant_overrides={"n_exp": 0}).to_json(sc_path)
        model = str(ASSETS / "model.json")
        argv, error, message = {
            "certify-saturated": (["certify", "--weights", str(saturated)],
                                  "InstabilityError", "sigma_f"),
            "train-init-saturated": (["train", "--data", str(tmp_path / "ds"),
                                      "--out", str(tmp_path / "out.json"), "--epochs", "1",
                                      "--washout", "5", "--init", str(saturated)],
                                     "InstabilityError", "sigma_f"),
            "certify-horizon-zero": (["certify", "--weights", model, "--horizon", "0"],
                                     "ValueError", "horizon"),
            "certify-horizon-negative": (["certify", "--weights", model, "--horizon", "-3"],
                                         "ValueError", "horizon"),
            "simulate-plant-override": (["simulate", "--scenario", str(sc_path),
                                         "--weights", model, "--out", str(tmp_path / "run")],
                                        "ValueError", "n_exp"),
            "train-lambda1-nan": (["train", "--data", str(tmp_path / "ds"),
                                   "--out", str(tmp_path / "out.json"), "--epochs", "1",
                                   "--washout", "5", "--init", model, "--lambda1", "nan"],
                                  "ValueError", "lambda1 must be finite and nonnegative"),
        }[case]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        err = json.loads(out.err)
        assert err["error"] == error
        assert err["message"].startswith(message)
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "run").exists()

    def test_one_step_report_is_strict_json(self, tmp_path, capsys):
        # no candidate is checked in a 1-step run: its maximum is null, not -Infinity
        sc_path = tmp_path / "sc.json"
        tiny_physical_scenario(duration_s=10.0).to_json(sc_path)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"), "--out", str(tmp_path / "run")])
        assert rc == 0

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        for text in (capsys.readouterr().out, (tmp_path / "run" / "report.json").read_text()):
            doc = json.loads(text, parse_constant=reject)
            assert (doc["steps"], doc["candidate_checks"]) == (1, 0)
            assert doc["max_candidate_violation"] is None

    def test_bad_scenario_file_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # the removed keys, whose settings belong to the weights and the model
        removed = {"t_s": 10.0, "d_max": 0.1, "l_d": 0.1, "w_bar": 0.01, "model_path": None}
        docs = [({"warp_drive": 1}, "warp_drive"), ({"plant_overrides": {"bogus": 1}}, "bogus"),
                ({"plant_overrides": None}, "plant_overrides"),
                ([], "scenario must be a JSON object, got 'list'"),
                ("7.0", "scenario must be a JSON object, got 'str'"),
                *(({key: value}, f"unknown scenario fields must be empty, got ['{key}']")
                  for key, value in removed.items())]
        for text, name in [*((json.dumps(doc), name) for doc, name in docs),
                           ('{"seed": 1', f"{path} is not JSON: Expecting")]:
            path.write_text(text)
            rc = cli.main(["simulate", "--scenario", str(path), "--out",
                           str(tmp_path / "o"), "--weights", str(ASSETS / "model.json")])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert name in err["message"]
