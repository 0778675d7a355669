"""Unit tests for scenario scripting, the closed-loop engine and the CLI."""

import json
import pathlib

import numpy as np
import pytest

from lstmpc import cli, harness, lstm, mpc, observer, plant, sysid
from lstmpc.errors import DomainViolationError, FeasibilityLossError

from conftest import ASSETS

DATA = pathlib.Path(__file__).resolve().parent / "data"


def tiny_physical_scenario(**kw):
    base = dict(duration_s=300.0, mode="physical",
                setpoints=[(0.0, 7.0)], disturbances=[])
    base.update(kw)
    return harness.Scenario(**base)


def out_of_assumption_scenario():
    """Nominal run whose scripted increment, twice w_bar per step, drives the
    true d past d_max = 0.1 within a few steps."""
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


class TestScenarioIo:
    def test_json_round_trip(self, tmp_path):
        sc = harness.Scenario.from_json(ASSETS / "benchmark_scenario.json")
        path = tmp_path / "sc.json"
        sc.to_json(path)
        sc2 = harness.Scenario.from_json(path)
        assert sc2 == sc

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


class TestRunScenario:
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
        # the scenario's d_max, l_d and w_bar apply only to weights without
        # an observer section; the section and its ObserverSpec agree, and
        # the shipped section holds the gains the scenario defaults select
        w, obs_doc = bench
        spec = observer.ObserverSpec.from_dict(obs_doc)
        other = {"d_max": 0.09, "l_d": 0.2, "w_bar": 0.005}

        def trace(gains, **kw):
            sc = tiny_physical_scenario(duration_s=100.0, **kw)
            return harness.run_scenario(sc, w, spec=gains).trace

        shipped = trace(obs_doc)
        assert trace(obs_doc, **other) == trace(spec) == trace(None) == shipped
        assert trace(None, **other)["e_o"] != shipped["e_o"]

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
        assert 1 <= len(steps) <= 10

    def test_feasibility_loss_ends_run_and_is_counted(self, bench_w, bench_spec,
                                                      monkeypatch):
        count_controller_steps(monkeypatch, fail_at=4)
        report = harness.run_scenario(tiny_physical_scenario(duration_s=100.0), bench_w,
                                      spec=bench_spec)
        assert (report.steps, report.feasibility_losses, report.candidate_checks) == (3, 1, 2)
        assert len(report.solver_iterations) == 3
        assert all(len(v) == 3 for v in report.trace.values())

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

    def test_rejects_unknown_mode(self, bench_w):
        sc = tiny_physical_scenario(mode="imaginary")
        with pytest.raises(ValueError):
            harness.run_scenario(sc, bench_w)

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
    # any constant regenerates these files and says why
    @pytest.mark.parametrize("golden, flags", [
        ("certify_shipped.json", []),
        ("certify_k_bar.json", ["--k-bar"]),
        ("certify_no_observer.json",
         ["--horizon", "8", "--d-max", "0.08", "--l-d", "0.3", "--w-bar", "0.005"]),
    ])
    def test_certify_output_is_pinned(self, tmp_path, capsys, golden, flags):
        path = ASSETS / "model.json"
        if golden == "certify_no_observer.json":
            doc = json.loads(path.read_text())
            del doc["observer"]
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path), *flags]) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text()

    def test_certify_rejects_observer_section_without_a_gain(self, tmp_path, capsys):
        doc = json.loads((ASSETS / "model.json").read_text())
        del doc["observer"]["L_f"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "KeyError", "message": "'L_f'"}

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

    # n + 1 rows of L_f, and a 2 x 2 L_d, on the (n, p) = (5, 1) model
    @pytest.mark.parametrize("gain, shape", [("L_f", (6, 1)), ("L_d", (2, 2))],
                             ids=["L_f", "L_d"])
    def test_certify_rejects_gain_of_wrong_shape(self, tmp_path, capsys, gain, shape):
        doc = json.loads((ASSETS / "model.json").read_text())
        assert (doc["n"], doc["p"]) == (5, 1)
        doc["observer"][gain] = np.eye(*shape).tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--weights", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DimensionError"
        assert gain in err["message"] and "(n, p) = (5, 1)" in err["message"]

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        sc = tiny_physical_scenario(duration_s=100.0)
        sc_path = tmp_path / "sc.json"
        sc.to_json(sc_path)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "trace.csv").exists()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["constraint_violations"] == 0

    def test_simulate_reports_disturbance_beyond_d_max(self, tmp_path, capsys):
        sc_path = tmp_path / "sc.json"
        out_of_assumption_scenario().to_json(sc_path)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--weights", str(ASSETS / "model.json"),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainViolationError"

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

    def test_simulate_requires_weights(self, tmp_path, capsys):
        sc = tiny_physical_scenario(duration_s=100.0)
        sc_path = tmp_path / "sc.json"
        sc.to_json(sc_path)
        rc = cli.main(["simulate", "--scenario", str(sc_path),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "weights" in err["message"]

    def test_gen_data_writes_dataset(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "ds"), "--seed", "1",
                       "--n-train", "1", "--n-val", "1", "--n-test", "1",
                       "--steps", "60"])
        assert rc == 0
        ds = sysid.load_dataset(tmp_path / "ds")
        assert len(ds.train) == 1 and len(ds.val) == 1 and len(ds.test) == 1
        assert len(ds.train[0][0]) == 60

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

    def test_bad_scenario_file_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for doc, name in (({"warp_drive": 1}, "warp_drive"),
                          ({"plant_overrides": {"bogus": 1}}, "bogus")):
            path.write_text(json.dumps(doc))
            rc = cli.main(["simulate", "--scenario", str(path), "--out",
                           str(tmp_path / "o"), "--weights", str(ASSETS / "model.json")])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert name in err["message"]
