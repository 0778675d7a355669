"""Smoke tests of the benchmark itself (not collected by the package suite).

    python3 -m pytest -q perfbench/selftest.py

Each workload runs scaled down, in both modes, and must emit every metric
named in BENCHMARK.json with its unit and leave no wrapper installed.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import spread  # noqa: E402
import workloads as wl  # noqa: E402
from lstmpc import errors, harness, lstm, mpc, plant, sysid  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ASSETS = ROOT / "src" / "lstmpc" / "assets"
SMOKE_STEPS = 30
MS = 1_000_000  # ns


def _scaled_down(name, out_dir, monkeypatch):
    """A workload whose pass takes a second or so."""
    wk = wl.WORKLOADS[name](name, ASSETS, out_dir, 3)
    if wk.kind == "closed_loop":
        full_setup = wk.setup

        def setup():
            full_setup()
            wk.scenario.duration_s = SMOKE_STEPS * wk.scenario.t_s
        monkeypatch.setattr(wk, "setup", setup)
    else:
        monkeypatch.setattr(wl, "ID_EPOCHS", 1)
        monkeypatch.setattr(sysid, "generate_dataset", functools.partial(
            sysid.generate_dataset, n_train=2, n_val=1, n_test=1, steps=300))
    return wk


def _assert_emitted(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_e2e_run_emits_every_end_to_end_metric(name, tmp_path, monkeypatch):
    wk = _scaled_down(name, tmp_path, monkeypatch)
    before = wl.originals()
    passes, metrics, _, _ = run.run_e2e(wk)
    # a failed pass ends the run (the scaled-down identification misses FIT)
    assert len(passes) == (1 if passes[0]["failed"] else run.PASSES)
    assert passes[0]["attempted"] >= 1
    _assert_emitted(metrics, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(a is b for a, b in zip(before, wl.originals()))


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_emits_every_layer_metric_and_restores(name, tmp_path, monkeypatch):
    wk = _scaled_down(name, tmp_path, monkeypatch)
    before = wl.originals()
    passes, metrics, checks, _ = run.run_traced(wk, 3, tmp_path)
    _assert_emitted(metrics, BENCH["per_layer"])
    assert all(checks.values()), checks
    after = wl.originals()
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(f, "__wrapped__") for f in after)
    assert (tmp_path / "spans.csv").is_file()
    if wk.kind == "closed_loop":
        assert metrics["mpc.fhocp_calls"]["value"] == SMOKE_STEPS
        assert metrics["refcalc.model_evals"]["value"] > 0
    else:
        assert metrics["refcalc.calls"]["value"] == 0
        assert metrics["sysid.loss_calls"]["value"] == 2


def test_escaping_errors_are_counted_not_raised(tmp_path, monkeypatch):
    loop = _scaled_down("closed_loop", tmp_path, monkeypatch)
    loop.setup()
    step = plant.plant_step
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise errors.UnphysicalStateError("test")
        return step(*args, **kwargs)

    monkeypatch.setattr(plant, "plant_step", failing_step)
    res = wl.plain_pass(loop)
    assert res["errors"] == {"UnphysicalStateError": 1}
    assert (res["attempted"], res["failed"]) == (SMOKE_STEPS, SMOKE_STEPS - 4)

    ident = _scaled_down("identification", tmp_path, monkeypatch)

    def failing_train(*args, **kwargs):
        raise errors.TrainingError("test")

    monkeypatch.setattr(sysid, "train", failing_train)
    passes, metrics, _, _ = run.run_e2e(ident)
    assert passes[0]["errors"] == {"TrainingError": 1}
    assert (passes[0]["attempted"], passes[0]["failed"]) == (1, 1)
    assert metrics["step_ms_p50"]["value"] == 0.0


@pytest.mark.parametrize("name", ["closed_loop", "long_horizon"])
def test_infeasible_candidate_at_constant_setpoint_fails(name, tmp_path, monkeypatch):
    loop = _scaled_down(name, tmp_path, monkeypatch)
    loop.setup()
    solve = mpc.solve_fhocp
    calls = []

    def solve_with_bad_candidate(*args, **kwargs):
        calls.append(1)
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, candidate_violation=1e-3) if len(calls) == 5 else sol

    monkeypatch.setattr(mpc, "solve_fhocp", solve_with_bad_candidate)
    res = wl.plain_pass(loop)
    assert res["candidate_infeasible_steps"] == 1
    assert res["candidate_infeasible_ramp_steps"] == []
    assert not res["checks"]["candidate_violation_le_1e-7_at_constant_setpoint"]


def test_long_horizon_profile_rules():
    w, _ = lstm.load_weights(ASSETS / "model.json")
    for seed in range(20):
        sc = wl.long_horizon_scenario(seed, w.y_range)
        assert sc.horizon == wl.LH_HORIZON
        assert sc.setpoints[0] == (0.0, wl.LH_START_PH)
        times = [t for t, _ in sc.setpoints]
        assert [t for t, _ in sc.disturbances] == times[1:]
        holds = [b - a for a, b in zip(times, times[1:] + [sc.duration_s])]
        assert min(holds) >= wl.LH_MIN_HOLD_S
        assert all(wl.LH_SETPOINT_PH[0] <= y <= wl.LH_SETPOINT_PH[1] for _, y in sc.setpoints)
        assert all(wl.LH_Q2[0] <= q <= wl.LH_Q2[1] for _, q in sc.disturbances)
        # every set-point gets a flat, checked tracking window
        nrm = harness.plant.Normalizer(*w.u_range, *w.y_range)
        assert len(harness.constant_segments(sc, nrm, 1000)) == len(sc.setpoints)
    again = wl.long_horizon_scenario(7, w.y_range)
    assert again.setpoints == wl.long_horizon_scenario(7, w.y_range).setpoints


def test_tracer_self_time_and_restore():
    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    originals = (Box.inner, Box.outer)
    with Tracer() as tr:
        tr.span(Box, "inner", "inner")
        tr.span(Box, "outer", "outer")
        assert Box.outer() == 2
    assert (Box.inner, Box.outer) == originals
    assert [s[2] for s in tr.spans] == ["outer", "inner", "inner"]
    assert tr.spans[1][1] == tr.spans[2][1] == 0
    outer = tr.durations_s("outer")[0]
    assert tr.self_s("outer") == pytest.approx(outer - tr.busy_s("inner"), abs=1e-12)


def test_refclock_scales_by_the_kernel_time_around_an_interval():
    clock = refclock.RefClock()
    # kernel samples of 2 ms at 0, 10, 20 ms, then of 4 ms at 30, 40, 50 ms
    clock.samples = [(t * MS, t * MS + d * MS) for t, d in
                     [(0, 2), (10, 2), (20, 2), (30, 4), (40, 4), (50, 4)]]
    scale = refclock.REF_S / 2e-3
    # [2, 10] ms runs at the speed of the 2 ms samples
    assert clock.seconds(2 * MS, 10 * MS) == pytest.approx(8e-3 * scale)
    # a sample's own time is left out
    assert clock.seconds(0, 12 * MS) == pytest.approx(8e-3 * scale)
    # the slow part is scaled down by the slow kernel time
    assert clock.seconds(54 * MS, 60 * MS) == pytest.approx(6e-3 * refclock.REF_S / 4e-3)
    # the gap between the two speeds takes the median of its neighbours
    assert clock.seconds(22 * MS, 30 * MS) == pytest.approx(8e-3 * refclock.REF_S / 3e-3)


def test_spread_pairs_seeds_and_writes_baseline_layout(tmp_path, monkeypatch):
    calls = []

    def fake_run_once(workload, seed):
        calls.append(seed)
        metrics = {m["name"]: {"value": float(seed + len(calls)), "unit": m["unit"]}
                   for m in BENCH["end_to_end"]}
        return True, {"correct": True, "metrics": metrics}, \
            {"machine": {"nproc": 2}, "passes": [{"trace_sha256": "h"}]}

    monkeypatch.setattr(spread, "run_once", fake_run_once)
    out = tmp_path / "baseline.json"
    assert spread.main(["--workload", "closed_loop", "--runs", "3", "--json", str(out)]) == 0
    assert calls == [1, 1, 2, 2, 3, 3]
    doc = json.loads(out.read_text())
    assert doc["closed_loop_trace_sha256"] == ["h"]
    table = doc["workloads"]["closed_loop"]
    assert set(table) == {m["name"] for m in BENCH["end_to_end"]}
    for row in table.values():
        assert set(row) == {"bound", "A", "B", "b_over_a"}
        assert len(row["A"]["values"]) == len(row["B"]["values"]) == 3


def test_fails_without_package_source(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(BENCH["command"] + ["--workload", "closed_loop", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
