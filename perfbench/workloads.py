"""The three benchmark workloads: set-up, one measured pass, and checks.

Every workload is a closed loop in the load sense: each step starts only
after the previous one has finished, on one thread, with no worker pool.

* ``closed_loop``: the shipped benchmark scenario (1000 steps, N = 5).
* ``long_horizon``: a seeded set-point / buffer-flow profile at N = 10.
* ``identification``: dataset generation, 10 warm-started training epochs,
  the delta-ISS certificate and FIT on the test split.

``run_pass`` returns the wall-clock readings of the pass (``span_ns``)
and of each of its steps (``steps_ns``: ``mpc.Controller.step`` in the
loops, one training epoch in identification). Given a ``RefClock``, it
also runs the clock's reference kernel between calls, so that the run can
turn these readings into calibrated times (see ``refclock``).
"""

import hashlib
import math
import time

import numpy as np

from lstmpc import harness, lstm, mpc, observer, plant, refcalc, sysid
from lstmpc.errors import LstmpcError

from tracer import Tracer

# Correctness thresholds.
MAX_CANDIDATE_VIOLATION = 1e-7
MAX_TRACKING_ERR_PH = 0.02
MIN_FIT_PCT = 85.0

# long_horizon profile generator.
LH_HORIZON = 10
LH_START_PH = 7.0                 # the plant's initial equilibrium
LH_SETPOINT_PH = (6.9, 7.6)
LH_Q2 = (0.45, 0.7)               # buffer flow, mL/s
LH_MIN_HOLD_S = 1200.0
LH_FLAT_S = (1000.0, 1500.0)      # flat part after the ramp (>= 800 s window)
LH_MIN_CHANGE_PH = 0.1

# identification pipeline.
ID_EPOCHS = 10

# Reference-kernel samples in an e2e pass: every CLOCK_STEPS control steps
# (about 70 ms), before every ``sysid.loss`` call (about 70 ms), and every
# CLOCK_PLANT_STEPS plant steps while the dataset is generated (about
# 70 ms); each costs about 1.1 ms, which the calibrated clock leaves out.
CLOCK_STEPS = 5
CLOCK_PLANT_STEPS = 300


def quantile(values, q):
    """Nearest-rank quantile; 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def load_model(assets):
    """Weights, certificate and observer constants of the shipped model."""
    w, obs_doc = lstm.load_weights(assets / "model.json")
    cert = lstm.incremental_lyapunov(w)
    spec = observer.ObserverSpec.from_dict(obs_doc)
    observer.observer_matrices(w, spec)
    observer.derive_constants(w, spec, w_bar=spec.w_bar)
    return w, cert, spec


def long_horizon_scenario(seed, y_range):
    """Seeded profile at horizon 10.

    Starts at pH 7.0 with the nominal buffer flow. Each later set-point is
    drawn in LH_SETPOINT_PH and held long enough for its rate-limited ramp
    plus a flat part drawn in LH_FLAT_S (and never less than
    LH_MIN_HOLD_S), so every segment gets a settled tracking window. The
    buffer flow changes only together with the set-point.
    """
    rng = np.random.default_rng(seed)
    sc = harness.Scenario(horizon=LH_HORIZON, seed=seed)
    ph_per_step = sc.ramp_rate * 0.5 * (y_range[1] - y_range[0])
    setpoints = [(0.0, LH_START_PH)]
    disturbances = []
    y = LH_START_PH
    t = sc.t_s * math.ceil(max(LH_MIN_HOLD_S, rng.uniform(*LH_FLAT_S)) / sc.t_s)
    while True:
        target = y
        while abs(target - y) < LH_MIN_CHANGE_PH:
            target = float(rng.uniform(*LH_SETPOINT_PH))
        q2 = float(rng.uniform(*LH_Q2))
        ramp_s = sc.t_s * math.ceil(abs(target - y) / ph_per_step)
        hold = max(LH_MIN_HOLD_S, ramp_s + rng.uniform(*LH_FLAT_S))
        hold = sc.t_s * math.ceil(hold / sc.t_s)
        if t + hold > sc.duration_s:
            break
        setpoints.append((t, target))
        disturbances.append((t, q2))
        t += hold
        y = target
    sc.setpoints = setpoints
    sc.disturbances = disturbances
    return sc


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ClosedLoop:
    """Physical-mode closed loop: ``harness.run_scenario`` on one scenario.

    The step of this workload is one ``mpc.Controller.step`` call
    (reference calculation plus FHOCP), timed by a span the pass installs.
    """

    kind = "closed_loop"

    def __init__(self, name, assets, out_dir, seed):
        self.name = name
        self.assets = assets
        self.out_dir = out_dir
        self.seed = seed
        self.scenario_path = out_dir / "scenario.json"

    def setup(self):
        """Load the model, derive its constants, build the scenario file and
        read it back, as the program's ``simulate`` command would."""
        self.w, self.cert, self.spec = load_model(self.assets)
        if self.name == "closed_loop":
            sc = harness.Scenario.from_json(self.assets / "benchmark_scenario.json")
        else:
            sc = long_horizon_scenario(self.seed, self.w.y_range)
        sc.to_json(self.scenario_path)
        self.scenario = harness.Scenario.from_json(self.scenario_path)

    def scheduled_steps(self):
        return int(round(self.scenario.duration_s / self.scenario.t_s))

    def run_pass(self, tr, clock=None):
        """One ``run_scenario``; ``tr`` is an open Tracer for this pass."""
        tr.span(mpc.Controller, "step", "mpc.Controller.step",
                keep_result=lambda out: (out[1].solver_iterations, out[1].candidate_violation))
        if clock is not None:
            tr.before(mpc.Controller, "step", clock.sample, every=CLOCK_STEPS)
            clock.sample()
        report, errors = None, {}
        t0 = time.perf_counter_ns()
        try:
            report = harness.run_scenario(self.scenario, self.w, spec=self.spec)
        except LstmpcError as exc:
            errors[type(exc).__name__] = 1
        t_end = time.perf_counter_ns()
        if clock is not None:
            clock.sample()
        iters = [r[0] for r in tr.results["mpc.Controller.step"]]
        cand = [r[1] for r in tr.results["mpc.Controller.step"]]
        steps_ns = tr.intervals_ns("mpc.Controller.step")
        started = len(steps_ns)

        scheduled = self.scheduled_steps()
        if report is None:
            completed = max(started - 1, 0)
        else:
            completed = report.steps
            if report.feasibility_losses:
                errors["FeasibilityLossError"] = report.feasibility_losses
        res = {"wall_s": (t_end - t0) * 1e-9, "span_ns": (t0, t_end), "steps_ns": steps_ns,
               "iterations": iters, "attempted": scheduled,
               "failed": scheduled - completed, "errors": errors, "checks": {}}
        if report is not None:
            trace_path = self.out_dir / "trace.csv"
            report.save_csv(trace_path)
            res["trace_sha256"] = _sha256(trace_path)
            seg = [s[3] for s in report.segment_errors]
            res["steps"] = report.steps
            res["tracking_err_max_ph"] = max(seg) if seg else None
            res["summary"] = report.summary()
            # the warm start of step k >= 1 is the shifted candidate; on a
            # ramp the set-point moved since the plan was made
            y0 = report.trace["y0_phys"]
            infeasible = [k for k in range(1, len(cand)) if cand[k] > MAX_CANDIDATE_VIOLATION]
            on_ramp = [k for k in infeasible if y0[k] != y0[k - 1]]
            res["candidate_infeasible_steps"] = len(infeasible)
            res["candidate_infeasible_ramp_steps"] = on_ramp
            res["checks"] = {
                "no_constraint_violations": report.constraint_violations == 0,
                "no_feasibility_losses": report.feasibility_losses == 0,
                "tracking_windows_settled":
                    bool(seg) and max(seg) < MAX_TRACKING_ERR_PH,
                "candidate_violation_le_1e-7_at_constant_setpoint":
                    len(infeasible) == len(on_ramp),
            }
            if self.name == "closed_loop":
                # the program's own claim on its shipped scenario: every step
                res["checks"]["candidate_violation_le_1e-7"] = \
                    report.max_candidate_violation <= MAX_CANDIDATE_VIOLATION
        res["checks"]["all_steps_completed"] = res["failed"] == 0
        return res


class Identification:
    """Plant excitation, warm-started training, certificate and FIT.

    The step of this workload is one training epoch, from the start of
    ``sysid.train`` or the end of the previous epoch to the epoch callback.
    """

    kind = "identification"

    def __init__(self, name, assets, out_dir, seed):
        self.name = name
        self.assets = assets
        self.out_dir = out_dir
        self.seed = seed

    def setup(self):
        """Load the warm-start model, derive its constants, build the
        training configuration."""
        self.w, self.cert, self.spec = load_model(self.assets)
        self.cfg = sysid.TrainConfig(epochs=ID_EPOCHS, n_neurons=self.w.n, seed=self.seed)

    def run_pass(self, tr, clock=None):
        """One identification; ``tr`` is an open Tracer for this pass."""
        if clock is not None:
            tr.before(sysid, "loss", clock.sample)
            tr.before(plant, "plant_step", clock.sample, every=CLOCK_PLANT_STEPS)
            clock.sample()
        epoch_ends = []

        def on_epoch(epoch, loss_value, margins):
            epoch_ends.append(time.perf_counter_ns())

        errors, checks = {}, {}
        fit = None
        t0 = t1 = time.perf_counter_ns()
        try:
            ds = sysid.generate_dataset(seed=self.seed)
            t1 = time.perf_counter_ns()
            w = sysid.train(ds, self.cfg, init=self.w, callback=on_epoch)
            certified = lstm.incremental_lyapunov(w).certified
            fit = sysid.evaluate_fit(w, ds.test, washout=self.cfg.washout)
        except LstmpcError as exc:
            errors[type(exc).__name__] = 1
            certified = False
        t_end = time.perf_counter_ns()
        if clock is not None:
            clock.sample()

        # epoch k lasts from the end of epoch k - 1 (or the start of training)
        # to its callback
        steps_ns = list(zip([t1, *epoch_ends], epoch_ends)) if not errors else []
        checks["no_training_error"] = not errors
        checks["certified"] = bool(certified)
        checks["fit_ge_85"] = fit is not None and fit >= MIN_FIT_PCT
        failed = 0 if all(checks.values()) else 1
        return {"wall_s": (t_end - t0) * 1e-9, "span_ns": (t0, t_end), "steps_ns": steps_ns,
                "dataset_s": (t1 - t0) * 1e-9,
                "epoch_s": [(b - a) * 1e-9 for a, b in steps_ns],
                "epochs_run": len(epoch_ends), "fit_pct": fit,
                "attempted": 1, "failed": failed, "errors": errors, "checks": checks}


WORKLOADS = {
    "closed_loop": ClosedLoop,
    "long_horizon": ClosedLoop,
    "identification": Identification,
}


# (owner, attribute, span name) at every layer boundary the traced pass
# times, besides mpc.Controller.step, which every closed-loop pass times.
LAYER_SPANS = [
    (harness, "run_scenario", "harness.run_scenario"),
    (mpc, "solve_fhocp", "mpc.solve_fhocp"),
    (refcalc, "solve_reference", "refcalc.solve_reference"),
    (plant, "plant_step", "plant.plant_step"),
    (plant, "measure_ph", "plant.measure_ph"),
    (observer, "observer_step", "observer.observer_step"),
    (sysid, "generate_dataset", "sysid.generate_dataset"),
    (sysid, "loss", "sysid.loss"),
    (sysid, "train", "sysid.train"),
    (sysid, "evaluate_fit", "sysid.evaluate_fit"),
    (lstm, "incremental_lyapunov", "lstm.incremental_lyapunov"),
]


def install_layer_spans(tr):
    """Spans at every layer boundary, plus a count of LSTM cell steps."""
    for owner, attr, name in LAYER_SPANS:
        keep = (lambda sol: (sol.solver_iterations, sol.status)) \
            if name == "mpc.solve_fhocp" else None
        tr.span(owner, attr, name, keep_result=keep)
    tr.count(lstm, "step", "lstm.step", also_inside=("refcalc.solve_reference",))


def originals():
    """Identity snapshot of every attribute the benchmark may wrap; used to
    prove that no wrapper is left installed after a run."""
    return [getattr(owner, attr) for owner, attr, _ in LAYER_SPANS] + \
        [mpc.Controller.step, lstm.step]


def layer_metrics(tr, res):
    """Per-layer metrics of one traced pass (``res`` is its pass result)."""
    fh_ms = [d * 1e3 for d in tr.durations_s("mpc.solve_fhocp")]
    fh_res = tr.results.get("mpc.solve_fhocp", [])
    iters = [r[0] for r in fh_res]
    optimal = sum(1 for r in fh_res if r[1] == "optimal")
    ref_ms = [d * 1e3 for d in tr.durations_s("refcalc.solve_reference")]
    ps_us = [d * 1e6 for d in tr.durations_s("plant.plant_step")]
    ph_us = [d * 1e6 for d in tr.durations_s("plant.measure_ph")]
    ob_us = [d * 1e6 for d in tr.durations_s("observer.observer_step")]
    loss_ms = [d * 1e3 for d in tr.durations_s("sysid.loss")]
    return {
        "mpc.fhocp_calls": (len(fh_ms), "count"),
        "mpc.fhocp_busy_s": (tr.busy_s("mpc.solve_fhocp"), "s"),
        "mpc.fhocp_ms_p50": (quantile(fh_ms, 0.5), "ms"),
        "mpc.fhocp_ms_p99": (quantile(fh_ms, 0.99), "ms"),
        "mpc.solver_iterations": (sum(iters), "count"),
        "mpc.solver_iterations_p99": (quantile(iters, 0.99), "count"),
        "mpc.optimal_share": (optimal / len(fh_res) if fh_res else 0.0, "share"),
        "mpc.controller_self_s": (tr.self_s("mpc.Controller.step"), "s"),
        "mpc.candidate_infeasible_steps": (res.get("candidate_infeasible_steps", 0), "count"),
        "refcalc.calls": (len(ref_ms), "count"),
        "refcalc.busy_s": (tr.busy_s("refcalc.solve_reference"), "s"),
        "refcalc.ms_p50": (quantile(ref_ms, 0.5), "ms"),
        "refcalc.failures": (tr.failures("refcalc.solve_reference"), "count"),
        "refcalc.model_evals": (tr.counts["lstm.step@refcalc.solve_reference"], "count"),
        "plant.step_calls": (len(ps_us), "count"),
        "plant.step_busy_s": (tr.busy_s("plant.plant_step"), "s"),
        "plant.step_us_p50": (quantile(ps_us, 0.5), "us"),
        "plant.ph_calls": (len(ph_us), "count"),
        "plant.ph_busy_s": (tr.busy_s("plant.measure_ph"), "s"),
        "plant.ph_us_p50": (quantile(ph_us, 0.5), "us"),
        "observer.calls": (len(ob_us), "count"),
        "observer.busy_s": (tr.busy_s("observer.observer_step"), "s"),
        "observer.us_p50": (quantile(ob_us, 0.5), "us"),
        "sysid.loss_calls": (len(loss_ms), "count"),
        "sysid.loss_busy_s": (tr.busy_s("sysid.loss"), "s"),
        "sysid.loss_ms_p50": (quantile(loss_ms, 0.5), "ms"),
        "sysid.train_self_s": (tr.self_s("sysid.train"), "s"),
        "sysid.dataset_s": (tr.busy_s("sysid.generate_dataset"), "s"),
        "sysid.dataset_self_s": (tr.self_s("sysid.generate_dataset"), "s"),
        "sysid.epoch_s_p50": (quantile(res.get("epoch_s", []), 0.5), "s"),
        "sysid.epochs_run": (res.get("epochs_run", 0), "count"),
        "sysid.fit_busy_s": (tr.busy_s("sysid.evaluate_fit"), "s"),
        "sysid.fit_pct": (res.get("fit_pct") or 0.0, "%"),
        "lstm.step_calls": (tr.counts["lstm.step"], "count"),
        "lstm.certify_s": (tr.busy_s("lstm.incremental_lyapunov"), "s"),
        "harness.self_s": (tr.self_s("harness.run_scenario"), "s"),
        "harness.tracking_err_max_ph": (res.get("tracking_err_max_ph") or 0.0, "pH"),
    }


def plain_pass(workload, clock=None):
    """One pass with only its step span (and the clock's samples)
    installed."""
    with Tracer() as tr:
        return workload.run_pass(tr, clock)


def traced_pass(workload):
    """One pass with every layer span installed; returns (result, tracer)."""
    with Tracer() as tr:
        install_layer_spans(tr)
        res = workload.run_pass(tr)
    return res, tr
