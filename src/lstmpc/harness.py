"""Closed-loop simulation engine, scenario scripting and reporting.

A scenario describes the set-point profile (piecewise constant targets
joined by rate-limited ramps), the disturbance profile, and the
controller/observer configuration. ``steps`` runs one loop body, one
``StepRecord`` per step, against the plant adapter of the scenario's mode
("physical", ``PhysicalPlant``, or "nominal", ``NominalPlant``), whose
``measure(t, chi_hat)`` gives (y normalized, pH, buffer flow d_phi, V_o)
at step k and ``advance(u_applied, u_phys)`` moves it to step k + 1.
"""

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import lstm, mpc, observer, plant, refcalc
from .errors import (FINITE, NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT,
                     DomainViolationError, FeasibilityLossError, InfeasibleSetpointError,
                     LstmpcError, check, check_object, read_json)
from .lstm import LstmState
from .observer import AugmentedState


MAX_STEPS = 10 ** 7     # the longest run a scenario may ask for, in control steps
# an output bound: ``plant.measure_ph`` finds every pH in [0, 14]
PH = (lambda v: FINITE[0](v) and 0.0 <= v <= 14.0, "a pH in [0, 14]")


@dataclass(slots=True)
class Scenario:
    """One closed-loop run, sampled at the model's period ``t_s`` = ``plant.T_S``;
    slotted, so assigning a name that is not a field raises AttributeError."""

    duration_s: float = 10000.0
    mode: str = "physical"                     # "physical" | "nominal"
    # (time_s, target_ph); targets are reached via rate-limited ramps.
    setpoints: list = field(default_factory=lambda: [(0.0, 7.0)])
    ramp_rate: float = 0.005                   # max |dy0/step|, normalized
    # physical mode: (time_s, q2 value in mL/s)
    disturbances: list = field(default_factory=list)
    # nominal mode: (time_s, w value) for the scripted increment
    disturbance_increments: list = field(default_factory=list)
    y_lb_phys: float = 6.0
    y_ub_phys: float = 9.0
    horizon: int = 5
    q_weight: float = 1.0
    r_weight: float = 1.0
    e_o0: float = 0.5
    seed: int = 0
    plant_overrides: dict = field(default_factory=dict)     # physical mode
    t_s = property(lambda self: plant.T_S)     # read-only, not a field

    def __post_init__(self):
        self.check()

    def check(self):
        """Rejects, naming the field, a value that would end the run in a bare
        error or distort it, or a setting the mode does not read; each profile
        becomes (time_s, value) tuples. Runs on construction and again in
        ``steps``, since a field may be assigned in between."""
        for name, (ok, text) in (("setpoints", FINITE), ("disturbance_increments", FINITE),
                                 ("disturbances", plant.PARAM_RULES["q2_nominal"])):
            check(name, getattr(self, name), (
                lambda p: isinstance(p, (list, tuple))
                and all(np.shape(x) == (2,) and FINITE[0](x[0]) and ok(x[1]) for x in p)
                and all(a[0] < b[0] for a, b in zip(p, p[1:])),
                f"(time_s, value) pairs at strictly increasing finite times, values {text}"))
            setattr(self, name, [tuple(x) for x in getattr(self, name)])
        for name, rule in (
                ("setpoints", (len, "nonempty")),
                ("duration_s", (lambda v: NONNEGATIVE[0](v) and v <= MAX_STEPS * plant.T_S,
                                f"{NONNEGATIVE[1]}, at most {MAX_STEPS} steps of {plant.T_S} s")),
                ("ramp_rate", POSITIVE), ("horizon", POSITIVE_INT), ("seed", NONNEGATIVE_INT),
                ("y_lb_phys", PH), ("y_ub_phys", (lambda v: PH[0](v) and v > self.y_lb_phys,
                                                  f"{PH[1]}, above y_lb_phys")),
                ("mode", (lambda v: v in list(_PLANTS), f"one of {list(_PLANTS)}")),
                ("plant_overrides", (lambda v: isinstance(v, dict) and set(v) <= {
                    f.name for f in fields(plant.PhParams)}, "a dict keyed by PhParams fields"))):
            check(name, getattr(self, name), rule)
        for name in _UNREAD[self.mode]:
            check(name, getattr(self, name), (lambda v: not v, f"empty in {self.mode} mode"))

    @classmethod
    def from_json(cls, path):
        """The scenario of a JSON object whose keys are fields, each optional."""
        return cls(**check_object("scenario", read_json(path), (), [f.name for f in fields(cls)]))

    def to_json(self, path):
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


TRACE_COLUMNS = ["t", "y0_phys", "y_phys", "u_phys", "d_phi", "d_hat",
                 "e_o", "V_o", "alpha_k", "cost", "status"]


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One control step of ``steps``, scalars only: its ``TRACE_COLUMNS`` row, the
    FHOCP's iterations and its warm start's output-constraint violation; ``outcome``
    is "ok", or "feasibility-loss" on a run's last record, which has no row."""

    row: tuple = None
    solver_iterations: int = None
    candidate_violation: float = None
    outcome: str = "ok"


def write_trace(path, records):
    """Write the trace CSV, the header, then each record's row as the record passes
    through, so a run that raises keeps the rows it ran; returns the records' list."""
    passed = []
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(TRACE_COLUMNS)
        for rec in records:
            passed.append(rec)
            if rec.row is not None:
                wr.writerow([repr(v) if isinstance(v, float) else v for v in rec.row])
    return passed


class RunReport:
    """Everything the acceptance checks need from one closed-loop run, derived
    once from the step records of ``sc`` on ``w``: ``trace`` (column -> list),
    the counters and ``segment_errors``, (t_start, t_end, y0, max |err| last
    200 s) of each flat span of the scheduled set-points, cut at the last step run."""

    def __init__(self, sc, w, records):
        self._records = records = list(records)
        ran = [r for r in records if r.outcome == "ok"]
        self.trace = trace = {c: [r.row[i] for r in ran] for i, c in enumerate(TRACE_COLUMNS)}
        self.steps = len(ran)
        self.feasibility_losses = sum(r.outcome == "feasibility-loss" for r in records)
        self.constraint_violations = sum(not (sc.y_lb_phys - 1e-9 <= y <= sc.y_ub_phys + 1e-9)
                                         for y in trace["y_phys"])
        # the warm start at step k >= 1 is the left-shifted previous plan, so its
        # violation measures the feasible-candidate mechanism
        candidates = [r.candidate_violation for r in ran[1:]]
        self.max_candidate_violation = float(max(candidates, default=-np.inf))
        self.candidate_checks = len(candidates)
        self.fallback_steps = trace["status"].count("candidate-fallback")
        self.converged_steps = trace["status"].count("optimal")    # the step test passed
        self.solver_iterations = [r.solver_iterations for r in ran]
        nrm = plant.Normalizer(*w.u_range, *w.y_range)
        window = max(1, int(round(200.0 / sc.t_s)))
        self.segment_errors = []
        for start, end, y0 in constant_segments(sc, nrm, int(round(sc.duration_s / sc.t_s))):
            end = min(end, self.steps)
            if end - start >= window:
                err = max(abs(y - y_ref) for y, y_ref in zip(trace["y_phys"][end - window:end],
                                                             trace["y0_phys"][end - window:end]))
                self.segment_errors.append((trace["t"][start], trace["t"][end - 1],
                                            float(nrm.denormalize_y(y0)), float(err)))

    def save_csv(self, path):
        write_trace(path, self._records)

    def summary(self):
        """The counters as ``report.json`` holds them; with no candidate
        checked, max_candidate_violation is None (JSON null), not -inf."""
        return {
            "steps": self.steps,
            "constraint_violations": self.constraint_violations,
            "feasibility_losses": self.feasibility_losses,
            "max_candidate_violation": self.max_candidate_violation
            if self.candidate_checks else None,
            "candidate_checks": self.candidate_checks,
            "fallback_steps": self.fallback_steps,
            "converged_steps": self.converged_steps,
            "segment_errors": self.segment_errors,
            "solver_iterations_total": int(sum(self.solver_iterations)),
            "solver_iterations_p50": float(np.median(self.solver_iterations))
            if self.solver_iterations else 0.0,
            "solver_iterations_max": max(self.solver_iterations, default=0),
        }

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=1)


def _profile_value(profile, t, default):
    """Last (time, value) entry at or before t."""
    value = default
    for t_i, v_i in profile:
        if t >= t_i:
            value = v_i
    return value


def setpoint_trace(sc, nrm, n_steps):
    """Normalized per-step set-point with rate-limited ramps to each target."""
    y0 = nrm.normalize_y(_profile_value(sc.setpoints, 0.0, sc.setpoints[0][1]))
    out = np.empty(n_steps)
    for k in range(n_steps):
        target = nrm.normalize_y(_profile_value(sc.setpoints, k * sc.t_s,
                                                sc.setpoints[0][1]))
        y0 = y0 + min(max(target - y0, -sc.ramp_rate), sc.ramp_rate)
        out[k] = y0
    return out


def constant_segments(sc, nrm, n_steps):
    """(start step, end step, y0 normalized) spans of 800 s or more with a flat set-point."""
    y0s = setpoint_trace(sc, nrm, n_steps)
    segs, start = [], 0
    for k in range(1, n_steps + 1):
        if k == n_steps or y0s[k] != y0s[k - 1]:
            if (k - start) * sc.t_s >= 800.0:
                segs.append((start, k, float(y0s[start])))
            start = k
    return segs


def initial_estimate(w, y0_norm, workspace):
    """Observer initialization: d = 0, model state at the equilibrium
    matching the nominal output, solved in the ``lstm.Workspace`` ``workspace``."""
    ref = refcalc.solve_reference(w, [y0_norm], [0.0], workspace)
    return AugmentedState(ref.x_bar.copy(), np.zeros(w.p))


class PhysicalPlant:
    """The pH process at the equilibrium of the initial buffer flow; the
    estimate starts at the model equilibrium of its pH, solved in the
    closed loop's one-step ``cell``. ``plant`` functions are looked up at
    call time, so wrappers installed there see every call."""

    def __init__(self, sc, w, spec, nrm, cell):
        self.sc, self.nrm = sc, nrm
        self.params = plant.PhParams(**sc.plant_overrides)
        q2_0 = _profile_value(sc.disturbances, 0.0, self.params.q2_nominal)
        try:
            self.x = plant.equilibrium(self.params, d_phi=q2_0)
            self.chi_hat0 = initial_estimate(
                w, nrm.normalize_y(plant.measure_ph(self.params, self.x)), cell)
        except LstmpcError as exc:      # no plant state, or no model state at its pH
            exc.args = (f"no initial state for plant_overrides {sc.plant_overrides} at the "
                        f"buffer flow {q2_0} mL/s of t = 0: {exc}",)
            raise

    def measure(self, t, chi_hat):
        self.q2 = _profile_value(self.sc.disturbances, t, self.params.q2_nominal)
        y_phys = plant.measure_ph(self.params, self.x)
        return np.atleast_1d(self.nrm.normalize_y(y_phys)), y_phys, self.q2, np.nan

    def advance(self, u_applied, u_phys):
        self.x = plant.plant_step(self.params, self.x, u_phys, self.q2, self.sc.t_s)


class NominalPlant:
    """The augmented model; the estimate starts at the equilibrium of the
    initial set-point, the true state off it by a seeded error scaled to
    V_o = 0.9 e_o0. The increment w scripted at t_k moves each output's d
    from step k to k + 1 through ``observer.augmented_step``. Each standing
    assumption raises DomainViolationError: the set-up, for a scripted
    |w| sqrt(p) > w_max, and ``augmented_step``, once |d| > d_max. The
    estimate and every step run in the closed loop's one-step ``cell``."""

    def __init__(self, sc, w, spec, nrm, cell):
        for t, w_k in sc.disturbance_increments:
            if abs(w_k) * np.sqrt(w.p) > spec.w_max:
                raise DomainViolationError(
                    f"disturbance increment {w_k} at t = {t} s exceeds the w_max = "
                    f"{spec.w_max:.4g} that w_bar = {spec.w_bar} certifies")
        self.sc, self.w, self.spec, self.nrm, self.cell = sc, w, spec, nrm, cell
        self.chi_hat0 = chi_hat = initial_estimate(w, setpoint_trace(sc, nrm, 1)[0], cell)
        rng = np.random.default_rng(sc.seed)
        err = AugmentedState(LstmState(rng.uniform(-1.0, 1.0, w.n), rng.uniform(-1.0, 1.0, w.n)),
                             rng.uniform(-1.0, 1.0, w.p))
        scale = 0.9 * sc.e_o0 / observer.v_o(spec, err, AugmentedState(LstmState(0.0, 0.0), 0.0))
        self.chi = AugmentedState(
            LstmState(chi_hat.x.c + scale * err.x.c, chi_hat.x.h + scale * err.x.h),
            np.clip(chi_hat.d + scale * err.d, -spec.d_max, spec.d_max))

    def measure(self, t, chi_hat):
        self.w_k = _profile_value(self.sc.disturbance_increments, t, 0.0)
        y = np.atleast_1d(observer.augmented_output(self.w, self.chi))
        return (y, float(self.nrm.denormalize_y(y[0])), np.nan,
                observer.v_o(self.spec, chi_hat, self.chi))

    def advance(self, u_applied, u_phys):
        self.chi = observer.augmented_step(self.w, self.chi, u_applied, self.cell,
                                           w_k=self.w_k, d_max=self.spec.d_max)


_PLANTS = {"physical": PhysicalPlant, "nominal": NominalPlant}
# the settings each mode's plant adapter never reads, so must leave empty;
# seed is not one of them, since a seeded profile may pass it in either mode
_UNREAD = {"physical": ("disturbance_increments",), "nominal": ("disturbances", "plant_overrides")}


def steps(sc, w, gains=None):
    """The closed loop of ``sc`` on ``w``, an iterator of one StepRecord per step.

    The set-up runs on the call, so a rejected scenario or model raises
    before any record: ``sc.check()``, the ranges, ``mpc.certify`` of the
    observer ``gains`` (an ObserverSpec or the weights' JSON section), the
    controller, the set-point trace, whose first set-point must be admissible at
    e_o0, and the plant adapter (the nominal one checks the increments against
    w_max). A FeasibilityLossError ends the stream in a "feasibility-loss" record."""
    sc.check()
    if w.u_range is None or w.y_range is None:
        raise ValueError("weights carry no normalization ranges")
    nrm = plant.Normalizer(*w.u_range, *w.y_range)
    certificate = mpc.certify(w, gains, sc.horizon, sc.q_weight)
    ctrl = mpc.Controller(certificate, r_weight=sc.r_weight, e_o0=sc.e_o0,
                          y_lb=nrm.normalize_y(sc.y_lb_phys), y_ub=nrm.normalize_y(sc.y_ub_phys))
    y0s = setpoint_trace(sc, nrm, int(round(sc.duration_s / sc.t_s)))
    try:
        certificate.terminal_alpha(y0s[:1], ctrl.y_lb, ctrl.y_ub, sc.e_o0)
    except InfeasibleSetpointError as exc:
        exc.args = (f"the setpoints start outside the admissible band at e_o0 = {sc.e_o0}: {exc}",)
        raise
    cell = lstm.Workspace(w.n, w.m, 1)      # the observer's and the plant adapter's step
    sim = _PLANTS[sc.mode](sc, w, certificate.spec, nrm, cell)

    def run(chi_hat):
        for k, y0 in enumerate(y0s):
            t = k * sc.t_s
            y, y_phys, d_phi, v_o = sim.measure(t, chi_hat)
            e_o = ctrl.e_o
            try:
                u, sol, _ = ctrl.step(chi_hat, np.atleast_1d(y0))
            except FeasibilityLossError:
                yield StepRecord(outcome="feasibility-loss")
                return
            u_applied = np.minimum(np.maximum(u, -w.u_max), w.u_max)
            u_phys = float(nrm.denormalize_u(u_applied[0]))
            sim.advance(u_applied, u_phys)
            chi_hat = observer.observer_step(w, certificate.spec, chi_hat, u_applied, y, cell)
            row = (t, nrm.denormalize_y(y0), y_phys, u_phys, d_phi, chi_hat.d[0],
                   e_o, v_o, ctrl.problem.alpha, sol.cost)
            yield StepRecord((*map(float, row), sol.status), sol.solver_iterations,
                             sol.candidate_violation)

    return run(sim.chi_hat0)


def run_scenario(sc, w, spec=None):
    """``steps`` run to its end and folded into a RunReport; ``spec`` is the
    observer gains that ``steps`` takes as ``gains``."""
    return RunReport(sc, w, steps(sc, w, spec))
