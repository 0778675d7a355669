"""Closed-loop simulation engine, scenario scripting and reporting.

A scenario describes the set-point profile (piecewise constant targets
joined by rate-limited ramps), the disturbance profile, and the
controller/observer configuration. ``run_scenario`` runs one loop body
against the plant adapter of the scenario's mode, whose ``measure(t,
chi_hat)`` gives (y normalized, pH, buffer flow d_phi, V_o) at step k
and ``advance(u_applied, u_phys)`` moves it to step k + 1:

* "physical", ``PhysicalPlant``: the pH neutralization ODE; the
  identified model only lives inside observer and controller.
* "nominal", ``NominalPlant``: the disturbance-augmented model driven by
  a scripted disturbance-increment sequence; its true state is known, so
  V_o, the observer error of step k's estimate, is too.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import mpc, observer, plant, refcalc
from .errors import FeasibilityLossError
from .lstm import LstmState
from .observer import AugmentedState


@dataclass
class Scenario:
    """Declarative description of one closed-loop run."""

    duration_s: float = 10000.0
    t_s: float = plant.T_S
    mode: str = "physical"                     # "physical" | "nominal"
    # (time_s, target_ph); targets are reached via rate-limited ramps.
    setpoints: list = field(default_factory=lambda: [(0.0, 7.0)])
    ramp_rate: float = 0.005                   # max |dy0/step|, normalized
    # (time_s, q2 value in mL/s); "nominal" mode ignores this and uses
    # disturbance_increments instead.
    disturbances: list = field(default_factory=list)
    # nominal mode: list of (time_s, w value) for the scripted increment.
    disturbance_increments: list = field(default_factory=list)
    y_lb_phys: float = 6.0
    y_ub_phys: float = 9.0
    horizon: int = 5
    q_weight: float = 1.0
    r_weight: float = 1.0
    e_o0: float = 0.5
    w_bar: float = 0.01
    d_max: float = 0.1
    l_d: float = 0.1
    seed: int = 0
    plant_overrides: dict = field(default_factory=dict)
    model_path: str | None = None

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        bad = set(doc) - set(cls.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown scenario fields: {sorted(bad)}")
        bad = set(doc.get("plant_overrides", {})) - set(plant.PhParams.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown plant_overrides keys: {sorted(bad)}")
        sc = cls(**doc)
        sc.setpoints = [tuple(x) for x in sc.setpoints]
        sc.disturbances = [tuple(x) for x in sc.disturbances]
        sc.disturbance_increments = [tuple(x) for x in sc.disturbance_increments]
        return sc

    def to_json(self, path):
        doc = {k: getattr(self, k) for k in self.__dataclass_fields__}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


TRACE_COLUMNS = ["t", "y0_phys", "y_phys", "u_phys", "d_phi", "d_hat",
                 "e_o", "V_o", "alpha_k", "cost", "status"]


@dataclass
class RunReport:
    """Everything the acceptance checks need from one closed-loop run."""

    trace: dict                      # column -> list
    steps: int
    constraint_violations: int
    feasibility_losses: int
    max_candidate_violation: float
    candidate_checks: int
    fallback_steps: int
    converged_steps: int             # steps with status "optimal": the step test passed
    segment_errors: list             # (t_start, t_end, y0, max |err| last 200 s)
    solver_iterations: list          # solve_fhocp iterations of each solved step

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(TRACE_COLUMNS)
            for k in range(self.steps):
                wr.writerow([repr(self.trace[c][k]) if isinstance(self.trace[c][k], float)
                             else self.trace[c][k] for c in TRACE_COLUMNS])

    def summary(self):
        return {
            "steps": self.steps,
            "constraint_violations": self.constraint_violations,
            "feasibility_losses": self.feasibility_losses,
            "max_candidate_violation": self.max_candidate_violation,
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
        delta = np.clip(target - y0, -sc.ramp_rate, sc.ramp_rate)
        y0 = y0 + delta
        out[k] = y0
    return out


def constant_segments(sc, nrm, n_steps, min_duration_s=800.0):
    """(start step, end step, y0 normalized) spans where the set-point is flat."""
    y0s = setpoint_trace(sc, nrm, n_steps)
    segs = []
    start = 0
    for k in range(1, n_steps + 1):
        if k == n_steps or y0s[k] != y0s[k - 1]:
            if (k - start) * sc.t_s >= min_duration_s:
                segs.append((start, k, float(y0s[start])))
            start = k
    return segs


def initial_estimate(w, y0_norm):
    """Observer initialization: d = 0, model state at the equilibrium
    matching the nominal output."""
    ref = refcalc.solve_reference(w, [y0_norm], [0.0])
    return AugmentedState(ref.x_bar.copy(), np.zeros(w.p))


class PhysicalPlant:
    """The pH process at the equilibrium of the initial buffer flow; the
    estimate starts at the model equilibrium of its pH. ``plant`` functions
    are looked up at call time, so wrappers installed there see every call."""

    def __init__(self, sc, w, spec, nrm):
        self.sc, self.nrm = sc, nrm
        self.params = plant.PhParams(**sc.plant_overrides)
        q2_0 = _profile_value(sc.disturbances, 0.0, self.params.q2_nominal)
        self.x = plant.equilibrium(self.params, d_phi=q2_0)
        self.chi_hat0 = initial_estimate(w, nrm.normalize_y(plant.measure_ph(self.params, self.x)))

    def measure(self, t, chi_hat):
        self.q2 = _profile_value(self.sc.disturbances, t, self.params.q2_nominal)
        y_phys = plant.measure_ph(self.params, self.x)
        return np.atleast_1d(self.nrm.normalize_y(y_phys)), y_phys, self.q2, np.nan

    def advance(self, u_applied, u_phys):
        self.x = plant.plant_step(self.params, self.x, u_phys, self.q2, self.sc.t_s)


class NominalPlant:
    """The augmented model; the estimate starts at the equilibrium of the
    initial set-point, the true state off it by a seeded error scaled to
    V_o = 0.9 e_o0. The increment scripted at t_k moves d from step k to
    k + 1 through ``observer.augmented_step``, which raises
    DomainViolationError once |d| > d_max: both are standing assumptions."""

    def __init__(self, sc, w, spec, nrm):
        self.sc, self.w, self.spec, self.nrm = sc, w, spec, nrm
        self.chi_hat0 = chi_hat = initial_estimate(w, setpoint_trace(sc, nrm, 1)[0])
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
        self.chi = observer.augmented_step(self.w, self.chi, u_applied, w_k=self.w_k,
                                           d_max=self.spec.d_max)


_PLANTS = {"physical": PhysicalPlant, "nominal": NominalPlant}


def run_scenario(sc, w, spec=None):
    """Execute the closed loop; returns a RunReport.

    ``mpc.certify`` builds the run's certificate from the observer gains
    ``spec`` (an ObserverSpec or the weights' JSON section; by default
    selected from the scenario's d_max, l_d, w_bar) and the scenario's
    horizon and q_weight. Each step measures the plant, runs
    ``Controller.step``, advances the plant, updates the observer and
    records a trace row; the counters come from the trace and from each
    solution's iteration count and candidate violation.
    """
    if w.u_range is None or w.y_range is None:
        raise ValueError("weights carry no normalization ranges")
    if sc.mode not in _PLANTS:
        raise ValueError(f"unknown mode {sc.mode!r}")
    nrm = plant.Normalizer(*w.u_range, *w.y_range)
    certificate = mpc.certify(w, spec, sc.horizon, sc.q_weight,
                              d_max=sc.d_max, l_d=sc.l_d, w_bar=sc.w_bar)
    cfg = mpc.ControllerConfig(r_weight=sc.r_weight, e_o0=sc.e_o0,
                               y_lb=nrm.normalize_y(sc.y_lb_phys),
                               y_ub=nrm.normalize_y(sc.y_ub_phys))
    ctrl = mpc.Controller(w, certificate, cfg)

    n_steps = int(round(sc.duration_s / sc.t_s))
    y0s = setpoint_trace(sc, nrm, n_steps)
    sim = _PLANTS[sc.mode](sc, w, certificate.spec, nrm)
    chi_hat = sim.chi_hat0

    trace = {c: [] for c in TRACE_COLUMNS}
    iterations, candidates = [], []
    for k in range(n_steps):
        t = k * sc.t_s
        y, y_phys, d_phi, v_o = sim.measure(t, chi_hat)
        e_o = ctrl.e_o
        try:
            u, sol, _ = ctrl.step(chi_hat, np.atleast_1d(y0s[k]))
        except FeasibilityLossError:
            break
        u_applied = np.clip(u, -w.u_max, w.u_max)
        u_phys = float(nrm.denormalize_u(u_applied[0]))
        sim.advance(u_applied, u_phys)
        chi_hat = observer.observer_step(w, certificate.spec, chi_hat, u_applied, y)
        iterations.append(sol.solver_iterations)
        candidates.append(sol.candidate_violation)
        row = (t, nrm.denormalize_y(y0s[k]), y_phys, u_phys, d_phi, chi_hat.d[0],
               e_o, v_o, ctrl.problem.alpha, sol.cost)
        for c, v in zip(TRACE_COLUMNS, row):
            trace[c].append(float(v))
        trace["status"].append(sol.status)

    segs = []
    window = max(1, int(round(200.0 / sc.t_s)))
    for start, end, y0 in constant_segments(sc, nrm, n_steps):
        end = min(end, len(trace["y_phys"]))
        if end - start < window:
            continue
        errs = [abs(trace["y_phys"][k] - trace["y0_phys"][k])
                for k in range(end - window, end)]
        segs.append((trace["t"][start], trace["t"][end - 1], float(nrm.denormalize_y(y0)),
                     float(max(errs))))

    statuses = trace["status"]
    # the warm start at step k >= 1 is the left-shifted previous plan, so its
    # violation measures the feasible-candidate mechanism
    candidates = candidates[1:]
    violations = sum(not (sc.y_lb_phys - 1e-9 <= y <= sc.y_ub_phys + 1e-9)
                     for y in trace["y_phys"])
    return RunReport(trace=trace, steps=len(statuses), constraint_violations=violations,
                     feasibility_losses=int(len(statuses) < n_steps),
                     max_candidate_violation=float(max(candidates, default=-np.inf)),
                     candidate_checks=len(candidates),
                     fallback_steps=statuses.count("candidate-fallback"),
                     converged_steps=statuses.count("optimal"), segment_errors=segs,
                     solver_iterations=iterations)
