"""Closed-loop simulation engine, scenario scripting and reporting.

A scenario describes the set-point profile (piecewise constant targets
joined by rate-limited ramps), the disturbance profile, and the
controller/observer configuration. Two loop modes exist:

* "physical": the controlled plant is the pH neutralization ODE; the
  identified model only lives inside observer and controller.
* "nominal": the controlled plant IS the disturbance-augmented model
  driven by a scripted disturbance-increment sequence; used for the
  stability-oriented checks where the true model state is known.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import lstm, mpc, observer, plant, refcalc
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


def run_scenario(sc, w, spec=None):
    """Execute the closed loop; returns a RunReport.

    ``spec`` (ObserverSpec) is rebuilt from the scenario's observer
    settings when not supplied.
    """
    if w.u_range is None or w.y_range is None:
        raise ValueError("weights carry no normalization ranges")
    nrm = plant.Normalizer(*w.u_range, *w.y_range)
    cert = lstm.incremental_lyapunov(w)
    if spec is None:
        spec = observer.select_gains(w, d_max=sc.d_max, l_d=sc.l_d, w_bar=sc.w_bar)
    cfg = mpc.ControllerConfig(horizon=sc.horizon, q_weight=sc.q_weight,
                               r_weight=sc.r_weight, e_o0=sc.e_o0,
                               y_lb=nrm.normalize_y(sc.y_lb_phys),
                               y_ub=nrm.normalize_y(sc.y_ub_phys))
    ctrl = mpc.Controller(w, cert, spec, cfg)

    n_steps = int(round(sc.duration_s / sc.t_s))
    y0s = setpoint_trace(sc, nrm, n_steps)
    params = plant.PhParams(**sc.plant_overrides)

    physical = sc.mode == "physical"
    if physical:
        q2_0 = _profile_value(sc.disturbances, 0.0, params.q2_nominal)
        x_plant = plant.equilibrium(params, d_phi=q2_0)
        y_phys0 = plant.measure_ph(params, x_plant)
        chi_hat = initial_estimate(w, nrm.normalize_y(y_phys0))
        chi_true = None
    elif sc.mode == "nominal":
        # the estimate starts at the equilibrium of the initial set-point;
        # the seeded random initial estimation error lives in the true state
        # and is scaled so the initial error V_o stays within the configured
        # observer-error bound e_o0 (the loop's standing assumption)
        y0_init = y0s[0] if n_steps else nrm.normalize_y(sc.setpoints[0][1])
        chi_hat = initial_estimate(w, y0_init)
        rng = np.random.default_rng(sc.seed)
        err_c = rng.uniform(-1.0, 1.0, w.n)
        err_h = rng.uniform(-1.0, 1.0, w.n)
        err_d = rng.uniform(-1.0, 1.0, w.p)
        e = np.array([np.linalg.norm(err_c), np.linalg.norm(err_h),
                      np.linalg.norm(err_d)])
        scale = 0.9 * sc.e_o0 / float(np.sqrt(e @ spec.P_o @ e))
        chi_true = AugmentedState(
            LstmState(chi_hat.x.c + scale * err_c, chi_hat.x.h + scale * err_h),
            np.clip(chi_hat.d + scale * err_d, -spec.d_max, spec.d_max))
        x_plant = None
    else:
        raise ValueError(f"unknown mode {sc.mode!r}")

    trace = {c: [] for c in TRACE_COLUMNS}
    violations = 0
    losses = 0
    fallbacks = 0
    converged = 0
    max_cand_viol = -np.inf
    cand_checks = 0
    iterations = []

    for k in range(n_steps):
        t = k * sc.t_s
        y0 = y0s[k]
        if physical:
            q2 = _profile_value(sc.disturbances, t, params.q2_nominal)
            y_phys = plant.measure_ph(params, x_plant)
            y = np.atleast_1d(nrm.normalize_y(y_phys))
        else:
            q2 = np.nan
            w_k = _profile_value(sc.disturbance_increments, t, 0.0)
            chi_true = AugmentedState(chi_true.x, chi_true.d + w_k)
            y = np.atleast_1d(observer.augmented_output(w, chi_true))
            y_phys = float(nrm.denormalize_y(y[0]))

        e_o_now = ctrl.e_o
        try:
            u, sol, ref = ctrl.step(chi_hat, np.atleast_1d(y0))
        except FeasibilityLossError:
            losses += 1
            break
        if k > 0:
            # warm start at step k >= 1 is the left-shifted previous plan,
            # so its violation measures the feasible-candidate mechanism
            cand_checks += 1
            max_cand_viol = max(max_cand_viol, sol.candidate_violation)
        if sol.status == "candidate-fallback":
            fallbacks += 1
        elif sol.status == "optimal":
            converged += 1
        iterations.append(sol.solver_iterations)

        u_applied = np.clip(u, -w.u_max, w.u_max)
        u_phys = float(nrm.denormalize_u(u_applied[0]))
        if physical:
            x_plant = plant.plant_step(params, x_plant, u_phys, q2, sc.t_s)
            v_o_val = np.nan
        else:
            chi_true = AugmentedState(lstm.step(w, chi_true.x, u_applied), chi_true.d)
            v_o_val = observer.v_o(spec, chi_hat, chi_true)
        chi_hat = observer.observer_step(w, spec, chi_hat, u_applied, y)

        if not (sc.y_lb_phys - 1e-9 <= y_phys <= sc.y_ub_phys + 1e-9):
            violations += 1
        trace["t"].append(t)
        trace["y0_phys"].append(float(nrm.denormalize_y(y0)))
        trace["y_phys"].append(float(y_phys))
        trace["u_phys"].append(u_phys)
        trace["d_phi"].append(float(q2))
        trace["d_hat"].append(float(chi_hat.d[0]))
        trace["e_o"].append(float(e_o_now))
        trace["V_o"].append(float(v_o_val))
        trace["alpha_k"].append(float(ctrl.term.alpha_k))
        trace["cost"].append(float(sol.cost))
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

    return RunReport(trace=trace, steps=len(trace["t"]),
                     constraint_violations=violations, feasibility_losses=losses,
                     max_candidate_violation=float(max_cand_viol),
                     candidate_checks=cand_checks, fallback_steps=fallbacks,
                     converged_steps=converged,
                     segment_errors=segs, solver_iterations=iterations)

