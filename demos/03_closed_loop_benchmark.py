"""Run the full closed-loop benchmark scenario against the pH plant.

Ten thousand seconds of operation: ramped set-point changes across the
admissible band, then a constant set-point while the unmeasured buffer
flow steps through three values. Writes the full trace to
benchmark_trace.csv and prints the tracking summary.
"""

from importlib import resources

from lstmpc import harness, lstm, observer

ASSET_DIR = resources.files("lstmpc") / "assets"

weights, obs_doc = lstm.load_weights(ASSET_DIR / "model.json")
spec = observer.ObserverSpec.from_dict(obs_doc)
observer.derive_constants(weights, spec, w_bar=spec.w_bar)

scenario = harness.Scenario.from_json(ASSET_DIR / "benchmark_scenario.json")
print(f"Running {scenario.duration_s:.0f} s of closed loop "
      f"({int(scenario.duration_s / scenario.t_s)} controller steps)...")
report = harness.run_scenario(scenario, weights, spec=spec)

print(f"\nSteps executed:        {report.steps}")
print(f"Constraint violations: {report.constraint_violations}")
print(f"Feasibility losses:    {report.feasibility_losses}")
print(f"Fallback steps:        {report.fallback_steps}")
print(f"Worst shifted-candidate violation: {report.max_candidate_violation:.2e}")

print("\nSteady-state tracking error (final 200 s of each constant segment):")
for t_start, t_end, y0, err in report.segment_errors:
    print(f"  t = {t_start:6.0f}..{t_end:6.0f} s  target pH {y0:.2f}  "
          f"max |error| = {err:.5f}")

report.save_csv("benchmark_trace.csv")
print("\nTrace written to benchmark_trace.csv")
