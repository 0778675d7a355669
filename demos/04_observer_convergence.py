"""Watch the disturbance observer converge on the nominal model.

Co-simulates the disturbance-augmented model (the "true" system here)
and its observer from a randomized initial estimation error, and prints
the estimation-error Lyapunov value V_o against its guaranteed envelope
rho_o^k V_o(0).
"""

from importlib import resources

import numpy as np

from lstmpc import lstm, observer
from lstmpc.lstm import LstmState
from lstmpc.observer import AugmentedState

weights, obs_doc = lstm.load_weights(resources.files("lstmpc") / "assets" / "model.json")
spec = observer.ObserverSpec.from_dict(obs_doc)
observer.derive_constants(weights, spec, w_bar=spec.w_bar)

rng = np.random.default_rng(7)
truth = AugmentedState(
    LstmState(rng.uniform(-0.3, 0.3, weights.n), rng.uniform(-0.5, 0.5, weights.n)),
    rng.uniform(-spec.d_max, spec.d_max, weights.p))
estimate = AugmentedState(weights.zero_state(), np.zeros(weights.p))

v0 = observer.v_o(spec, estimate, truth)
print(f"V_o(0) = {v0:.2f},  guaranteed rate rho_o = {spec.rho_o:.4f}\n")
print(f"{'step':>5} {'V_o':>12} {'envelope':>12}")
for k in range(1, 301):
    u = rng.uniform(-1.0, 1.0, weights.m)
    y = observer.augmented_output(weights, truth)
    estimate = observer.observer_step(weights, spec, estimate, u, y)
    truth = observer.augmented_step(weights, truth, u)
    if k % 25 == 0:
        v = observer.v_o(spec, estimate, truth)
        print(f"{k:>5} {v:>12.6f} {spec.rho_o ** k * v0:>12.6f}")

print(f"\nFinal disturbance estimate error: "
      f"{abs(float(truth.d[0] - estimate.d[0])):.2e}")
