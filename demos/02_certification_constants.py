"""Derive every robustness constant used by the controller.

Loads the shipped benchmark model, builds its certificate at horizon 5
with ``mpc.certify`` and walks through the certification chain: gate
bounds -> contraction matrix -> incremental Lyapunov function ->
observer error dynamics -> constraint-tightening schedule -> admissible
set-point band.
"""

from importlib import resources

import numpy as np

from lstmpc import lstm, mpc, plant

weights, obs_doc = lstm.load_weights(resources.files("lstmpc") / "assets" / "model.json")
nrm = plant.Normalizer(*weights.u_range, *weights.y_range)
certificate = mpc.certify(weights, obs_doc, horizon=5)

cert = certificate.model
print("Model contraction:")
print(f"  rho(A_delta) = {cert.rho_A:.4f}  (Jury margins r1 = {cert.r1:+.4f}, "
      f"r2 = {cert.r2:+.4f})")
print(f"  rho_s = {cert.rho_s:.4f},  c_sl = {cert.c_sl:.2f}, "
      f"c_su = {cert.c_su:.2f}")

spec = certificate.spec
print("\nObserver error dynamics:")
print(f"  rho(A_d) = {np.max(np.abs(np.linalg.eigvals(spec.A_d))):.4f}")
print(f"  rho_o = {spec.rho_o:.4f},  L_max = {spec.L_max:.4f}, "
      f"w_bar = {spec.w_bar}")
print(f"  asymptotic error bound e_inf = {spec.w_bar / (1 - spec.rho_o):.3f}")

sched = certificate.schedule
print("\nConstraint tightening over the horizon:")
for i, (a, b) in enumerate(zip(sched.a, sched.b)):
    print(f"  stage {i}:  a = {a[0]:.4f}   b = {b[0]:.5f}")

y_lb, y_ub = float(nrm.normalize_y(6.0)), float(nrm.normalize_y(9.0))
for label, e_o in (("initial (e_o = 0.5)", 0.5),
                   ("asymptotic", sched.e_bar_inf)):
    lo, hi = mpc.admissible_band(sched, y_lb, y_ub, spec.d_max, e_o)
    print(f"\nAdmissible set-point band, {label}: "
          f"[{float(nrm.denormalize_y(lo[0])):.2f}, "
          f"{float(nrm.denormalize_y(hi[0])):.2f}] pH")
