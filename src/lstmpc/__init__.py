"""Offset-free robust MPC with certified LSTM models.

Subpackages/modules:

* ``numerics`` — small dense matrix helpers (norms, Lyapunov solves)
* ``lstm`` — the LSTM model, contraction certificates, Lyapunov data
* ``sysid`` — plant excitation, datasets, penalized BPTT training
* ``observer`` — disturbance-augmented model and gated observer
* ``refcalc`` — equilibrium reference calculator and sensitivity
* ``mpc`` — constraint tightening, terminal ingredients, FHOCP solver
* ``plant`` — pH neutralization ODE ground truth and signal scaling
* ``harness`` — closed-loop scenarios and reporting
* ``cli`` — command-line entry point: gen-data, train, certify, simulate
"""

__version__ = "0.1.0"

__all__ = ["numerics", "lstm", "sysid", "observer", "refcalc", "mpc",
           "plant", "harness", "cli", "errors"]
