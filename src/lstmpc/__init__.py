"""Offset-free robust MPC with certified LSTM models; README.md's module
table says what each of ``__all__`` does."""

__version__ = "0.1.0"

__all__ = ["numerics", "lstm", "sysid", "observer", "refcalc", "mpc",
           "plant", "harness", "cli", "errors"]
