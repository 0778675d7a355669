"""Exception types shared across the package, its one field check and document rule.

``check`` writes every "<name> must be <rule>, got <value>" message. A
rule is a (predicate, text) pair; every predicate is a comparison that
NaN fails, and no bool passes one.
"""

import json
import math
import numbers

import numpy as np


def check(name, value, rule):
    """Raise ValueError naming ``name`` unless ``rule``'s predicate holds for ``value``."""
    if not rule[0](value):
        raise ValueError(f"{name} must be {rule[1]}, got {value!r}")


def _is(kind, v):
    return isinstance(v, kind) and not isinstance(v, bool)


FINITE = (lambda v: _is(numbers.Real, v) and -math.inf < v < math.inf, "a finite real number")
POSITIVE = (lambda v: _is(numbers.Real, v) and 0 < v < math.inf, "finite and positive")
NONNEGATIVE = (lambda v: _is(numbers.Real, v) and 0 <= v < math.inf, "finite and nonnegative")
POSITIVE_INT = (lambda v: _is(numbers.Integral, v) and v >= 1, "a positive integer")
NONNEGATIVE_INT = (lambda v: _is(numbers.Integral, v) and v >= 0, "a nonnegative integer")
RANGE = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and FINITE[0](v[0])
         and FINITE[0](v[1]) and v[0] < v[1], "a finite (lo, hi) pair with lo < hi")


def read_json(path):
    """The document in the JSON file ``path``; ValueError naming the file if its text is not."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:     # a JSONDecodeError, or a UnicodeDecodeError on read
            raise ValueError(f"{path} is not JSON: {exc}") from None


def check_object(what, doc, required, optional=()):
    """``doc``, checked by name: a JSON object (a dict) with every ``required``
    key and no key outside ``required`` and ``optional``."""
    check(what, type(doc).__name__, (lambda v: v == "dict", "a JSON object"))
    for kind, names in (("unknown", set(doc) - {*required, *optional}),
                        ("missing", set(required) - set(doc))):
        check(f"{kind} {what} fields", sorted(names), (lambda v: not v, "empty"))
    return doc


def finite_array(name, value):
    """``value`` as a float array; ValueError naming ``name`` unless numpy reads it
    as finite integers or floats of one shape: the one rule for the arrays of a
    weights file and of its observer section."""
    try:
        a = np.asarray(value)
    except ValueError:     # a ragged list
        a = np.asarray(None)
    check(name, value, (lambda v: a.dtype.kind in "iuf" and bool(np.isfinite(a).all()),
                        "finite numbers of one shape"))
    return a.astype(float)


class LstmpcError(Exception):
    """Base class for all package errors."""


class DimensionError(LstmpcError, ValueError):
    """Array shapes are inconsistent with the operation."""


class InstabilityError(LstmpcError, ValueError):
    """A spectral-radius-below-one precondition failed."""


class NotSpdError(LstmpcError, ValueError):
    """Matrix expected to be symmetric positive definite is not."""


class UnphysicalStateError(LstmpcError, RuntimeError):
    """Plant state left its physical domain (negative level, no pH root)."""


class UndefinedMetricError(LstmpcError, ZeroDivisionError):
    """Metric denominator vanished (e.g. constant reference trace in FIT)."""


class TrainingError(LstmpcError, RuntimeError):
    """Training diverged or ended without a stability certificate."""


class GainSelectionError(LstmpcError, RuntimeError):
    """Observer gains rejected: uncertified model, L_d out of range or rho(A_d) >= 1."""


class InfeasibleReferenceError(LstmpcError, RuntimeError):
    """Equilibrium calculator could not produce an admissible reference.

    ``reason`` says why: ``"box"`` (the equilibrium input lies outside the
    +-u_max box), ``"diverged"`` (the iteration did not converge) or
    ``"singular"`` (the equilibrium Jacobian is singular, not finite or,
    with m != p, not square).
    """

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


class InfeasibleSetpointError(LstmpcError, ValueError):
    """Set-point violates the admissible band (terminal set radius <= 0)."""


class FeasibilityLossError(LstmpcError, RuntimeError):
    """The optimal control problem has no feasible point and no fallback."""


class DomainViolationError(LstmpcError, RuntimeError):
    """Simulated disturbance left its configured bounded set."""
