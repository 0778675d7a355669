"""Exception types shared across the package."""


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
