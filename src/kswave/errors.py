"""Exception hierarchy shared across the solver.

`PreconditionError` (`DegenerateError` included) is decided from the
parameters alone, before any integration; it is also a ValueError, and the
CLI exits 2 on it.  Every other `KswaveError` is found during a
computation (CLI exit 3).
"""


class KswaveError(Exception):
    """Base class for all solver errors."""


class DomainError(KswaveError):
    """Argument outside the admissible domain (flux inverse at |y| >= c, etc.)."""


class RegimeViolation(KswaveError):
    """Saturated-front or shooting precondition failed before or during computation."""


class PreconditionError(RegimeViolation, ValueError):
    """Precondition decided from the parameters alone, before any integration."""


class DegenerateError(PreconditionError):
    """Zero eigenvalue: equilibrium structure degenerate (sigma at sigma_star)."""


class StepSizeUnderflow(KswaveError):
    """Adaptive controller drove the step size below the representable floor."""


class DenominatorVanished(KswaveError):
    """Graph-form denominator lambda - W - gamma v^2 at its floor at the
    anchor, or a graph solve stalled where it vanishes (fold or pinch)."""


class SeedEscaped(KswaveError):
    """Manifold seed left the expected region for both eigenvector signs."""


class Inconclusive(KswaveError):
    """Trajectory hit the span cap without producing a classifiable signature."""


class NoDichotomy(KswaveError):
    """Bisection bracket ends classify identically after full expansion."""


class AnchorMismatch(KswaveError):
    """Orbit pieces disagree in (w, v) at a seam where they are joined."""


class RootNotFound(KswaveError):
    """Bracketed root finding met a NaN function value or did not converge."""


# Failures found during a computation: CLI exit 3, an error row (or a failed
# spot check) for one sweep point.
NUMERICAL_FAILURES = (KswaveError, FloatingPointError, OverflowError)
