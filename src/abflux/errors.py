"""Exception types shared across the package.

Each failure mode gets its own class so callers (and the CLI, which
prints the class name as a machine-readable code) can tell them apart
without parsing messages.
"""


class AbfluxError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRadius(AbfluxError):
    """A radius that must be positive (or above the solenoid's R) is not."""


class FieldUndefinedOnSolenoid(AbfluxError):
    """Evaluation was requested at a point that rounding cannot keep off rho = R."""


class StencilCrossesSolenoid(AbfluxError):
    """A finite-difference stencil straddles the solenoid surface."""


class PathCrossesSolenoid(AbfluxError):
    """An integration path meets the solenoid surface, up to its rounding."""


class PathTouchesAxis(AbfluxError):
    """A path passes through the z-axis, so it has no winding number."""


class QuadratureNotConverged(AbfluxError):
    """Numerical integration could not reach or confirm the requested accuracy."""


class EmptyChargeSet(AbfluxError):
    """A charge-set operation received no charges."""
