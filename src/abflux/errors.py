"""Exception types shared across the package.

Each failure mode gets its own class so callers (and the CLI, which
prints the class name as a machine-readable code) can tell them apart
without parsing messages.
"""


class AbfluxError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRadius(AbfluxError):
    """A radius that must be positive (or clear of the solenoid) is not."""


class FieldUndefinedOnSolenoid(AbfluxError):
    """Evaluation was requested inside the undefined band at rho = R."""


class StencilCrossesSolenoid(AbfluxError):
    """A finite-difference stencil straddles the solenoid surface."""


class PathCrossesSolenoid(AbfluxError):
    """An integration path comes too close to the solenoid surface."""


class PathTouchesAxis(AbfluxError):
    """A path passes through the z-axis, where the azimuth is undefined."""


class WindingUnresolvable(AbfluxError):
    """Consecutive path vertices subtend an azimuthal step of pi or more."""


class QuadratureNotConverged(AbfluxError):
    """Numerical integration could not reach or confirm the requested accuracy."""


class EmptyChargeSet(AbfluxError):
    """A charge-set operation received no charges."""
