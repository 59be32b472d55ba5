"""Solenoid field configuration and its one-parameter potential family.

An infinite solenoid of radius R carries a uniform axial magnetic field B
inside and no field outside (natural units, hbar = c = 1, dimensionless
charge).  The vector potential is B*rho/2 along phi_hat inside and
gamma/rho along phi_hat outside, where gamma is a free constant: every
choice is curl-free in the exterior.  The offset

    kappa = gamma - B*R**2/2

measures how far the exterior choice sits from the one whose one-turn
circulation reproduces the enclosed flux; classically kappa is
unobservable, quantum mechanically it shifts loop phases.

Points are stored in Cartesian coordinates; cylindrical values are
derived views, so the multivaluedness of the azimuth never enters the
data model.  On the solenoid surface itself the field carries no value,
which is represented by a thin exclusion band around rho = R.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import (
    AxisSingularity,
    FieldUndefinedOnSolenoid,
    InvalidRadius,
    StencilCrossesSolenoid,
)

#: Relative half-width of the band around rho = R inside which evaluation
#: raises FieldUndefinedOnSolenoid.  A finite band makes the pointwise
#: undefinedness of the surface testable in floating point.
BOUNDARY_BAND = 1e-9


def _require_finite(label: str, *values: float) -> None:
    """ValueError naming label unless every value is finite; an int past
    floating-point range is not."""
    for v in values:
        try:
            finite = math.isfinite(v)
        except OverflowError:
            raise ValueError(f"{label} is beyond floating-point range") from None
        if not finite:
            raise ValueError(f"{label} must be finite, got {v!r}")


def _json_float(value, label: str) -> float:
    """A JSON number as a float; ValueError for anything else, a bool too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{label} is beyond floating-point range") from None


def _json_int(value, label: str) -> int:
    """A JSON number of integral value as an int; ValueError otherwise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return value


class Vec3(Record):
    """Cartesian 3-vector with finite components."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        _require_finite("Vec3 component", x, y, z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z


class Point(Record):
    """Point stored Cartesian; cylindrical coordinates are derived."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float = 0.0):
        _require_finite("Point coordinate", x, y, z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_cylindrical(cls, rho: float, phi: float, z: float = 0.0) -> "Point":
        return cls(rho * math.cos(phi), rho * math.sin(phi), z)

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        """Azimuth in [0, 2*pi).  Raises on the z-axis, where it is undefined."""
        if self.x == 0.0 and self.y == 0.0:
            raise AxisSingularity("azimuth is undefined at rho = 0")
        angle = math.atan2(self.y, self.x)
        return angle + math.tau if angle < 0.0 else angle


class SolenoidField(Record):
    """Solenoid of radius R with interior field strength B and exterior
    circulation parameter gamma (circulation / 2*pi).

    The derived offset ``kappa = gamma - B*R**2/2`` vanishes exactly when
    the one-turn exterior circulation equals the enclosed flux pi*B*R**2.
    B may carry either sign (field along -z for B < 0).
    """

    __slots__ = _fields = ("B", "R", "gamma")

    def __init__(self, B: float, R: float, gamma: float):
        if not (math.isfinite(R) and R > 0.0):
            raise InvalidRadius(f"solenoid radius must be positive, got {R!r}")
        _require_finite("field parameter", B, gamma)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "gamma", gamma)

    @property
    def kappa(self) -> float:
        return self.gamma - 0.5 * self.B * self.R * self.R

    @property
    def boundary_band(self) -> float:
        """Half-width of the undefined band around rho = R."""
        return BOUNDARY_BAND * self.R

    def to_dict(self) -> dict:
        return {"B": self.B, "R": self.R, "gamma": self.gamma}

    @classmethod
    def from_dict(cls, data: dict) -> "SolenoidField":
        """Inverse of to_dict; each value must be a JSON number (_json_float)."""
        return cls(*(_json_float(data[key], f"field {key}") for key in cls._fields))


def _require_off_surface(f: SolenoidField, rho: float) -> None:
    if abs(rho - f.R) <= f.boundary_band:
        raise FieldUndefinedOnSolenoid(
            f"field undefined on the solenoid surface (rho = {rho!r}, R = {f.R!r})"
        )


def _field_z(f: SolenoidField, x: float, y: float) -> float:
    """B_z at (x, y) as a float, without the surface check."""
    return f.B if math.hypot(x, y) < f.R else 0.0


#: Smallest rho*rho that eval_A, and the split disc's exterior ring at
#: rho = R, divide by.
_RHO_SQUARED_MIN = 2.0 * math.ulp(0.0)

#: Largest rho the exterior formulas take: up to it, rho*rho is at most
#: 2**1022, and a straight edge's x*dy and y*dx about 2**1023 at most,
#: both finite.
_RHO_MAX = 2.0**511


def _require_no_underflow(rho: float, rho_squared_min: float = _RHO_SQUARED_MIN) -> None:
    """The exterior formula divides by rho*rho: refuse a rho whose square
    underflows, that is, falls below rho_squared_min.  The default, two
    units in the last place of 0.0, leaves room for a node that rounds
    slightly closer to the axis than the rho it was checked at."""
    if rho * rho < rho_squared_min:
        raise ValueError(f"rho*rho underflows at rho = {rho!r}: the inputs underflow")


def _require_no_overflow(rho: float) -> None:
    """The exterior formula divides by rho*rho: refuse a rho whose square
    overflows, where gamma/rho**2 would quietly become 0."""
    if rho > _RHO_MAX:
        raise ValueError(f"rho*rho overflows at rho = {rho!r}: the inputs overflow")


def _potential(f: SolenoidField, x: float, y: float) -> tuple[float, float]:
    """(A_x, A_y) at (x, y) as floats, without the surface check.

    Inside, B*rho/2 along phi_hat is the linear field (-B*y/2, B*x/2),
    which vanishes on the axis.  Outside, gamma/rho along phi_hat is
    gamma * (-y, x) / rho**2.  Arc pieces and interior edge pieces inline
    the same formulas (geometry._arc_piece, _edge_piece); exterior edge
    pieces integrate gamma*dphi, the same potential dotted with the edge
    in fewer operations.
    """
    rho = math.hypot(x, y)
    if rho < f.R:
        return -0.5 * f.B * y, 0.5 * f.B * x
    scale = f.gamma / (rho * rho)
    return -scale * y, scale * x


def eval_B(f: SolenoidField, p: Point) -> Vec3:
    """Magnetic field at p: (0, 0, B) inside the solenoid, zero outside."""
    _require_off_surface(f, p.rho)
    return Vec3(0.0, 0.0, _field_z(f, p.x, p.y))


def eval_A(f: SolenoidField, p: Point) -> Vec3:
    """Vector potential at p, returned in Cartesian components (A_z = 0).

    Raises ValueError where rho*rho underflows or overflows, or the
    potential overflows.
    """
    rho = p.rho
    _require_off_surface(f, rho)
    if rho >= f.R:
        _require_no_underflow(rho)
        _require_no_overflow(rho)
    a_x, a_y = _potential(f, p.x, p.y)
    if not (math.isfinite(a_x) and math.isfinite(a_y)):
        raise ValueError(
            f"potential at rho = {rho!r} is not finite ({a_x!r}, {a_y!r}): the inputs overflow"
        )
    return Vec3(a_x, a_y, 0.0)


def curl_fd(f: SolenoidField, p: Point, h: float) -> Vec3:
    """Central-difference curl of eval_A at p with step h.

    Independent consistency check on the potential: away from rho = R the
    result approaches eval_B(f, p) at second order in h.  All six stencil
    points p +- h along each axis must lie strictly on one side of the
    solenoid surface, clear of the undefined band.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    xp = Point(p.x + h, p.y, p.z)
    xm = Point(p.x - h, p.y, p.z)
    yp = Point(p.x, p.y + h, p.z)
    ym = Point(p.x, p.y - h, p.z)
    zp = Point(p.x, p.y, p.z + h)
    zm = Point(p.x, p.y, p.z - h)
    stencil = (p, xp, xm, yp, ym, zp, zm)

    band = f.boundary_band
    sides = set()
    for q in stencil:
        d = q.rho - f.R
        if abs(d) <= band:
            raise StencilCrossesSolenoid(
                f"stencil point at rho = {q.rho!r} lies in the undefined band"
            )
        sides.add(d > 0.0)
    if len(sides) > 1:
        raise StencilCrossesSolenoid(
            f"stencil with h = {h!r} straddles the solenoid surface at R = {f.R!r}"
        )

    a_xp, a_xm = eval_A(f, xp), eval_A(f, xm)
    a_yp, a_ym = eval_A(f, yp), eval_A(f, ym)
    a_zp, a_zm = eval_A(f, zp), eval_A(f, zm)
    inv = 0.5 / h
    return Vec3(
        (a_yp.z - a_ym.z) * inv - (a_zp.y - a_zm.y) * inv,
        (a_zp.x - a_zm.x) * inv - (a_xp.z - a_xm.z) * inv,
        (a_xp.y - a_xm.y) * inv - (a_yp.x - a_ym.x) * inv,
    )


def ab_standard(B: float, R: float) -> SolenoidField:
    """Field with the flux-matching exterior choice gamma = B*R**2/2.

    This is the configuration with kappa = 0: its one-turn exterior
    circulation equals the enclosed flux pi*B*R**2, and the potential is
    continuous (though not continuously differentiable) across rho = R.
    """
    return SolenoidField(B=B, R=R, gamma=0.5 * B * R * R)


def gauge_shift(f: SolenoidField, kappa_delta: float) -> SolenoidField:
    """Add kappa_delta/rho along phi_hat to the exterior potential.

    B, R and the interior potential are untouched; gamma (and hence
    kappa) moves by kappa_delta.  The added term is curl-free everywhere
    off the axis, so no magnetic field changes anywhere.
    """
    _require_finite("kappa_delta", kappa_delta)
    return SolenoidField(B=f.B, R=f.R, gamma=f.gamma + kappa_delta)
