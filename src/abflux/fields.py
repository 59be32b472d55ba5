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

The JSON rules live here too, so the CLI's config file and the path files
are read alike: _parse_json decodes the text, _require_known checks an
object's shape, and _json_float and _json_int its numbers; json loads
only when _parse_json runs.  QuadratureSpec lives here too, so the
closed-form phase checks its settings without loading geometry, which
re-exports it.
"""

from __future__ import annotations

import math
import sys

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
    """ValueError naming label unless every value is a finite number; a
    bool is not one, and an int past floating-point range is not finite."""
    for v in values:
        if isinstance(v, bool):
            raise ValueError(f"{label} must be a number, got {v!r}")
        try:
            finite = math.isfinite(v)
        except OverflowError:
            raise ValueError(f"{label} is beyond floating-point range") from None
        if not finite:
            raise ValueError(f"{label} must be finite, got {v!r}")


def _require_positive(label: str, *values: float, error: type = ValueError) -> None:
    """error naming label unless every value is positive and finite.  A
    bool, or an int past floating-point range (which compares as finite
    here, exactly), is left to _require_finite, which refuses it with its
    ValueError."""
    for v in values:
        if not isinstance(v, bool) and not 0.0 < v < math.inf:
            raise error(f"{label} must be positive, got {v!r}")
    _require_finite(label, *values)


def _parse_json(text: str):
    """json.loads, with nesting too deep for the parser as a ValueError."""
    import json

    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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


def _require_known(data, keys: tuple[str, ...], where: str,
                   required: tuple[str, ...] = ()) -> None:
    """The one check of a JSON object's shape: ValueError unless data is a
    dict, holds only keys from keys, and holds every key of required."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown {where} key {key!r}; keys are {list(keys)}")
    for key in required:
        if key not in data:
            raise ValueError(f"{where} is missing {key!r}")


class QuadratureSpec(Record):
    """Tolerances and budget for the adaptive integrator.

    ``max_subdivisions`` counts bisections only.  The seed panels every
    integration starts from are not counted against it: one per polyline
    edge, one per quarter turn of an arc and one for a disc.  That work
    grows linearly with the size of the path.

    The spec is part of every geometry._whole_turn memo key, so its hash is
    computed once, in __init__, and kept in a slot that is not a field;
    it is the hash of the field values, as a frozen dataclass's is.
    """

    __slots__ = ("rel_tol", "abs_tol", "max_subdivisions", "_hash")
    _fields = ("rel_tol", "abs_tol", "max_subdivisions")

    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                 max_subdivisions: int = 2**20):
        _require_positive("quadrature tolerance", rel_tol, abs_tol)
        n = max_subdivisions
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"max_subdivisions must be a nonnegative integer, got {n!r}")
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "max_subdivisions", max_subdivisions)
        object.__setattr__(self, "_hash", hash((rel_tol, abs_tol, max_subdivisions)))

    def __hash__(self):
        return self._hash


#: The spec of every call that passes none
_DEFAULT_SPEC = QuadratureSpec()


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
        _require_finite("Point coordinate", rho, phi)
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
        _require_positive("solenoid radius", R, error=InvalidRadius)
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
        """Inverse of to_dict; each value must be a JSON number (_json_float).
        ValueError for a non-object, or one that names a missing or unknown key."""
        _require_known(data, cls._fields, "field", required=cls._fields)
        return cls(*(_json_float(data[key], f"field {key}") for key in cls._fields))


def _require_off_surface(f: SolenoidField, rho: float) -> None:
    if abs(rho - f.R) <= f.boundary_band:
        raise FieldUndefinedOnSolenoid(
            f"field undefined on the solenoid surface (rho = {rho!r}, R = {f.R!r})"
        )


#: Largest rho the exterior formulas take: up to it, rho*rho is at most
#: 2**1022, and a straight edge's x*dy and y*dx about 2**1023 at most,
#: both finite.
_RHO_MAX = 2.0**511


def _require_exterior_range(lo: float, hi: float) -> None:
    """The exterior formula divides by rho*rho: refuse a range [lo, hi] of
    rho on which rho*rho leaves the normal floating-point range.  Below
    sys.float_info.min it loses precision; past rho = 2**511 it, or a
    straight edge's x*dy, may overflow, and gamma/rho**2 would read 0."""
    if lo * lo < sys.float_info.min:
        raise ValueError(f"rho*rho underflows at rho = {lo!r}: the inputs underflow")
    if hi > _RHO_MAX:
        raise ValueError(f"rho*rho overflows at rho = {hi!r}: the inputs overflow")


def eval_B(f: SolenoidField, p: Point) -> Vec3:
    """Magnetic field at p: (0, 0, B) inside the solenoid, zero outside."""
    rho = p.rho
    _require_off_surface(f, rho)
    return Vec3(0.0, 0.0, f.B if rho < f.R else 0.0)


def eval_A(f: SolenoidField, p: Point) -> Vec3:
    """Vector potential at p, returned in Cartesian components (A_z = 0).

    Inside, B*rho/2 along phi_hat is the linear field (-B*y/2, B*x/2),
    which vanishes on the axis.  Outside, gamma/rho along phi_hat is
    gamma * (-y, x) / rho**2.  Arcs and interior edges inline the same
    formulas (geometry._arc, _edges); exterior edges integrate gamma*dphi,
    the same potential dotted with the edge in fewer operations.

    Outside the solenoid, a rho beyond the exterior range that paths and
    the split disc keep too (_require_exterior_range) raises ValueError
    naming the underflow or overflow, as does a potential that overflows.
    """
    rho = p.rho
    _require_off_surface(f, rho)
    if rho < f.R:
        a_x, a_y = -0.5 * f.B * p.y, 0.5 * f.B * p.x
    else:
        _require_exterior_range(rho, rho)
        scale = f.gamma / (rho * rho)
        a_x, a_y = -scale * p.y, scale * p.x
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
    _require_positive("step h", h)
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
    SolenoidField(B=B, R=R, gamma=0.0)  # checks B and R before they multiply
    return SolenoidField(B=B, R=R, gamma=0.5 * B * R * R)


def gauge_shift(f: SolenoidField, kappa_delta: float) -> SolenoidField:
    """Add kappa_delta/rho along phi_hat to the exterior potential.

    B, R and the interior potential are untouched; gamma (and hence
    kappa) moves by kappa_delta.  The added term is curl-free everywhere
    off the axis, so no magnetic field changes anywhere.
    """
    _require_finite("kappa_delta", kappa_delta)
    return SolenoidField(B=f.B, R=f.R, gamma=f.gamma + kappa_delta)
