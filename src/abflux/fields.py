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

Points are stored in Cartesian coordinates; their one cylindrical view
is rho, so the multivaluedness of the azimuth never enters the data
model.  On the surface rho = R itself the field has no value; each
side's formula is smooth up to it.  One rule, _side, tells the side of
a point, a stencil or a path from an enclosure [lo, hi] of its true rho
range: inside if hi < R, outside if lo > R, refused if it meets R.  It
is the computed range widened, where computed, by _ROUND = 8*eps times
its own inputs' scale.  A rounding errs by at most eps/2 of its result
and hypot by under eps, so a point's rho = hypot(x, y) errs by under
eps*rho, a circle's [|d - r|, d + r], d = hypot(cx, cy), by under
2*eps*(d + r).  An edge p + t*d, d = q - p, has its largest rho at an
end and its least at an end or at t = -(p.d)/(d.d); rounding moves t*|d|
by under 4*eps*rho_p, as |p.d|/|d| <= rho_p.  For 0 < t < 1 the exact
rho there exceeds the least by under 3*eps*rho_p, and forming the point
and its hypot add 2*eps*rho_p; for t >= 1 the least lies within
4*eps*rho_p of q, and rho_q <= rho_p up to eps**2, so rho_q exceeds it
by under 5*eps*rho_p, the edge's scale.  For t <= 0 the least is below
rho_p by 16*eps**2*rho_p at most, inside p's bound.  A far edge thus
widens its own closest approach alone.  All this assumes normal numbers.

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
from .errors import FieldUndefinedOnSolenoid, InvalidRadius, StencilCrossesSolenoid

#: Rounding bound of a computed rho, relative to its inputs' scale
_ROUND = 8.0 * sys.float_info.epsilon

#: The largest subdivision budget a QuadratureSpec takes, and its default
_MAX_SUBDIVISIONS = 2**20


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
    grows linearly with the size of the path.  A certification, which
    replaces a panel's error estimate with its proven bound
    (geometry._integrate_pieces), is not a subdivision and is not
    counted either; it runs whether or not budget is left, and each
    panel is certified at most once, so the work stays bounded.

    The budget is at most _MAX_SUBDIVISIONS = 2**20, which is also the
    default, so no setting makes memory grow without bound: the heap
    holds about 230 bytes per split.  A run that spends all 2**20 splits
    (an exterior triangle grazing a thin solenoid at rel_tol=1e-13)
    measured a 248 MB peak RSS and about 14 s under CPython 3.11 on a
    2-vCPU x86-64 VM.
    """

    __slots__ = _fields = ("rel_tol", "abs_tol", "max_subdivisions")

    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                 max_subdivisions: int = _MAX_SUBDIVISIONS):
        _require_positive("quadrature tolerance", rel_tol, abs_tol)
        n = max_subdivisions
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"max_subdivisions must be a nonnegative integer, got {n!r}")
        if n > _MAX_SUBDIVISIONS:
            raise ValueError(f"max_subdivisions must be at most {_MAX_SUBDIVISIONS}, got {n!r}")
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "max_subdivisions", max_subdivisions)


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


class Point(Record):
    """Point stored Cartesian; its distance rho from the axis is derived."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float = 0.0):
        _require_finite("Point coordinate", x, y, z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)


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

    def to_dict(self) -> dict:
        return {"B": self.B, "R": self.R, "gamma": self.gamma}


def _side(f: SolenoidField, lo: float, hi: float) -> bool | None:
    """The side of an enclosure [lo, hi] of rho: True inside, False outside, None on R."""
    if hi < f.R:
        return True
    if lo > f.R:
        return False
    return None


def _require_side(f: SolenoidField, rho: float, error: type = FieldUndefinedOnSolenoid) -> bool:
    """The side of the point whose computed rho is rho, True inside; error
    when its rounding bound meets R."""
    inside = _side(f, rho - _ROUND * rho, rho + _ROUND * rho)
    if inside is None:
        raise error(f"field undefined on the solenoid surface (rho = {rho!r}, R = {f.R!r})")
    return inside


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
    return Vec3(0.0, 0.0, f.B if _require_side(f, p.rho) else 0.0)


def eval_A(f: SolenoidField, p: Point) -> Vec3:
    """Vector potential at p, returned in Cartesian components (A_z = 0).

    Inside, B*rho/2 along phi_hat is the linear field (-B*y/2, B*x/2),
    which vanishes on the axis.  Outside, gamma/rho along phi_hat is
    gamma * (-y, x) / rho**2.  Arcs and interior edges inline the same
    formulas (geometry's turn and edge integrands); exterior edges
    integrate gamma*dphi, the same potential in fewer operations.

    Outside the solenoid, a rho beyond the exterior range that paths and
    the split disc keep too (_require_exterior_range) raises ValueError
    naming the underflow or overflow, as does a potential that overflows.
    """
    rho = p.rho
    if _require_side(f, rho):
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
    result approaches eval_B(f, p) at second order in h.  p and the six
    stencil points p +- h along each axis must all lie on one side of the
    solenoid surface, each by more than its rounding bound (_side).
    """
    _require_positive("step h", h)
    xp = Point(p.x + h, p.y, p.z)
    xm = Point(p.x - h, p.y, p.z)
    yp = Point(p.x, p.y + h, p.z)
    ym = Point(p.x, p.y - h, p.z)
    zp = Point(p.x, p.y, p.z + h)
    zm = Point(p.x, p.y, p.z - h)
    stencil = (p, xp, xm, yp, ym, zp, zm)

    if len({_require_side(f, q.rho, StencilCrossesSolenoid) for q in stencil}) > 1:
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
