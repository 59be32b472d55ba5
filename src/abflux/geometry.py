"""Closed paths, circulations, winding numbers, and disc fluxes.

Line integrals use a globally adaptive Gauss-Kronrod 7/15 scheme.  Every
path piece seeds a worklist with its embedded error estimate; the worst
interval is bisected until the summed estimate meets the requested
tolerance (absolute or relative, whichever is slacker) or the
subdivision budget runs out.  Interval results are accumulated in a
fixed order, so repeated runs are bit-identical.  The 1/rho falloff of
the exterior potential near the solenoid needs no special casing: the
adaptive loop concentrates nodes there on its own.

Every curve is built from two kinds of piece, a circular arc and a
straight edge, whose integrands return A.dr/dt as a plain float.  Inputs
are validated once, when the path is built and cleared of the solenoid
surface, not on every quadrature node.  The integrand is periodic, so an
n-turn circle is integrated over one revolution and the result scaled by
n: rel_tol carries over exactly, while abs_tol applies per revolution.
An integral that overflows floating point raises ValueError.

Disc fluxes use the same radial scheme tensored with a fixed-order
Gauss-Legendre rule in azimuth (the integrand is azimuthally symmetric,
but the tensor form keeps the computation an honest 2-D quadrature and
extends unchanged to the half-sector audits).
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, TextIO, Union

from .errors import (
    FieldUndefinedOnSolenoid,
    InvalidRadius,
    PathCrossesSolenoid,
    PathTouchesAxis,
    QuadratureNotConverged,
    WindingUnresolvable,
)
from .fields import Point, SolenoidField, _field_z, _potential, _require_finite, _side_field

#: Relative clearance every integration path must keep from rho = R.
PATH_CLEARANCE = 1e-6

#: (integrand, a, b, seed): integrate fn over [a, b], pre-split into seed panels
_Piece = tuple[Callable[[float], float], float, float, int]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2**20

    def __post_init__(self):
        for tol in (self.rel_tol, self.abs_tol):
            if not (math.isfinite(tol) and tol > 0.0):
                raise ValueError(f"quadrature tolerances must be finite and positive, got {tol!r}")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be nonnegative")


# Gauss-Kronrod 7/15 pair: nonnegative Kronrod abscissae with their
# weights; every second abscissa (odd index, plus the center) is a Gauss
# point whose weights form the embedded lower-order rule.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

# 8-point Gauss-Legendre rule on [-1, 1], used for the azimuthal factor
# of the polar tensor quadrature.
_XGL8 = (
    -0.9602898564975363,
    -0.7966664774136267,
    -0.5255324099163290,
    -0.1834346424956498,
    0.1834346424956498,
    0.5255324099163290,
    0.7966664774136267,
    0.9602898564975363,
)
_WGL8 = (
    0.1012285362903763,
    0.2223810344533745,
    0.3137066458778873,
    0.3626837833783620,
    0.3626837833783620,
    0.3137066458778873,
    0.2223810344533745,
    0.1012285362903763,
)


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod estimate on [a, b] and |K15 - G7| error estimate."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = fn(center)
    kronrod = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        s = fn(center - dx) + fn(center + dx)
        kronrod += _WGK[i] * s
        if i % 2 == 1:
            gauss += _WG[(i - 1) // 2] * s
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def _integrate_pieces(pieces: Iterable[_Piece], spec: QuadratureSpec) -> float:
    """Adaptively integrate a list of (fn, a, b, seed) pieces as one sum.

    Each piece is pre-split into ``seed`` equal intervals so the error
    estimator starts below one oscillation per interval.  Convergence is
    judged on the total: sum of estimates <= max(abs_tol, rel_tol*|sum|).
    """
    heap: list[tuple[float, int, int, float, float, float]] = []
    tie = count()
    fns: list[Callable[[float], float]] = []
    total = 0.0
    err = 0.0
    for fn, a, b, seed in pieces:
        idx = len(fns)
        fns.append(fn)
        width = (b - a) / seed
        for k in range(seed):
            lo = a + k * width
            hi = b if k == seed - 1 else a + (k + 1) * width
            v, e = _gk15(fn, lo, hi)
            heapq.heappush(heap, (-e, next(tie), idx, lo, hi, v))
            total += v
            err += e

    splits = 0
    while err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise QuadratureNotConverged(
                f"error estimate {err:.3e} still above tolerance after "
                f"{splits} subdivisions"
            )
        neg_e, _, idx, lo, hi, v = heapq.heappop(heap)
        fn = fns[idx]
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(fn, lo, mid)
        v2, e2 = _gk15(fn, mid, hi)
        total += (v1 + v2) - v
        err = max(err + (e1 + e2) - (-neg_e), 0.0)
        heapq.heappush(heap, (-e1, next(tie), idx, lo, mid, v1))
        heapq.heappush(heap, (-e2, next(tie), idx, mid, hi, v2))
        splits += 1

    # checked on the running sum: fsum raises OverflowError, not
    # ValueError, on finite terms whose sum overflows
    _require_finite_integral(total)
    final = sorted(heap, key=lambda item: (item[2], item[3]))
    return math.fsum(item[5] for item in final)


def _require_finite_integral(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"line integral is not finite ({value!r}): the inputs overflow")
    return value


def _arc_piece(f: SolenoidField, cx: float, cy: float, radius: float,
               phi0: float, sweep: float) -> _Piece:
    """Piece for the arc about (cx, cy) from azimuth phi0 through sweep,
    t in [0, 1], seeded with one panel per quarter turn."""
    k = radius * sweep

    def fn(t: float) -> float:
        th = phi0 + sweep * t
        c, s = math.cos(th), math.sin(th)
        ax, ay = _potential(f, cx + radius * c, cy + radius * s)
        return ax * (-k * s) + ay * (k * c)

    return fn, 0.0, 1.0, max(1, math.ceil(abs(sweep) / (0.5 * math.pi)))


def _edge_piece(f: SolenoidField, p: Point, q: Point) -> _Piece:
    """Piece for the straight edge from p to q, t in [0, 1], one seed panel.
    The potential has no z-component, so only the xy-projection enters."""
    px, py = p.x, p.y
    dx, dy = q.x - px, q.y - py

    def fn(t: float) -> float:
        ax, ay = _potential(f, px + t * dx, py + t * dy)
        return ax * dx + ay * dy

    return fn, 0.0, 1.0, 1


@dataclass(frozen=True)
class Circle:
    """Circle of given radius in the plane z = center.z.

    Traversed counterclockwise for turns > 0 and clockwise for turns < 0,
    completing |turns| full revolutions, starting at azimuth 0 about the
    center.
    """

    center: Point
    radius: float
    turns: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"circle radius must be positive, got {self.radius!r}")
        if isinstance(self.turns, bool) or not isinstance(self.turns, int) or self.turns == 0:
            raise ValueError(f"turns must be a nonzero integer, got {self.turns!r}")
        try:
            float(self.turns)
        except OverflowError:
            raise ValueError("turns is beyond floating-point range") from None

    def _rho_intervals(self) -> list[tuple[float, float]]:
        d = math.hypot(self.center.x, self.center.y)
        return [(abs(d - self.radius), d + self.radius)]


@dataclass(frozen=True)
class Polyline:
    """Closed polygonal path: vertices joined in order, last back to first.

    Vertices may vary in z; only the xy-projection interacts with the
    solenoid geometry (the potential has no z-component).
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("a closed polyline needs at least 3 vertices")

    def _edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def _rho_intervals(self) -> list[tuple[float, float]]:
        return [_segment_rho_range(p, q) for p, q in self._edges()]


ClosedPath = Union[Circle, Polyline]


def _segment_rho_range(p: Point, q: Point) -> tuple[float, float]:
    """Range of distances to the z-axis along the xy-projected segment."""
    ax, ay = p.x, p.y
    dx, dy = q.x - ax, q.y - ay
    ra = math.hypot(ax, ay)
    rb = math.hypot(q.x, q.y)
    hi = max(ra, rb)
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return ra, hi
    t = -(ax * dx + ay * dy) / dd
    if 0.0 < t < 1.0:
        return min(math.hypot(ax + t * dx, ay + t * dy), ra, rb), hi
    return min(ra, rb), hi


def _require_clearance(intervals: Iterable[tuple[float, float]], f: SolenoidField) -> None:
    margin = PATH_CLEARANCE * f.R
    for lo, hi in intervals:
        if not (hi < f.R - margin or lo > f.R + margin):
            raise PathCrossesSolenoid(
                f"path sweeps rho in [{lo:.6g}, {hi:.6g}], inside the "
                f"clearance band {margin:.3g} around R = {f.R:.6g}"
            )


def winding_number(path: ClosedPath) -> int:
    """Signed number of times the closed path encircles the z-axis.

    Computed by accumulating unwrapped azimuth increments, which is robust
    to tangency; it requires every increment to stay strictly below pi in
    magnitude (antipodal consecutive vertices are rejected).
    """
    if isinstance(path, Circle):
        d = math.hypot(path.center.x, path.center.y)
        if abs(d - path.radius) <= 1e-12 * max(path.radius, d):
            raise PathTouchesAxis("circle passes through the z-axis")
        return path.turns if d < path.radius else 0

    azimuths = []
    for p in path.vertices:
        if p.x == 0.0 and p.y == 0.0:
            raise PathTouchesAxis("polyline vertex lies on the z-axis")
        azimuths.append(math.atan2(p.y, p.x))
    n = len(azimuths)
    increments = []
    for i in range(n):
        step = math.remainder(azimuths[(i + 1) % n] - azimuths[i], math.tau)
        if abs(step) >= math.pi:
            raise WindingUnresolvable(
                "consecutive vertices are azimuthally antipodal; insert an "
                "intermediate vertex to resolve the winding"
            )
        increments.append(step)
    turns = math.fsum(increments) / math.tau
    nearest = round(turns)
    if abs(turns - nearest) > 1e-9:
        raise WindingUnresolvable(
            f"accumulated azimuth is {turns!r} turns, not an integer"
        )
    return int(nearest)


def circulation(
    f: SolenoidField, path: ClosedPath, spec: QuadratureSpec | None = None
) -> float:
    """Line integral of the vector potential around the closed path.

    For a path in the exterior region with winding number w the analytic
    value is 2*pi*gamma*w, independent of the path's shape or size; for a
    path inside the solenoid it is B/2 times twice the enclosed area.
    A circle is integrated over one revolution and scaled by |turns|.
    """
    spec = spec if spec is not None else QuadratureSpec()
    _require_clearance(path._rho_intervals(), f)
    if isinstance(path, Circle):
        c = path.center
        arc = _arc_piece(f, c.x, c.y, path.radius, 0.0, math.copysign(math.tau, path.turns))
        return _require_finite_integral(_integrate_pieces([arc], spec) * abs(path.turns))
    return _integrate_pieces([_edge_piece(f, p, q) for p, q in path._edges()], spec)


def segment_integral(
    f: SolenoidField, start: Point, end: Point, spec: QuadratureSpec | None = None
) -> float:
    """Line integral of the vector potential along one straight segment."""
    spec = spec if spec is not None else QuadratureSpec()
    _require_clearance([_segment_rho_range(start, end)], f)
    return _integrate_pieces([_edge_piece(f, start, end)], spec)


def arc_integral(
    f: SolenoidField,
    rho: float,
    phi_start: float,
    phi_end: float,
    z: float = 0.0,
    spec: QuadratureSpec | None = None,
) -> float:
    """Line integral of the potential along a circular arc at fixed rho.

    Whole turns of the sweep are integrated once and scaled by their
    count, like the turns of a circle, and the remainder arc is added.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidRadius(f"arc radius must be positive, got {rho!r}")
    _require_finite("angle", phi_start, phi_end)
    _require_finite("arc plane z", z)
    _require_clearance([(rho, rho)], f)
    sweep = phi_end - phi_start
    _require_finite("arc sweep", sweep)
    rest = math.fmod(sweep, math.tau)
    turns = round(abs(sweep - rest) / math.tau)
    if turns == 0:
        return _integrate_pieces([_arc_piece(f, 0.0, 0.0, rho, phi_start, sweep)], spec)
    turn = _arc_piece(f, 0.0, 0.0, rho, phi_start, math.copysign(math.tau, sweep))
    total = _integrate_pieces([turn], spec) * turns
    if rest:
        total += _integrate_pieces([_arc_piece(f, 0.0, 0.0, rho, phi_start, rest)], spec)
    return _require_finite_integral(total)


def sector_flux(
    f: SolenoidField,
    rho_min: float,
    rho_max: float,
    phi_min: float,
    phi_max: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Flux of the magnetic field through a polar sector at z = 0.

    The sector is rho in [rho_min, rho_max], phi in [phi_min, phi_max].
    Radial integration is adaptive; the azimuthal factor uses a fixed
    8-point Gauss-Legendre rule.  The radial range must stay clear of the
    undefined band at rho = R (callers split there; see flux_direct); it
    may end on the band's edge, since no quadrature node lies on an
    endpoint.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if not (0.0 <= rho_min < rho_max and math.isfinite(rho_max)):
        raise ValueError(f"bad radial range [{rho_min!r}, {rho_max!r}]")
    _require_finite("angle", phi_min, phi_max)
    if not phi_min < phi_max:
        raise ValueError(f"bad azimuthal range [{phi_min!r}, {phi_max!r}]")
    band = f.boundary_band
    if rho_min < f.R + band and rho_max > f.R - band:
        raise FieldUndefinedOnSolenoid(
            f"radial range [{rho_min!r}, {rho_max!r}] meets the undefined band "
            f"at rho = R = {f.R!r}"
        )

    mid = 0.5 * (phi_min + phi_max)
    half = 0.5 * (phi_max - phi_min)
    nodes = [(math.cos(mid + half * x), math.sin(mid + half * x), half * w)
             for x, w in zip(_XGL8, _WGL8)]

    def radial(rho: float) -> float:
        acc = 0.0
        for c, s, w in nodes:
            acc += w * _field_z(f, rho * c, rho * s)
        return rho * acc

    return _integrate_pieces([(radial, rho_min, rho_max, 1)], spec)


def flux_direct(f: SolenoidField, L: float, spec: QuadratureSpec | None = None) -> float:
    """Magnetic flux through the disc of radius L centered on the axis.

    Integrated in polar form, split at the solenoid surface so each part
    is smooth: the disc [0, R] from the interior formula and the annulus
    [R, L] from the exterior one, both continued up to rho = R.  Analytic
    value: pi * B * min(L, R)**2, independent of L for all L > R.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if not (math.isfinite(L) and L > 0.0):
        raise InvalidRadius(f"disc radius must be positive, got {L!r}")
    if abs(L - f.R) <= f.boundary_band:
        raise FieldUndefinedOnSolenoid("disc rim lies in the undefined band at rho = R")
    if L < f.R:
        return sector_flux(f, 0.0, L, 0.0, math.tau, spec)
    inner = sector_flux(_side_field(f, True), 0.0, f.R, 0.0, math.tau, spec)
    outer = sector_flux(_side_field(f, False), f.R, L, 0.0, math.tau, spec)
    return inner + outer


PathSource = Union[str, Path, TextIO]


def _read_text(source: PathSource) -> str:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text(encoding="utf-8")


def load_polyline_csv(source: PathSource) -> Polyline:
    """Read a closed polyline from CSV rows "x,y,z".

    A single leading header row is tolerated; every other row must hold
    exactly three numbers.
    """
    rows = [row for row in csv.reader(io.StringIO(_read_text(source)))
            if row and any(cell.strip() for cell in row)]
    if rows:
        try:
            [float(cell) for cell in rows[0]]
        except ValueError:
            rows = rows[1:]
    vertices = []
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"expected 3 columns x,y,z, got {row!r}")
        vertices.append(Point(float(row[0]), float(row[1]), float(row[2])))
    return Polyline(tuple(vertices))


def load_circle_json(source: PathSource) -> Circle:
    """Read a circle path from JSON {"center": [x, y, z], "radius": r, "turns": n}."""
    data = json.loads(_read_text(source))
    center = data["center"]
    if len(center) != 3:
        raise ValueError(f"circle center must have 3 components, got {center!r}")
    return Circle(
        center=Point(float(center[0]), float(center[1]), float(center[2])),
        radius=float(data["radius"]),
        turns=int(data.get("turns", 1)),
    )
