"""Closed paths, circulations, winding numbers, and disc fluxes.

Line integrals use a globally adaptive Gauss-Kronrod 7/15 scheme.  One
function, _integrate_pieces, owns its seed pass, bisection and exact
re-sum, as QUADPACK's dqagse does; it takes a list of one path piece,
which the benchmark's tracer wraps and reads.  The piece seeds a
worklist with its embedded error estimate; the worst interval is
bisected until the summed estimate meets the requested tolerance
(absolute or relative, whichever is slacker) or the subdivision budget
runs out.  The running sums of values and estimates drift by rounding,
so once the estimate could be within that drift of the tolerance, both
are summed again exactly and convergence is judged on the exact sums.
The result is the exactly rounded sum (math.fsum) of the panel values,
so repeated runs are bit-identical.  The 1/rho falloff of the exterior
potential near the solenoid needs no special casing: the adaptive loop
concentrates nodes there on its own.

Every curve is integrated by one of two functions, _arc for a circular
arc and _edges for a run of straight edges.  Each builds its piece,
whose integrand returns A.dr/dt as plain floats, and integrates it, as
_whole_turn does for the disc; no other function calls _integrate_pieces.
Each pass calls a piece's integrand once: the seed pass on the nodes of
all its seed panels (every edge of a polyline at the same 15 nodes of
[0, 1]), a split on both halves of the panel it bisects.  The 60 seed
nodes of one turn, four quarter-turn panels of [0, 1], are a module
constant, and so is the cos/sin table of their angles 0.0 + sweep*t,
for sweeps of 2*pi and -2*pi.  Every arc is one whole turn from azimuth
0 (a circle or a split-disc ring), so every seed pass reads its trig
from that table; splits compute it per node with the function that
built the table, so the values are the same bit for bit.  Both
constants are built once at import and never changed.  Inputs are
validated once, when the path is built and cleared of the solenoid
surface, not on every quadrature node.  The clearance check takes one
rho range per path: a polyline's comes from one hypot per vertex and
one per edge whose closest approach to the axis lies between its ends,
computed with its (px, py, dx, dy) edge table, so the band, underflow
and overflow checks each run once per path, not per edge.  It puts a
connected path wholly on one side of rho = R, so the side, and with it
the formula, is fixed once per piece: B*rho/2 inside, gamma/rho
outside.  Along a straight exterior edge the potential dotted with the
tangent is gamma*dphi/dt = gamma*(x*dy - y*dx)/(x*x + y*y), which is
what its integrand computes, with no square root.  The clearance check
raises ValueError for an exterior path whose rho*rho leaves the normal
floating-point range (fields._require_exterior_range, the one range the
split disc's exterior rings and eval_A keep too).  The integrand is
periodic, so an n-turn circle is integrated over one revolution and the
result scaled by n: rel_tol carries over exactly, while abs_tol applies
per revolution.  An integral that overflows floating point raises
ValueError.

Three whole turns about the axis are memoized: a ring of the interior
or of the exterior formula, and the flux through the disc [0, rho] in
polar form (_whole_turn).  The split disc asks for the same ones from
verify_stokes, chart_audit and flux_direct, and each is integrated
once.  The memo is an lru_cache of 8 entries keyed on the kind, its
coefficient (B, or gamma for the exterior ring), rho and the spec, so
its values are those of computing again.  A split disc looks the memo
up seven times per verify_stokes, flux_direct and chart_audit, so a
spec computes its hash once, when it is built (QuadratureSpec), not on
every lookup; equal specs still share entries.  circulation keeps its
last result too (_last_circulation), keyed on the identity of its
field, path and spec, so a holonomy of the path just integrated
integrates nothing.  These two bounded memos are the only state that
changes after import.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import count
from math import cos, hypot, sin

from ._record import Record
from .errors import (
    InvalidRadius,
    PathCrossesSolenoid,
    PathTouchesAxis,
    QuadratureNotConverged,
    WindingUnresolvable,
)
from .fields import (
    _DEFAULT_SPEC,
    Point,
    QuadratureSpec,
    SolenoidField,
    _require_exterior_range,
    _require_finite,
    _require_off_surface,
    _require_positive,
)

#: Relative clearance every integration path must keep from rho = R.
PATH_CLEARANCE = 1e-6

# A quadrature piece is a tuple (fn, a, b, seed, curves): integrate each
# of `curves` curves over [a, b] and sum them all, seeded with one panel
# [a, b] per curve (seed == curves: edges, the disc) or with an arc's
# four quarter turns of [0, 1]; fn(cs, ts) maps curve indices and nodes
# to the integrand values at each node of each listed curve, in order.


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


def _nodes(a: float, b: float) -> list[float]:
    """The 15 Kronrod nodes of [a, b]: [center, center - d0..d6,
    center + d0..d6]."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    return [center, center - d0, center - d1, center - d2, center - d3, center - d4,
            center - d5, center - d6, center + d0, center + d1, center + d2, center + d3,
            center + d4, center + d5, center + d6]


def _trig(phi0: float, sweep: float, ts: Iterable[float]) -> list[tuple[float, float]]:
    """(cos(th), sin(th)) at th = phi0 + sweep*t for each node t."""
    return [(cos(th := phi0 + sweep * t), sin(th)) for t in ts]


#: The seed panels of one turn, four quarter turns of [0, 1], and their
#: 60 nodes
_TURN_BOUNDS = tuple((k / 4, (k + 1) / 4) for k in range(4))
_TURN_NODES = tuple(t for lo, hi in _TURN_BOUNDS for t in _nodes(lo, hi))
#: _trig at _TURN_NODES from azimuth 0, for sweep = -tau at index 0 and
#: +tau at index 1: the seed pass of every arc
_TURN_TRIG = (tuple(_trig(0.0, -math.tau, _TURN_NODES)),
              tuple(_trig(0.0, math.tau, _TURN_NODES)))


#: the weights as scalars, so the rule reads no tuple per panel
_WGK0, _WGK1, _WGK2, _WGK3, _WGK4, _WGK5, _WGK6, _WGK7 = _WGK
_WG0, _WG1, _WG2, _WG3 = _WG


def _gk15(y: list[float], i: int, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod estimate on [a, b] and |K15 - G7| error estimate.

    y[i:i + 15] holds the integrand at _nodes(a, b), in that order; the
    rule accumulates them in the fixed QUADPACK dqk15 order.
    """
    fc, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14 = y[i:i + 15]
    # Gauss pairs (odd Kronrod index); both sums run in dqk15's order
    s1, s3, s5 = y2 + y9, y4 + y11, y6 + y13
    kronrod = (_WGK7 * fc + _WGK0 * (y1 + y8) + _WGK1 * s1
               + _WGK2 * (y3 + y10) + _WGK3 * s3 + _WGK4 * (y5 + y12)
               + _WGK5 * s5 + _WGK6 * (y7 + y14))
    gauss = _WG3 * fc + _WG0 * s1 + _WG1 * s3 + _WG2 * s5
    half = 0.5 * (b - a)
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def _integrate_pieces(pieces: list[tuple], spec: QuadratureSpec) -> float:
    """Adaptively integrate the one (fn, a, b, seed, curves) piece in
    pieces: the seed pass, the bisection and the exact re-sum.  It takes
    a list because the benchmark's tracer (perfbench/tracing.py) wraps
    it and counts each listed piece's seed panels, piece[3].  Both passes
    call _gk15 by its module name, so the tracer's wrapper sees each panel.

    An arc is seeded with four quarter turns so the error estimator
    starts below one oscillation per panel.  Every pass calls the
    integrand once: the seed pass on all its panels, each split on both
    halves of the worst panel.  Convergence is judged on the total:
    sum of estimates <= max(abs_tol, rel_tol*|sum|).

    eps2 * drift bounds the rounding the running total and err have
    gathered since they were last exact: each add rounds by at most eps/2
    of its result, and the tolerance moves by rel_tol times the total's
    error.  After a huge first estimate that rounding can stay far above
    a tight tolerance, which the running err then never meets; so once
    err is within it of the tolerance, both are summed again exactly.
    """
    (fn, a, b, seed, curves), = pieces
    if seed == curves:
        bounds, nodes = ((a, b),), _nodes(a, b)
    else:
        bounds, nodes = _TURN_BOUNDS, _TURN_NODES
    y = fn(range(curves), nodes)
    # (-err, seed or split order, curve, a, b, value): the heap keys
    # (-err, order) are unique, so no comparison reaches the rest
    heap: list[tuple] = []
    tie = count()
    total = 0.0
    err = 0.0
    i = 0
    for c in range(curves):
        for lo, hi in bounds:
            v, e = _gk15(y, i, lo, hi)
            heap.append((-e, next(tie), c, lo, hi, v))
            total += v
            err += e
            i += 15

    if err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        heapq.heapify(heap)
        eps2 = 2.0 * sys.float_info.epsilon
        drift = len(heap) * (err + spec.rel_tol * sum(abs(item[5]) for item in heap))
        splits = 0
        while err > (tol := max(spec.abs_tol, spec.rel_tol * abs(total))):
            if err - eps2 * drift <= tol:
                total = math.fsum(item[5] for item in heap)
                err = math.fsum(-item[0] for item in heap)
                drift = 0.0
                continue
            if splits >= spec.max_subdivisions:
                raise QuadratureNotConverged(
                    f"error estimate {err:.3e} still above tolerance after "
                    f"{splits} subdivisions"
                )
            neg_e, _, c, lo, hi, v = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            y = fn((c,), _nodes(lo, mid) + _nodes(mid, hi))
            v1, e1 = _gk15(y, 0, lo, mid)
            v2, e2 = _gk15(y, 15, mid, hi)
            drift += err + e1 + e2 + spec.rel_tol * (abs(total) + abs(v1) + abs(v2) + abs(v))
            total += (v1 + v2) - v
            err = max(err + (e1 + e2) - (-neg_e), 0.0)
            heapq.heappush(heap, (-e1, next(tie), c, lo, mid, v1))
            heapq.heappush(heap, (-e2, next(tie), c, mid, hi, v2))
            splits += 1
    # checked on the running sum: fsum raises OverflowError, not
    # ValueError, on finite terms whose sum overflows.  fsum is exactly
    # rounded, so the order of the panels does not change the result.
    _require_finite_integral(total)
    return math.fsum([item[5] for item in heap])


def _require_finite_integral(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"line integral is not finite ({value!r}): the inputs overflow")
    return value


def _arc(coef: float, inside: bool, cx: float, cy: float, radius: float,
         sweep: float, spec: QuadratureSpec) -> float:
    """Integral along one whole turn about (cx, cy) from azimuth 0, sweep
    = 2*pi or -2*pi, t in [0, 1], seeded with one panel per quarter turn.

    The seed pass reads its cos and sin from _TURN_TRIG, built by the
    same _trig at the same nodes; every split computes them at its nodes.

    The caller passes the arc's side of rho = R, from _require_clearance,
    or for a circle on rho = R itself the side whose limit it takes
    (_whole_turn), and that side's coefficient coef: B inside, gamma outside.
    The integrand holds only that side's formula of fields.eval_A:
    the linear field (-B*y/2, B*x/2) inside, gamma*(-y, x)/rho**2
    outside, in the same floating-point operations as eval_A, so every
    value equals eval_A's dotted with dr/dt.
    """
    k = radius * sweep
    nk = -k
    turn_trig = _TURN_TRIG[sweep > 0.0]

    if inside:
        bx, by = -0.5 * coef, 0.5 * coef

        def fn(cs: Sequence[int], ts: Sequence[float]) -> list[float]:
            pairs = turn_trig if ts is _TURN_NODES else _trig(0.0, sweep, ts)
            return [bx * (cy + radius * s) * (nk * s) + by * (cx + radius * c) * (k * c)
                    for c, s in pairs]
    else:
        def fn(cs: Sequence[int], ts: Sequence[float]) -> list[float]:
            pairs = turn_trig if ts is _TURN_NODES else _trig(0.0, sweep, ts)
            out = []
            for c, s in pairs:
                x, y = cx + radius * c, cy + radius * s
                rho = hypot(x, y)
                scale = coef / (rho * rho)
                out.append(-scale * y * (nk * s) + scale * x * (k * c))
            return out

    return _integrate_pieces([(fn, 0.0, 1.0, 4, 1)], spec)


def _edges(f: SolenoidField, points: Sequence[Point], spec: QuadratureSpec) -> float:
    """Integral along the straight edges joining points in order.

    Each edge is (px, py, dx, dy) from its start point p along its
    xy-projection, a curve over t in [0, 1] with one seed panel, so the
    seed pass evaluates every edge at the same 15 nodes in one call.  The
    potential has no z-component, so only the xy-projection enters.  The
    clearance check takes the rho range of the whole run: every point's
    rho once, plus each edge's closest approach to the axis where it lies
    between the edge's ends (0 < t < 1).

    As for arcs, the integrand holds only the formula of the edges' side
    of rho = R.  Inside it is eval_A's linear field dotted with the edge
    (dx, dy), in eval_A's floating-point operations.  Outside it is
    gamma*(x*dy - y*dx)/(x*x + y*y), the exterior potential dotted with
    the edge without its square root and scaling; it agrees with eval_A's
    dot product to a few rounding errors, not bit for bit.  The cross
    product is taken at each node, not once per edge from its start
    point: that form rounds into every node of an edge alike, which the
    error estimate cannot see near the axis.
    """
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    rhos = list(map(hypot, xs, ys))
    lo, hi = min(rhos), max(rhos)
    coords = []
    for px, py, qx, qy in zip(xs, ys, xs[1:], ys[1:]):
        dx, dy = qx - px, qy - py
        coords.append((px, py, dx, dy))
        dd = dx * dx + dy * dy
        if dd != 0.0 and 0.0 < (t := -(px * dx + py * dy) / dd) < 1.0:
            lo = min(lo, hypot(px + t * dx, py + t * dy))

    if _require_clearance(lo, hi, f):
        bx, by = -0.5 * f.B, 0.5 * f.B

        def fn(cs: Sequence[int], ts: Sequence[float]) -> list[float]:
            out = []
            for c in cs:
                px, py, dx, dy = coords[c]
                out += [bx * (py + t * dy) * dx + by * (px + t * dx) * dy for t in ts]
            return out
    else:
        gamma = f.gamma

        def fn(cs: Sequence[int], ts: Sequence[float]) -> list[float]:
            out = []
            for c in cs:
                px, py, dx, dy = coords[c]
                for t in ts:
                    x, y = px + t * dx, py + t * dy
                    # divided before gamma scales it, so a large gamma overflows
                    # only where the value itself does
                    out.append(gamma * ((x * dy - y * dx) / (x * x + y * y)))
            return out

    return _integrate_pieces([(fn, 0.0, 1.0, len(coords), len(coords))], spec)


@lru_cache(maxsize=8)
def _whole_turn(kind: str, coef: float, rho: float, spec: QuadratureSpec) -> float:
    """One whole turn about the axis at radius rho: the counterclockwise
    ring of eval_A's "interior" formula (coef = B) or of its "exterior"
    one (coef = gamma), or the flux of B_z = coef through the "disc"
    [0, rho].  On rho = R a ring is that side's one-sided limit.

    Memoized, so each split disc integrates each of these once although
    verify_stokes, chart_audit and flux_direct all ask for them.  The key
    is everything the value depends on, and keys that compare equal give
    the same value bit for bit: an int computes as the float it equals,
    and a coef of -0.0 gives 0.0 as +0.0 does (fsum of zeros is +0.0).
    The bound holds one split disc's four integrals twice over; a call
    that raises is not stored.  The caller validates rho.
    """
    if kind == "disc":
        azimuthal = math.tau * coef

        def radial(cs: Sequence[int], rhos: Sequence[float]) -> list[float]:
            return [r * azimuthal for r in rhos]

        return _integrate_pieces([(radial, 0.0, rho, 1, 1)], spec)
    return _arc(coef, kind == "interior", 0.0, 0.0, rho, math.tau, spec)


class Circle(Record):
    """Circle of given radius in the plane z = center.z.

    Traversed counterclockwise for turns > 0 and clockwise for turns < 0,
    completing |turns| full revolutions, starting at azimuth 0 about the
    center.
    """

    __slots__ = _fields = ("center", "radius", "turns")

    def __init__(self, center: Point, radius: float, turns: int = 1):
        if not isinstance(center, Point):
            raise ValueError(f"circle center must be a Point, got {center!r}")
        _require_positive("circle radius", radius)
        if isinstance(turns, bool) or not isinstance(turns, int) or turns == 0:
            raise ValueError(f"turns must be a nonzero integer, got {turns!r}")
        _require_finite("turns", turns)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "turns", turns)


class Polyline(Record):
    """Closed polygonal path: vertices joined in order, last back to first.

    Vertices may vary in z; only the xy-projection interacts with the
    solenoid geometry (the potential has no z-component).
    """

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: Iterable[Point]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise ValueError("a closed polyline needs at least 3 vertices")
        for v in verts:
            if not isinstance(v, Point):
                raise ValueError(f"polyline vertex must be a Point, got {v!r}")
        object.__setattr__(self, "vertices", verts)


ClosedPath = Circle | Polyline


def _require_clearance(lo: float, hi: float, f: SolenoidField) -> bool:
    """Check the range [lo, hi] of rho along one connected path and return
    the path's side of rho = R: True inside the solenoid, False outside.

    The range must clear the band around rho = R.  A connected path
    moves rho continuously, so one range for the whole path decides
    exactly what a range per piece would: a path with no piece in the
    band has all its pieces on one side.  Outside, [lo, hi] must lie in
    the exterior range (fields._require_exterior_range), checked once per
    path.
    """
    margin = PATH_CLEARANCE * f.R
    inside = hi < f.R - margin
    if not (inside or lo > f.R + margin):
        raise PathCrossesSolenoid(
            f"path sweeps rho in [{lo:.6g}, {hi:.6g}], inside the "
            f"clearance band {margin:.3g} around R = {f.R:.6g}"
        )
    if not inside:
        _require_exterior_range(lo, hi)
    return inside


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


#: circulation's last result as (f, path, spec, value), or None
_last_circulation: tuple | None = None


def circulation(
    f: SolenoidField, path: ClosedPath, spec: QuadratureSpec | None = None
) -> float:
    """Line integral of the vector potential around the closed path.

    For a path in the exterior region with winding number w the analytic
    value is 2*pi*gamma*w, independent of the path's shape or size; for a
    path inside the solenoid it is B/2 times twice the enclosed area.
    A circle is integrated over one revolution and scaled by |turns|.

    The last result is memoized, so a holonomy of the same path
    integrates nothing.  A call whose f, path and spec (None resolved to
    the default) are the same objects as the last call's returns its
    value: they are immutable records, so it is the value of computing
    again, bit for bit.  Identity, not equality: hashing a long polyline
    costs a good part of integrating it.  The memo holds its objects, so
    their ids cannot be reused while it lives; a call that raises is not
    stored.  The memo is one tuple, read once per call and replaced by
    one assignment, so it needs no lock.
    """
    global _last_circulation
    spec = spec if spec is not None else _DEFAULT_SPEC
    last = _last_circulation
    if last is not None and last[1] is path and last[0] is f and last[2] is spec:
        return last[3]
    if isinstance(path, Circle):
        c = path.center
        d = math.hypot(c.x, c.y)
        inside = _require_clearance(abs(d - path.radius), d + path.radius, f)
        turn = _arc(f.B if inside else f.gamma, inside, c.x, c.y, path.radius,
                    math.copysign(math.tau, path.turns), spec)
        value = _require_finite_integral(turn * abs(path.turns))
    else:
        value = _edges(f, path.vertices + path.vertices[:1], spec)
    _last_circulation = (f, path, spec, value)
    return value


def segment_integral(
    f: SolenoidField, start: Point, end: Point, spec: QuadratureSpec | None = None
) -> float:
    """Line integral of the vector potential along one straight segment."""
    return _edges(f, (start, end), spec if spec is not None else _DEFAULT_SPEC)


def flux_direct(f: SolenoidField, L: float, spec: QuadratureSpec | None = None) -> float:
    """Magnetic flux through the disc of radius L centered on the axis.

    Only the disc [0, min(L, R)] is integrated in polar form, with the
    interior B_z = B up to rho = R itself: for L > R the annulus [R, L]
    carries the exterior B_z = 0 and adds nothing.  Analytic value:
    pi * B * min(L, R)**2, independent of L for all L > R.
    """
    spec = spec if spec is not None else _DEFAULT_SPEC
    _require_positive("disc radius", L, error=InvalidRadius)
    _require_off_surface(f, L)
    return _whole_turn("disc", f.B, min(L, f.R), spec)

