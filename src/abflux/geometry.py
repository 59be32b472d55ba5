"""Closed paths, circulations, winding numbers, and disc fluxes.

Line integrals use a globally adaptive Gauss-Kronrod 7/15 scheme.  One
function, _integrate_pieces, owns its seed pass, bisection and exact
re-sum, as QUADPACK's dqagse does; it takes a list of one path piece,
which the benchmark's tracer wraps and reads.  The piece seeds a
worklist with its embedded error estimate; the worst interval is
certified or bisected until the summed error meets the requested
tolerance (absolute or relative, whichever is slacker) or the
subdivision budget runs out.  The running sums of values and errors
drift by rounding, so once the error could be within that drift of the
tolerance, both are summed again exactly and convergence is judged on
the exact sums.
The result is the exactly rounded sum (math.fsum) of the panel values,
so repeated runs are bit-identical.  The 1/rho falloff of the exterior
potential near the solenoid needs no special casing: the adaptive loop
concentrates nodes there on its own.

A panel can be certified instead of split.  Exterior edges and
exterior turns whose centre is off the axis carry a closed-form bound on
each panel's error (_edge_bound, _arc_bound): an edge's integrand is a
Lorentzian and a turn's a constant plus two cotangent kernels, whose
poles are known, so the Gauss-Kronrod truncation error has an a-priori
bound (Trefethen, Approximation Theory and Approximation Practice, SIAM
2013, Thms 8.2 and 19.3), to which a bound on the rounding of nodes,
values and the rule's sum is added.  When the worst panel's bound is
below its estimate |K15 - G7|, the bound becomes its error and it is
not split.  A turn about the axis has a constant exterior integrand;
interior arcs and edges and the disc carry no bound and are only ever
split.

Every curve is integrated by one of two functions, _arc for a circular
arc and _edges for a run of straight edges, as the disc is by _disc.
Each builds its piece as plain data, a module-level integrand of A.dr/dt
with its side's coefficient and its curves' coordinates, for _integrate,
the only caller of _integrate_pieces, to run.
Each pass calls a piece's integrand once: the seed pass on the nodes of
all its seed panels (every edge of a polyline at the same 15 nodes of
[0, 1]), a split on both halves of the panel it bisects.  The 60 seed
nodes of one turn, four quarter-turn panels of [0, 1], are a module
constant, and so is the cos/sin table of their angles sweep*t, for
sweeps of 2*pi and -2*pi.  Every arc is one whole turn from azimuth 0
(a circle or a split-disc ring), so every seed pass reads its trig from
that table; splits compute it per node with the function that built the
table, so the values are the same bit for bit.  A turn centred on the
axis, as every split-disc ring is, leaves the centre's zero out of its
node coordinates: adding a zero changes no bit there (_arc says why).
Both constants are built once at import and never changed.  Inputs are
validated once per path, not per quadrature node: _require_clearance
takes one enclosure of the path's rho range (fields._side), which puts
it on one side of rho = R and so fixes the formula once per piece,
B*rho/2 inside, gamma/rho outside, and checks the exterior range
(fields._require_exterior_range) once.  Along a straight exterior edge
the potential dotted with the tangent, gamma*dphi/dt, is computed as
gamma*(x*dy - y*dx)/(x*x + y*y), with no square root.  The integrand is
periodic, so an n-turn circle is integrated over one revolution and the
result scaled by n: rel_tol carries over exactly, while abs_tol applies
per revolution.  An integral that overflows floating point raises
ValueError naming the inputs it came from (B or gamma, with turns or
the disc's radius), once the kernel has found it not finite at its
piece's coefficient and at half of it (_integrate).

A winding number is counted, not integrated, and is exact: a
polyline's signed crossings of the ray y = 0, x > 0, or a circle's
comparison of cx**2 + cy**2 with r**2 (winding_number).

The split disc keeps its last four integrals (_split_disc), keyed on
the identity of its field, outer radius and spec, as circulation keeps
its last value keyed on the identity of its field, path and spec.
flux_direct and chart_audit, asked after verify_stokes about the same
objects, read them; asked about others, they integrate only what they
return and store nothing.  These two one-entry memos are the only state
that changes after import.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Iterable, Sequence
from itertools import count
from math import cos, hypot, sin

from ._record import Record
from .errors import (
    InvalidRadius,
    PathCrossesSolenoid,
    PathTouchesAxis,
    QuadratureNotConverged,
)
from .fields import (
    _DEFAULT_SPEC,
    _ROUND,
    Point,
    QuadratureSpec,
    SolenoidField,
    _require_exterior_range,
    _require_finite,
    _require_positive,
    _side,
)

# A quadrature piece is the plain tuple (fn, a, b, seed, curves, bound,
# coef, args): integrate each of `curves` curves over [a, b] and sum them
# all, seeded with one panel [a, b] per curve (seed == curves: edges, the
# disc) or with an arc's four quarter turns of [0, 1].  coef is the
# coefficient of the curves' side of rho = R, B inside and gamma
# outside, and args[c] holds curve c's geometry.  fn(coef, args, cs, ts),
# a module-level function, maps curve indices and nodes to the integrand
# values at each node of each listed curve, in order; bound is None or
# bound(coef, *args[c], lo, hi), a proven bound on the error of curve
# c's panel [lo, hi], which certifies it.


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


def _trig(sweep: float, ts: Iterable[float]) -> list[tuple[float, float]]:
    """(cos(th), sin(th)) at th = sweep*t for each node t."""
    return [(cos(th := sweep * t), sin(th)) for t in ts]


#: The seed panels of one turn, four quarter turns of [0, 1], and their
#: 60 nodes
_TURN_BOUNDS = tuple((k / 4, (k + 1) / 4) for k in range(4))
_TURN_NODES = tuple(t for lo, hi in _TURN_BOUNDS for t in _nodes(lo, hi))
#: _trig at _TURN_NODES from azimuth 0, for sweep = -tau at index 0 and
#: +tau at index 1: the seed pass of every arc
_TURN_TRIG = (tuple(_trig(-math.tau, _TURN_NODES)), tuple(_trig(math.tau, _TURN_NODES)))


#: the weights as scalars, so the rule reads no tuple per panel
_WGK0, _WGK1, _WGK2, _WGK3, _WGK4, _WGK5, _WGK6, _WGK7 = _WGK
_WG0, _WG1, _WG2, _WG3 = _WG

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


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
    """Adaptively integrate the one (fn, a, b, seed, curves, bound, coef,
    args) piece in pieces: the seed pass, the bisection and the exact
    re-sum.  It takes a list because the benchmark's tracer
    (perfbench/tracing.py) wraps it and counts each listed piece's seed
    panels, piece[3].  Both passes call _gk15 by its module name, so the
    tracer's wrapper sees each panel.

    An arc is seeded with four quarter turns so the error estimator
    starts below one oscillation per panel.  Every pass calls the
    integrand once: the seed pass on all its panels, each split on both
    halves of the worst panel.  Convergence is judged on the total:
    sum of errors <= max(abs_tol, rel_tol*|sum|).

    A panel's error is its estimate |K15 - G7| until it is certified.
    bound is None or bound(coef, *args[curve], lo, hi), a proven bound on
    |K15 - integral| of that panel (_edge_bound for exterior edges, _arc_bound
    for exterior turns off the axis).  The worst
    panel, popped, is certified before it would be split: if its bound
    is below its estimate, the bound becomes its error, err drops by the
    difference and the panel goes back on the heap, marked so that it is
    never certified again; otherwise it is split.  A certification calls
    neither the integrand nor _gk15, so the tracer's panels are still its
    seeds plus two per split.  It does not spend the subdivision budget
    and runs after the budget is spent, so only a panel that must be
    split finds the budget gone and raises; each panel is certified at
    most once, so the work stays bounded.

    eps2 * drift bounds the rounding the running total and err have
    gathered since they were last exact: each add rounds by at most eps/2
    of its result, and the tolerance moves by rel_tol times the total's
    error.  After a huge first estimate that rounding can stay far above
    a tight tolerance, which the running err then never meets; so once
    err is within it of the tolerance, both are summed again exactly.
    """
    (fn, a, b, seed, curves, bound, coef, args), = pieces
    if seed == curves:
        panels, nodes = ((a, b),), _nodes(a, b)
    else:
        panels, nodes = _TURN_BOUNDS, _TURN_NODES
    y = fn(coef, args, range(curves), nodes)
    # (-err, seed, split or certification order, curve, a, b, value,
    # certified): the heap keys (-err, order) are unique, so no comparison
    # reaches the rest
    heap: list[tuple] = []
    tie = count()
    total = 0.0
    err = 0.0
    i = 0
    for c in range(curves):
        for lo, hi in panels:
            v, e = _gk15(y, i, lo, hi)
            heap.append((-e, next(tie), c, lo, hi, v, False))
            total += v
            err += e
            i += 15

    if err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        heapq.heapify(heap)
        eps2 = 2.0 * _EPS
        drift = len(heap) * (err + spec.rel_tol * sum(abs(item[5]) for item in heap))
        splits = 0
        while err > (tol := max(spec.abs_tol, spec.rel_tol * abs(total))):
            if err - eps2 * drift <= tol:
                total = math.fsum(item[5] for item in heap)
                err = math.fsum(-item[0] for item in heap)
                drift = 0.0
                continue
            neg_e, _, c, lo, hi, v, certified = heapq.heappop(heap)
            if (bound is not None and not certified
                    and (e := bound(coef, *args[c], lo, hi)) < -neg_e):
                drift += err + e
                err = max(err + e - (-neg_e), 0.0)
                heapq.heappush(heap, (-e, next(tie), c, lo, hi, v, True))
                continue
            if splits >= spec.max_subdivisions:
                raise QuadratureNotConverged(
                    f"error estimate {err:.3e} still above tolerance after "
                    f"{splits} subdivisions"
                )
            mid = 0.5 * (lo + hi)
            y = fn(coef, args, (c,), _nodes(lo, mid) + _nodes(mid, hi))
            v1, e1 = _gk15(y, 0, lo, mid)
            v2, e2 = _gk15(y, 15, mid, hi)
            drift += err + e1 + e2 + spec.rel_tol * (abs(total) + abs(v1) + abs(v2) + abs(v))
            total += (v1 + v2) - v
            err = max(err + (e1 + e2) - (-neg_e), 0.0)
            heapq.heappush(heap, (-e1, next(tie), c, lo, mid, v1, False))
            heapq.heappush(heap, (-e2, next(tie), c, mid, hi, v2, False))
            splits += 1
    # a running sum that is not finite is returned as it is, for
    # _integrate to retry at half the coefficient or name the inputs; it is checked
    # before fsum, which raises OverflowError, not ValueError, on finite
    # terms whose sum overflows.  fsum is exactly rounded, so the order of
    # the panels does not change the result.
    if not math.isfinite(total):
        return total
    return math.fsum([item[5] for item in heap])


def _not_finite(value: float, *inputs: tuple[str, float]) -> ValueError:
    """The error for an integral that is not finite, naming the (name,
    value) inputs it was computed from.  Raised after the kernel, which
    alone can tell whether the integral overflows: a bound on the inputs
    would refuse finite integrals, such as a large gamma on a circle that
    does not wind."""
    named = ", ".join(f"{name} = {v!r}" for name, v in inputs)
    return ValueError(f"integral is not finite ({value!r}) at {named}: the inputs overflow")


def _integrate(piece: tuple, spec: QuadratureSpec, *inputs: tuple[str, float]) -> float:
    """The kernel's integral of piece; where that is not finite, twice
    its integral at half its coef and abs_tol, or where that is not
    finite either, a ValueError naming the caller's (name, value) inputs.

    _gk15 adds node pairs before it weights them and a panel's weights
    sum to 2, so an integral above about half the float range overflows
    inside the kernel though it is finite.  Every value, estimate, bound,
    running sum and tolerance of the kernel is linear in coef, and
    halving a float is exact wherever the half is normal.  So the second
    pass forms exactly half of each quantity the first would have formed
    with no limit on the exponent, takes each of its decisions (certify,
    split, stop) and returns half of its result; twice that is the
    result, or not finite where it overflows.  Only a subnormal value
    would round when halved, by at most 2**-1075.  A coef or abs_tol
    below twice the smallest normal float could round when halved, so
    with one there is no second pass.
    """
    value = _integrate_pieces([piece], spec)
    if math.isfinite(value):
        return value
    coef = piece[6]
    if min(abs(coef), spec.abs_tol) >= 2.0 * _TINY:
        half = QuadratureSpec(spec.rel_tol, 0.5 * spec.abs_tol, spec.max_subdivisions)
        value = 2.0 * _integrate_pieces([(*piece[:6], 0.5 * coef, piece[7])], half)
    if not math.isfinite(value):
        raise _not_finite(value, *inputs)
    return value


def _arc(coef: float, inside: bool, cx: float, cy: float, radius: float,
         sweep: float, spec: QuadratureSpec) -> float:
    """Integral along one whole turn about (cx, cy) from azimuth 0, sweep
    = 2*pi or -2*pi, t in [0, 1], seeded with one panel per quarter turn
    (_integrate, which names coef where it is not finite).

    The caller passes the arc's side of rho = R, from _require_clearance,
    or for a circle on rho = R itself the side whose limit it takes
    (_split_disc), and that side's coefficient coef: B inside, gamma
    outside.  The integrand holds only that side's formula of
    fields.eval_A: the linear field (-B*y/2, B*x/2) inside, gamma*(-y,
    x)/rho**2 outside, in the same floating-point operations as eval_A,
    so every value equals eval_A's dotted with dr/dt.  An exterior turn
    whose centre is off the axis carries _arc_bound, which certifies its
    panels; the others are polynomials in cos and sin, or constant.

    A turn centred on the axis, cx and cy both zero of either sign (the
    split disc's rings, a circle about the origin), drops the centre from
    x = cx + radius*cos and y = cy + radius*sin, and no bit changes.
    v + -0.0 is v for every v, and v + 0.0 is v for every v but -0.0,
    which radius*cos or radius*sin is only where it underflows.  There
    the node's value sums that term with the other, which keeps the
    sign of its zero only if it is a zero too, and a zero's sign reaches
    the integral only if every value summed is a zero.
    """
    if cx == 0.0 and cy == 0.0:
        fn, bound = (_interior_turn_centred if inside else _exterior_turn_centred), None
    else:
        fn, bound = (_interior_turn, None) if inside else (_exterior_turn, _arc_bound)
    return _integrate((fn, 0.0, 1.0, 4, 1, bound, coef, ((cx, cy, radius, sweep),)), spec,
                      ("B" if inside else "gamma", coef))


# The integrands of a turn args[0] = (cx, cy, radius, sweep) (_arc).  The
# seed pass reads cos and sin from _TURN_TRIG, built by the same _trig at
# the same nodes; a split computes them.  They append in a loop: on
# CPython 3.11 a comprehension makes each local it reads a cell, which
# every call would allocate.
def _interior_turn(coef: float, args: tuple, cs: Sequence[int],
                   ts: Sequence[float]) -> list[float]:
    (cx, cy, radius, sweep), = args
    k, nk = radius * sweep, -radius * sweep
    bx, by = -0.5 * coef, 0.5 * coef
    out = []
    for c, s in _TURN_TRIG[sweep > 0.0] if ts is _TURN_NODES else _trig(sweep, ts):
        out.append(bx * (cy + radius * s) * (nk * s) + by * (cx + radius * c) * (k * c))
    return out


def _interior_turn_centred(coef: float, args: tuple, cs: Sequence[int],
                           ts: Sequence[float]) -> list[float]:
    (_, _, radius, sweep), = args
    k, nk = radius * sweep, -radius * sweep
    bx, by = -0.5 * coef, 0.5 * coef
    out = []
    for c, s in _TURN_TRIG[sweep > 0.0] if ts is _TURN_NODES else _trig(sweep, ts):
        out.append(bx * (radius * s) * (nk * s) + by * (radius * c) * (k * c))
    return out


def _exterior_turn(coef: float, args: tuple, cs: Sequence[int],
                   ts: Sequence[float]) -> list[float]:
    (cx, cy, radius, sweep), = args
    k, nk = radius * sweep, -radius * sweep
    out = []
    for c, s in _TURN_TRIG[sweep > 0.0] if ts is _TURN_NODES else _trig(sweep, ts):
        x, y = cx + radius * c, cy + radius * s
        rho = hypot(x, y)
        scale = coef / (rho * rho)
        out.append(-scale * y * (nk * s) + scale * x * (k * c))
    return out


def _exterior_turn_centred(coef: float, args: tuple, cs: Sequence[int],
                           ts: Sequence[float]) -> list[float]:
    (_, _, radius, sweep), = args
    k, nk = radius * sweep, -radius * sweep
    out = []
    for c, s in _TURN_TRIG[sweep > 0.0] if ts is _TURN_NODES else _trig(sweep, ts):
        x, y = radius * c, radius * s
        rho = hypot(x, y)
        scale = coef / (rho * rho)
        out.append(-scale * y * (nk * s) + scale * x * (k * c))
    return out


def _edge_bound(gamma: float, px: float, py: float, dx: float, dy: float,
                lo: float, hi: float) -> float:
    """A bound on |K15 - integral| of the exterior integrand of the edge
    p + t*d, d = (dx, dy), on its panel [lo, hi], or inf where none is
    found: a truncation term plus a rounding term.  eps is the machine
    epsilon; panels are dyadic parts of [0, 1], so s = (hi - lo)/2 and
    the midpoint m are exact.

    Truncation.  The integrand is gamma*(p x d)/|p + t*d|**2 = +-K/((t -
    t0)**2 + h*h), t0 = -(p.d)/(d.d), h = |p x d|/(d.d), K = |gamma|*h;
    on u in [-1, 1], t = m + s*u, its poles are a +- i*b, a = (t0 - m)/s,
    b = h/s.  GK15 is exact to degree 23 with positive weights summing
    to 2, so its error is at most 4 times the Chebyshev truncation
    error 2*M*r**-23/(r - 1) of an f bounded by M on the Bernstein
    ellipse E_r (Trefethen, Approximation Theory and Approximation
    Practice, SIAM 2013, Thm 8.2; as in Thm 19.3): 8*s*M*r**-23/(r - 1)
    on [lo, hi].  Both poles lie on the confocal ellipse of semi-major
    axis A = (|w - 1| + |w + 1|)/2, w = a + i*b, which is E_rho for rho
    = A + sqrt(A*A - 1).  A point z of E_r, r < rho, has |z - 1| + |z +
    1| = r + 1/r, so |z - w| >= g = A - (r + 1/r)/2 by the triangle
    inequality, and M = K/(s*s*g*g).  With r = rho**0.9 the term is
    8*K*r**-23/(s*(r - 1)*g*g).  The computed t0 and h err by under
    4*eps*|p|/|d|, so a and b by under 4*eps*|p|/(s*|d|), a by
    eps*|a|/2 more; A moves by at most the sum, and forming A, g and the
    term errs by under 7*eps*A more.  So A is lowered by
    16*eps*(span/(s*|d|) + A), span = |px| + |py|, and h raised by
    16*eps*span/|d|, which keeps the computed term an upper bound.

    Rounding.  This term bounds |K15 - Q|, Q the exact rule at the exact
    nodes on the exact integrand; scale = |px| + |py| + |dx| + |dy|.
    The _XGK constants lie within 0.41*eps of the exact nodes, so a
    computed node lies within eps*(s + 1/2) of its exact node t_k, and
    forming x = px + t*dx, y = py + t*dy moves the point by under
    eps*scale more: it lies within 2.01*eps*scale of p + t_k*d (s <=
    1/2, |d| <= scale).  As a function of the point, the integrand has a
    gradient under 3*|gamma|*|d|/rho**2, and its own eight roundings err
    by under 3.01*eps*|gamma|*|d|/rho.  With rho >= nu = near -
    2.01*eps*scale, near the panel's closest approach to the axis, and nu
    <= scale, each value errs by under 9.04*eps*|gamma|*|d|*scale/nu**2,
    and the rule, whose exact weights sum to 2, by 2*s times that.  Each
    term of the K15 sum passes through at most 10 roundings, and the
    _WGK constants differ from the exact weights by 1.64*eps in all,
    which adds under 11.65*eps*s*max|f|, with |f| <= |gamma|*|d|/rho <=
    |gamma|*|d|*scale/nu**2.  In all, under
    29.8*eps*s*|gamma|*|d|*scale/nu**2; the term is
    32*eps*s*|gamma|*width*scale/nu**2, width = |dx| + |dy| >= |d|.  The
    computed near errs by under 12*eps*scale, so it is lowered by
    16*eps*scale to give nu.  The factor 32 covers the rounding of the
    term and of the sum of the two.

    No bound is found where nu or g is not positive, or the poles'
    ellipse does not lie past [-1, 1].  All this assumes normal numbers
    (fields._require_exterior_range keeps rho*rho normal): a d.d outside
    the normal range, or a bound below it, gives inf.
    """
    dd = dx * dx + dy * dy
    if not _TINY <= dd < math.inf:
        return math.inf
    length = math.sqrt(dd)
    span = abs(px) + abs(py)
    width = abs(dx) + abs(dy)
    scale = span + width
    s = 0.5 * (hi - lo)
    a = (-(px * dx + py * dy) / dd - 0.5 * (lo + hi)) / s
    h = abs(px * dy - py * dx) / dd
    b = h / s
    nu = s * length * hypot(max(abs(a) - 1.0, 0.0), b) - 16.0 * _EPS * scale
    ellipse = 0.5 * (hypot(a - 1.0, b) + hypot(a + 1.0, b))
    ellipse -= 16.0 * _EPS * (span / (s * length) + ellipse)
    if not (nu > 0.0 and ellipse > 1.0):
        return math.inf
    r = (ellipse + math.sqrt((ellipse - 1.0) * (ellipse + 1.0))) ** 0.9
    g = ellipse - 0.5 * (r + 1.0 / r)
    if not g > 0.0:
        return math.inf
    k = abs(gamma) * (h + 16.0 * _EPS * span / length)
    bound = (8.0 * k * r ** -23 / (s * (r - 1.0) * g * g)
             + 32.0 * _EPS * s * abs(gamma) * (width / nu) * (scale / nu))
    return bound if bound >= _TINY else math.inf


def _arc_bound(gamma: float, cx: float, cy: float, radius: float, sweep: float,
               lo: float, hi: float) -> float:
    """A bound on |K15 - integral| of the exterior integrand of the turn
    c + radius*e**(i*sweep*t), c = cx + i*cy off the axis, on its panel
    [lo, hi], or inf where none is found: a truncation term plus a
    rounding term, in the form of _edge_bound's.  eps is the machine
    epsilon; panels are dyadic parts of the quarter turns, so s = (hi -
    lo)/2 <= 1/8 and the midpoint m are exact.  The exact integrand has
    sweep = +-2*pi exactly, the float sweep is rounded.

    Truncation.  With z = e**(i*sweep*t), r = radius and q = |c|/r, the
    integrand is gamma*sweep*Re(r*z/(c + r*z)) = (gamma*sweep/2)*(r*z/(c +
    r*z) + r/(r + conj(c)*z)).  It has period 1 in t, one simple pole of
    each term per period, at t0 = (arg(-c) -+ i*ln q)/sweep and at its
    conjugate t1, each of residue modulus |gamma|/2, and it tends to 0
    and gamma*sweep as Im t tends to +-inf.  So it is
    gamma*sweep/2 plus the two kernels res*pi*cot(pi*(t - t_j)).  On the
    strip |Re w| <= 1/2, pi*cot(pi*w) - 1/w is analytic and bounded, and
    on its edges it is -i*pi*tanh(pi*y) - 1/(1/2 + i*y), of modulus at
    most pi; so by Phragmen-Lindelof |pi*cot(pi*w)| <= pi + 1/|w| there,
    and |f(t)| <= |gamma|*(2*pi + (1/d0 + 1/d1)/2), d_j the distance from
    t to the nearest pole t_j + k.  On u in [-1, 1], t = m + s*u, the
    nearest period's poles are a +- i*b, a = (Re t0 - m)/s reduced so
    that |a*s| <= 1/2, b = |ln q|/(2*pi*s); others lie further out, on
    larger ellipses.  As for edges, a point of E_r, r < rho, lies at least
    g = A - (r + 1/r)/2 from both, in units of s, so M = |gamma|*(2*pi +
    1/(s*g)) on E_r, and with r = rho**0.9 the term is 8*s*M*r**-23/(r -
    1) = 8*|gamma|*(2*pi*s + 1/g)*r**-23/(r - 1).  The computed a errs by
    under 4.3*eps/s, from atan2, the division and the reduction; ln q by
    under eps*(1 + 1.5*L), L = |ln|c|| + |ln r|, from hypot and the two
    logs, so b by eps*(1 + 1.5*L)/(2*pi*s) plus 1.5*eps*b; forming A, g
    and the term errs by under 7*eps*A more.  So A is lowered by
    16*eps*((1 + L)/s + A), which keeps the computed term an upper bound.

    Rounding.  This term bounds |K15 - Q|, Q the exact rule at the exact
    nodes on the exact integrand; scale = |c| + r.  A computed node t
    lies within eps*(s + 1/2) of its exact node (_edge_bound), so the
    computed angle sweep*t lies within 8.1*eps of the exact one, with the
    rounded sweep and the product; libm's cos and sin, within an ulp,
    then err by under 9.1*eps each, and x = cx + r*cos, y = cy + r*sin
    put the point within 14.3*eps*scale of the exact one.  The exact
    integrand f = gamma*sweep*r*(P.u)/|P|**2, P the point and u = (cos,
    sin), has gradients under 3*|gamma*sweep*r|/|P|**2 in P and
    |gamma*sweep*r|/|P| in u, and its own roundings (ten, and those of
    k = r*sweep) err by under 5.8*eps*|gamma*sweep*r|/|P|.  With |P|
    >= nu = near - 48*eps*scale, near the panel's closest approach to the
    axis, and nu <= scale, each value errs by under
    61.6*eps*|gamma*sweep*r|*scale/nu**2, and the rule, whose weights sum
    to 2, by 2*s times that.  The K15 sum adds 11.65*eps*s*max|f| as for
    edges, with |f| <= |gamma*sweep*r|/nu.  In all, under
    848*eps*s*|gamma|*r*scale/nu**2 (|sweep| = 2*pi); the term is
    880*eps*s*|gamma|*r*scale/nu**2, whose factor also covers the
    rounding of the term and of the sum of the two.  A point of the turn
    at angle phi from its nearest one, c*(1 - r/|c|), lies
    sqrt((|c| - r)**2 + 4*|c|*r*sin(phi/2)**2) from the axis, and phi >=
    2*pi*s*(|a| - 1) on the panel, so near >= hypot(|c| - r, 4*s*sqrt(|c|*r)*
    max(|a| - 1, 0)) by sin(phi/2) >= phi/pi.  Computed, with the error of
    a, that errs by under 15*eps*scale, which the 48 covers with the
    14.3 of the moved point.

    No bound is found where nu or g is not positive, or the poles'
    ellipse does not lie past [-1, 1].  All this assumes normal numbers:
    a |c| outside the normal range, or a bound below it, gives inf.
    """
    d = hypot(cx, cy)
    if not _TINY <= d < math.inf:
        return math.inf
    ld, lr = math.log(d), math.log(radius)
    s = 0.5 * (hi - lo)
    t0 = math.atan2(-cy, -cx) / sweep - 0.5 * (lo + hi)
    a = (t0 - round(t0)) / s
    b = abs(ld - lr) / (math.tau * s)
    scale = d + radius
    nu = (hypot(d - radius, 4.0 * s * math.sqrt(d) * math.sqrt(radius) * max(abs(a) - 1.0, 0.0))
          - 48.0 * _EPS * scale)
    ellipse = 0.5 * (hypot(a - 1.0, b) + hypot(a + 1.0, b))
    ellipse -= 16.0 * _EPS * ((1.0 + abs(ld) + abs(lr)) / s + ellipse)
    if not (nu > 0.0 and ellipse > 1.0):
        return math.inf
    r = (ellipse + math.sqrt((ellipse - 1.0) * (ellipse + 1.0))) ** 0.9
    g = ellipse - 0.5 * (r + 1.0 / r)
    if not g > 0.0:
        return math.inf
    bound = (8.0 * abs(gamma) * (math.tau * s + 1.0 / g) * r ** -23 / (r - 1.0)
             + 880.0 * _EPS * s * abs(gamma) * (radius / nu) * (scale / nu))
    return bound if bound >= _TINY else math.inf


def _edges(f: SolenoidField, points: Sequence[Point], spec: QuadratureSpec) -> float:
    """Integral along the straight edges joining points in order.

    Each edge is (px, py, dx, dy) from its start point p along its
    xy-projection, a curve over t in [0, 1] with one seed panel, so the
    seed pass evaluates every edge at the same 15 nodes in one call.  The
    potential has no z-component, so only the xy-projection enters.  The
    clearance check takes the rho range of the whole run: every point's
    rho once, plus each edge's closest approach to the axis where it lies
    between the edge's ends (0 < t < 1), widened by its bound (fields._side).

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
    low = lo - _ROUND * lo
    coords = []
    for px, py, qx, qy, rho_p, rho_q in zip(xs, ys, xs[1:], ys[1:], rhos, rhos[1:]):
        dx, dy = qx - px, qy - py
        coords.append((px, py, dx, dy))
        dd = dx * dx + dy * dy
        if dd != 0.0 and (t := -(px * dx + py * dy) / dd) > 0.0:
            if t < 1.0:
                lo = min(lo, near := hypot(px + t * dx, py + t * dy))
            else:
                near = rho_q
            if (edge := near - _ROUND * rho_p) < low:
                low = edge

    inside = _require_clearance(f, lo, hi, low)
    name, coef = ("B", f.B) if inside else ("gamma", f.gamma)
    fn, bound = (_interior_edges, None) if inside else (_exterior_edges, _edge_bound)
    return _integrate((fn, 0.0, 1.0, len(coords), len(coords), bound, coef, coords), spec,
                      (name, coef))


# The integrands of the edges args[c] = (px, py, dx, dy) (_edges)
def _interior_edges(coef: float, args: list[tuple], cs: Sequence[int],
                    ts: Sequence[float]) -> list[float]:
    bx, by = -0.5 * coef, 0.5 * coef
    out = []
    for c in cs:
        px, py, dx, dy = args[c]
        for t in ts:
            out.append(bx * (py + t * dy) * dx + by * (px + t * dx) * dy)
    return out


def _exterior_edges(coef: float, args: list[tuple], cs: Sequence[int],
                    ts: Sequence[float]) -> list[float]:
    out = []
    for c in cs:
        px, py, dx, dy = args[c]
        for t in ts:
            x, y = px + t * dx, py + t * dy
            # divided before gamma scales it, so a large gamma overflows
            # only where the value itself does
            out.append(coef * ((x * dy - y * dx) / (x * x + y * y)))
    return out


def _disc(coef: float, rho: float, spec: QuadratureSpec) -> float:
    """Flux of B_z = coef through the disc [0, rho], validated by the
    caller (_integrate, which names B and rho where it is not finite)."""
    return _integrate((_disc_radial, 0.0, rho, 1, 1, None, coef, ()), spec,
                      ("B", coef), ("rho", rho))


def _disc_radial(coef: float, args: tuple, cs: Sequence[int],
                 rhos: Sequence[float]) -> list[float]:
    """The disc's integrand: rho times a whole turn times B_z = coef."""
    azimuthal = math.tau * coef
    return [r * azimuthal for r in rhos]


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


def _require_clearance(f: SolenoidField, lo: float, hi: float, low: float) -> bool:
    """The side of one connected path, True inside, from its computed rho
    range [lo, hi] and enclosure [low, hi + _ROUND*hi] (fields._side): rho
    moves continuously, so one per path decides what one per piece would.
    Outside, [lo, hi] must lie in the exterior range."""
    inside = _side(f, low, hi + _ROUND * hi)
    if inside is None:
        raise PathCrossesSolenoid(
            f"path sweeps rho in [{lo!r}, {hi!r}], which meets the solenoid "
            f"surface R = {f.R!r} within its rounding bound"
        )
    if not inside:
        _require_exterior_range(lo, hi)
    return inside


def _orientation(px: float, py: float, qx: float, qy: float) -> int:
    """The exact sign of the cross product px*qy - py*qx: 1, -1 or 0, of
    the coordinates as floats, as the integrals take them.

    Rounding is monotone, overflow and underflow included, so rounded
    products can tie where the exact ones differ but never swap, and a
    difference of floats is zero only where they are equal.  So the
    float d = px*qy - py*qx has the exact sign unless it is 0 or nan
    (both products overflow alike); those are decided in integers, from
    as_integer_ratio().  Shewchuk's orient2d (Discrete Comput. Geom. 18
    (1997) 305-363) needs an error bound for the rounding of its
    translations; about the origin there is none.
    """
    px, py, qx, qy = float(px), float(py), float(qx), float(qy)
    d = px * qy - py * qx
    if d > 0.0:
        return 1
    if d < 0.0:
        return -1
    (n1, m1), (n2, m2), (n3, m3), (n4, m4) = (
        v.as_integer_ratio() for v in (px, qy, py, qx))
    exact = n1 * n2 * m3 * m4 - n3 * n4 * m1 * m2
    return (exact > 0) - (exact < 0)


def winding_number(path: ClosedPath) -> int:
    """Signed number of times the closed path encircles the z-axis, exact;
    PathTouchesAxis if the path passes through the axis.

    A polyline's winding is its signed count of crossings of the ray y =
    0, x > 0 (Hormann and Agathos, Comput. Geom. 20 (2001) 131-144).  An
    edge p -> q crosses the line y = 0 where (p.y > 0) != (q.y > 0), a
    half-open test that counts a vertex on the line once, and it meets
    it at x = (p x q)/(q.y - p.y), p x q = p.x*q.y - p.y*q.x.  So an
    upward edge crosses the ray where p x q > 0 and adds 1, a downward
    one where p x q < 0 and adds -1, and where p x q = 0 it passes
    through the axis; _orientation gives that sign exactly.  The path
    meets the axis only at a vertex there, on such an edge, or on an edge
    along y = 0 whose ends lie on opposite sides of x = 0.

    A circle winds turns times if its centre lies nearer the axis than
    its radius, else not at all, and meets the axis where cx**2 + cy**2
    == r**2.  math.hypot errs by under one ulp of its result (Python
    3.10 and later), so d = hypot(cx, cy) is one of the two floats next
    to the exact distance, and cannot pass the float r: d < r and d > r
    hold of the exact distance too.  Where d == r, the squares are
    compared in integers.
    """
    if isinstance(path, Circle):
        c, r = path.center, path.radius
        d = hypot(c.x, c.y)
        if d != r:
            return path.turns if d < r else 0
        (a, m), (b, n), (s, k) = (float(v).as_integer_ratio() for v in (c.x, c.y, r))
        gap = (a * n * k) ** 2 + (b * m * k) ** 2 - (s * m * n) ** 2
        if gap == 0:
            raise PathTouchesAxis("circle passes through the z-axis")
        return path.turns if gap < 0 else 0

    winding = 0
    p = path.vertices[-1]
    px, py = p.x, p.y
    for q in path.vertices:
        qx, qy = q.x, q.y
        if qx == 0.0 and qy == 0.0:
            raise PathTouchesAxis("polyline vertex lies on the z-axis")
        if (py > 0.0) != (up := qy > 0.0):
            side = _orientation(px, py, qx, qy)
            if side == 0:
                raise PathTouchesAxis("polyline edge passes through the z-axis")
            if (side > 0) == up:
                winding += side
        elif qy == 0.0 and py == 0.0 and (px > 0.0) != (qx > 0.0):
            raise PathTouchesAxis("polyline edge passes through the z-axis")
        px, py = qx, qy
    return winding


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
        lo, hi = abs(d - path.radius), d + path.radius
        inside = _require_clearance(f, lo, hi, lo - _ROUND * hi)
        name, coef = ("B", f.B) if inside else ("gamma", f.gamma)
        turn = _arc(coef, inside, c.x, c.y, path.radius, math.copysign(math.tau, path.turns),
                    spec)
        value = turn * abs(path.turns)
        if not math.isfinite(value):
            raise _not_finite(value, (name, coef), ("turns", path.turns))
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
    carries the exterior B_z = 0 and adds nothing.  Analytic value, for
    any L > 0: pi * B * min(L, R)**2; a flux that overflows is a
    ValueError naming B and min(L, R).
    """
    spec = spec if spec is not None else _DEFAULT_SPEC
    _require_positive("disc radius", L, error=InvalidRadius)
    values = _stored_split_disc(f, L, spec)
    return values[1] if values is not None else _disc(f.B, min(L, f.R), spec)


#: the last split disc as (f, L, spec, _split_disc's four values), or None
_last_split_disc: tuple | None = None


def _stored_split_disc(f: SolenoidField, L: float, spec: QuadratureSpec) -> tuple | None:
    """The last split disc's values if its f, L and spec are these
    objects, else None: identity, as in circulation."""
    last = _last_split_disc
    if last is not None and last[0] is f and last[1] is L and last[2] is spec:
        return last[3]
    return None


def _exterior_rings(f: SolenoidField, L: float, spec: QuadratureSpec) -> tuple[float, float]:
    """Whole turns of the exterior formula at rho = R, its one-sided
    limit, and at rho = L: the last split disc's if it was about these
    objects, else integrated and stored nowhere.  The caller validates L."""
    values = _stored_split_disc(f, L, spec)
    if values is not None:
        return values[2:]
    return tuple(_arc(f.gamma, False, 0.0, 0.0, rho, math.tau, spec) for rho in (f.R, L))


def _split_disc(f: SolenoidField, L: float, spec: QuadratureSpec) -> tuple:
    """(phi_1, phi_1_area, circ_inner, circ_outer): the interior formula's
    whole turn at rho = R, its one-sided limit, the flux of B through
    [0, R] and the exterior rings; kept for the next call about the same
    objects unless it raises.  The caller validates L.  The area flux is
    integrated first, so a flux that overflows is named with B and R, as
    flux_direct names it."""
    global _last_split_disc
    values = _stored_split_disc(f, L, spec)
    if values is None:
        area = _disc(f.B, f.R, spec)
        values = (_arc(f.B, True, 0.0, 0.0, f.R, math.tau, spec), area,
                  *_exterior_rings(f, L, spec))
        _last_split_disc = (f, L, spec, values)
    return values
