"""Per-panel reference of the line-integral kernel.

This is the kernel as it was before each pass went through one integrand
call: every panel builds its own 15 nodes and calls its piece's
integrand once, every polyline edge is its own piece, and every panel
is pushed onto the heap on its own.  Every arc computes cos and sin at
each of its nodes, with no table.  The batched kernel in abflux.geometry
must give repr-identical values from the same number of panels.

A piece carries the bound of its panels' errors, or None: an exterior
edge certifies a popped panel with geometry._edge_bound once, and an
exterior turn off the axis with geometry._arc_bound, in the same order
as the batched kernel, before it would split it.
"""

from __future__ import annotations

import heapq
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count
from math import cos, hypot, sin

from abflux.errors import QuadratureNotConverged
from abflux.fields import Point, SolenoidField
from abflux.geometry import _WG, _WGK, _XGK, QuadratureSpec, _arc_bound, _edge_bound


def gk15(fn, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod estimate on [a, b] and |K15 - G7|, one call of fn."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d0, d1, d2, d3, d4, d5, d6 = [half * x for x in _XGK[:7]]
    y = fn([center, center - d0, center - d1, center - d2, center - d3, center - d4,
            center - d5, center - d6, center + d0, center + d1, center + d2, center + d3,
            center + d4, center + d5, center + d6])
    fc = y[0]
    s1, s3, s5 = y[2] + y[9], y[4] + y[11], y[6] + y[13]
    kronrod = (_WGK[7] * fc + _WGK[0] * (y[1] + y[8]) + _WGK[1] * s1
               + _WGK[2] * (y[3] + y[10]) + _WGK[3] * s3 + _WGK[4] * (y[5] + y[12])
               + _WGK[5] * s5 + _WGK[6] * (y[7] + y[14]))
    gauss = _WG[3] * fc + _WG[0] * s1 + _WG[1] * s3 + _WG[2] * s5
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def integrate(pieces, spec: QuadratureSpec) -> tuple[float, int]:
    """Integrate (fn, a, b, seed, bound) pieces panel by panel; return the
    value and the number of panels evaluated.  A popped panel whose piece
    has a bound and that is not yet certified takes the bound as its
    error if it is below its estimate, and goes back on the heap; that
    spends no budget, so only a panel to be split checks the budget."""
    heap = []
    tie = count()
    fns = []
    bounds = []
    total = 0.0
    err = 0.0
    panels = 0
    for fn, a, b, seed, bound in pieces:
        idx = len(fns)
        fns.append(fn)
        bounds.append(bound)
        width = (b - a) / seed
        for k in range(seed):
            lo = a + k * width
            hi = b if k == seed - 1 else a + (k + 1) * width
            v, e = gk15(fn, lo, hi)
            panels += 1
            heapq.heappush(heap, (-e, next(tie), idx, lo, hi, v, False))
            total += v
            err += e

    splits = 0
    while err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        neg_e, _, idx, lo, hi, v, certified = heapq.heappop(heap)
        bound = bounds[idx]
        if bound is not None and not certified and (e := bound(lo, hi)) < -neg_e:
            err = max(err + e - (-neg_e), 0.0)
            heapq.heappush(heap, (-e, next(tie), idx, lo, hi, v, True))
            continue
        if splits >= spec.max_subdivisions:
            raise QuadratureNotConverged(f"{splits} subdivisions")
        fn = fns[idx]
        mid = 0.5 * (lo + hi)
        v1, e1 = gk15(fn, lo, mid)
        v2, e2 = gk15(fn, mid, hi)
        panels += 2
        total += (v1 + v2) - v
        err = max(err + (e1 + e2) - (-neg_e), 0.0)
        heapq.heappush(heap, (-e1, next(tie), idx, lo, mid, v1, False))
        heapq.heappush(heap, (-e2, next(tie), idx, mid, hi, v2, False))
        splits += 1

    final = sorted(heap, key=lambda item: (item[2], item[3]))
    return math.fsum(item[5] for item in final), panels


def arc_piece(f: SolenoidField, inside: bool, cx: float, cy: float, radius: float,
              sweep: float):
    """The whole turn about (cx, cy) from azimuth 0 through sweep = +-2*pi,
    one seed panel per quarter turn, with the formula of the given side
    of rho = R; outside and off the axis, its panels have a bound."""
    k = radius * sweep
    nk = -k
    if inside:
        bx, by = -0.5 * f.B, 0.5 * f.B

        def interior(ts):
            out = []
            for t in ts:
                th = sweep * t
                c, s = cos(th), sin(th)
                out.append(bx * (cy + radius * s) * (nk * s) + by * (cx + radius * c) * (k * c))
            return out

        return interior, 0.0, 1.0, 4, None

    gamma = f.gamma

    def exterior(ts):
        out = []
        for t in ts:
            th = sweep * t
            c, s = cos(th), sin(th)
            x, y = cx + radius * c, cy + radius * s
            rho = hypot(x, y)
            scale = gamma / (rho * rho)
            out.append(-scale * y * (nk * s) + scale * x * (k * c))
        return out

    if cx == 0.0 and cy == 0.0:
        return exterior, 0.0, 1.0, 4, None
    return (exterior, 0.0, 1.0, 4,
            lambda lo, hi: _arc_bound(gamma, cx, cy, radius, sweep, lo, hi))


def edge_piece(f: SolenoidField, inside: bool, p: Point, q: Point):
    """The edge p -> q as its own piece with one seed panel; outside,
    its integrand is gamma*dphi/dt and its panels have a bound."""
    px, py = p.x, p.y
    dx, dy = q.x - px, q.y - py
    if inside:
        bx, by = -0.5 * f.B, 0.5 * f.B
        return (lambda ts: [bx * (py + t * dy) * dx + by * (px + t * dx) * dy for t in ts],
                0.0, 1.0, 1, None)

    gamma = f.gamma

    def exterior(ts):
        out = []
        for t in ts:
            x, y = px + t * dx, py + t * dy
            out.append(gamma * ((x * dy - y * dx) / (x * x + y * y)))
        return out

    return exterior, 0.0, 1.0, 1, lambda lo, hi: _edge_bound(gamma, px, py, dx, dy, lo, hi)


def disc_piece(b_z: float, rho_max: float):
    """The disc [0, rho_max] of constant B_z = b_z as a radial piece with
    one seed panel: rho times a whole turn times b_z."""
    azimuthal = math.tau * b_z
    return (lambda rhos: [rho * azimuthal for rho in rhos]), 0.0, rho_max, 1, None


#: QUADPACK's dqk15 abscissae and Kronrod weights to 33 digits, for
#: the rule in exact arithmetic: the floats in abflux.geometry are these
#: rounded to 16 decimals
XGK_33 = tuple(map(Fraction, (
    "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
    "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245", "0")))
WGK_33 = tuple(map(Fraction, (
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714")))


def edge_panel_exact(gamma: float, px: float, py: float, dx: float, dy: float,
                     lo: float, hi: float) -> float:
    """The integral of gamma*dphi along p + t*d over [lo, hi]: gamma times
    the angle atan2(P(lo) x P(hi), P(lo) . P(hi)), whose cross and dot
    products are exact and rounded once, so it errs by a few ulps."""
    x0, y0, ex, ey = map(Fraction, (px, py, dx, dy))
    p0, p1 = [(x0 + Fraction(t) * ex, y0 + Fraction(t) * ey) for t in (lo, hi)]
    cross = p0[0] * p1[1] - p0[1] * p1[0]
    dot = p0[0] * p1[0] + p0[1] * p1[1]
    return gamma * math.atan2(float(cross), float(dot))


def edge_panel_rule(gamma: float, px: float, py: float, dx: float, dy: float,
                    lo: float, hi: float) -> Fraction:
    """GK15 on [lo, hi] of the exterior edge integrand, gamma*(p x
    d)/|p + t*d|**2, in exact arithmetic at the 33-digit nodes and weights."""
    g, x0, y0, ex, ey = map(Fraction, (gamma, px, py, dx, dy))
    m, s = (Fraction(lo) + Fraction(hi)) / 2, (Fraction(hi) - Fraction(lo)) / 2
    cross = x0 * ey - y0 * ex

    def f(t):
        x, y = x0 + t * ex, y0 + t * ey
        return g * cross / (x * x + y * y)

    total = WGK_33[7] * f(m)
    for x, w in zip(XGK_33[:7], WGK_33[:7]):
        total += w * (f(m - s * x) + f(m + s * x))
    return s * total


def edge_near(px: float, py: float, dx: float, dy: float, lo: float, hi: float) -> float:
    """The closest approach of p + t*d, t in [lo, hi], to the axis, from
    exact arithmetic, rounded once."""
    x0, y0, ex, ey = map(Fraction, (px, py, dx, dy))
    t = min(max(-(x0 * ex + y0 * ey) / (ex * ex + ey * ey), Fraction(lo)), Fraction(hi))
    x, y = x0 + t * ex, y0 + t * ey
    return math.sqrt(x * x + y * y)


#: pi to 64 digits, for the arc's exact integrals at 60
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x, by the Taylor series at x reduced to [-pi, pi],
    whose terms are summed until they fall below 1e-70"""
    x -= 2 * _PI * (x / (2 * _PI)).to_integral_value()
    c = s = Decimal(0)
    term, n = Decimal(1), 0
    while abs(term) > Decimal("1e-70") or n < 8:
        if n % 4 == 0:
            c += term
        elif n % 4 == 1:
            s += term
        elif n % 4 == 2:
            c -= term
        else:
            s -= term
        n += 1
        term = term * x / n
    return c, s


def _atan2(y: Decimal, x: Decimal) -> Decimal:
    """The angle of (x, y) in (-pi, pi]: its tangent or cotangent, of
    modulus at most 1, is halved three times, to at most tan(pi/32), and
    summed by the Taylor series of atan until a term falls below 1e-70"""
    if abs(y) > abs(x):
        return (_PI / 2 if y > 0 else -_PI / 2) - _atan2(x, abs(y)) * (1 if y > 0 else -1)
    if x == 0:
        return Decimal(0)
    v = y / x
    for _ in range(3):
        v = v / (1 + (1 + v * v).sqrt())
    total, power, n = Decimal(0), v, 1
    while abs(power) > Decimal("1e-70"):
        total += power / n if n % 4 == 1 else -power / n
        power *= v * v
        n += 2
    angle = 8 * total
    if x > 0:
        return angle
    return angle + _PI if y >= 0 else angle - _PI


def arc_panel_exact(gamma: float, cx: float, cy: float, radius: float, sweep: float,
                    lo: float, hi: float) -> Fraction:
    """The integral over [lo, hi] of the exterior integrand of the turn c +
    radius*e**(i*th), th = +-2*pi*t exactly, at 60 digits: gamma times
    the azimuth P(t) sweeps about the axis.  Where |c| > r that is the
    angle from P(lo) to P(hi), under pi; where |c| < r, P = e**(i*th)*V,
    V = r + c*e**(-i*th), and it is th(hi) - th(lo) plus the angle from
    V(lo) to V(hi), under pi since Re V > 0.  Each step errs by a few
    units of 1e-60 of its operands, so the result lies within
    1e-50*|gamma|*(1 + scale/near) of the integral, scale = |c| + r and
    near the turn's closest approach to the axis."""
    with localcontext() as ctx:
        ctx.prec = 60
        x0, y0, r = Decimal(cx), Decimal(cy), Decimal(radius)
        winds = x0 * x0 + y0 * y0 < r * r
        turn = 2 * _PI if sweep > 0 else -2 * _PI
        ends = []
        for t in (lo, hi):
            c, s = _cos_sin(turn * Decimal(t))
            # V = r + c*e**(-i*th) where the turn winds, else P = c + r*e**(i*th)
            ends.append((r + x0 * c + y0 * s, y0 * c - x0 * s) if winds
                        else (x0 + r * c, y0 + r * s))
        (ax, ay), (bx, by) = ends
        angle = _atan2(ax * by - ay * bx, ax * bx + ay * by)
        if winds:
            angle += turn * (Decimal(hi) - Decimal(lo))
        return Fraction(Decimal(gamma) * angle)


def arc_panel_rule(gamma: float, cx: float, cy: float, radius: float, sweep: float,
                   lo: float, hi: float) -> Fraction:
    """GK15 on [lo, hi] of the exterior integrand of the turn,
    gamma*sweep*r*(P.u)/|P|**2 with u = (cos th, sin th), th = sweep*t
    and sweep = +-2*pi exactly, at the 33-digit nodes and weights and 60
    digits"""
    with localcontext() as ctx:
        ctx.prec = 60
        g, x0, y0, r = map(Decimal, (gamma, cx, cy, radius))
        turn = 2 * _PI if sweep > 0 else -2 * _PI
        m = (Decimal(lo) + Decimal(hi)) / 2
        s = (Decimal(hi) - Decimal(lo)) / 2

        def f(t):
            c, sn = _cos_sin(turn * t)
            x, y = x0 + r * c, y0 + r * sn
            return g * turn * r * (x * c + y * sn) / (x * x + y * y)

        def dec(q: Fraction) -> Decimal:
            return Decimal(q.numerator) / Decimal(q.denominator)

        total = dec(WGK_33[7]) * f(m)
        for x, w in zip(XGK_33[:7], WGK_33[:7]):
            total += dec(w) * (f(m - s * dec(x)) + f(m + s * dec(x)))
        return Fraction(s * total)


def arc_near(cx: float, cy: float, radius: float, sweep: float, lo: float, hi: float) -> float:
    """The closest approach of the turn's panel [lo, hi] to the axis, at
    60 digits, rounded once: rho grows along the turn away from its
    nearest point c*(1 - r/|c|), so it is least at an end of the panel
    or at that point, where the panel holds it"""
    with localcontext() as ctx:
        ctx.prec = 60
        x0, y0, r = Decimal(cx), Decimal(cy), Decimal(radius)
        turn = 2 * _PI if sweep > 0 else -2 * _PI
        nearest = _atan2(-y0, -x0) / turn
        ts = [Decimal(lo), Decimal(hi)] + [nearest + k for k in (-1, 0, 1)
                                           if lo <= nearest + k <= hi]

        def rho(t):
            c, s = _cos_sin(turn * t)
            return ((x0 + r * c) ** 2 + (y0 + r * s) ** 2).sqrt()

        return float(min(map(rho, ts)))
