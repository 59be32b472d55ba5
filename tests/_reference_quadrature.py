"""Per-panel reference of the line-integral kernel.

This is the kernel as it was before each pass went through one integrand
call: every panel builds its own 15 nodes and calls its piece's
integrand once, every polyline edge is its own piece, and every panel
is pushed onto the heap on its own.  Every arc computes cos and sin at
each of its nodes, with no table.  The batched kernel in abflux.geometry
must give repr-identical values from the same number of panels.

A piece carries the bound of its panels' errors, or None: an exterior
edge certifies a popped panel with geometry._edge_bound once, in the
same order as the batched kernel, before it would split it.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import count
from math import cos, hypot, sin

from abflux.errors import QuadratureNotConverged
from abflux.fields import Point, SolenoidField
from abflux.geometry import _WG, _WGK, _XGK, QuadratureSpec, _edge_bound


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
    error if it is below its estimate, and goes back on the heap."""
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
        if splits >= spec.max_subdivisions:
            raise QuadratureNotConverged(f"{splits} subdivisions")
        neg_e, _, idx, lo, hi, v, certified = heapq.heappop(heap)
        bound = bounds[idx]
        if bound is not None and not certified and (e := bound(lo, hi)) < -neg_e:
            err = max(err + e - (-neg_e), 0.0)
            heapq.heappush(heap, (-e, next(tie), idx, lo, hi, v, True))
            continue
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
              phi0: float, sweep: float):
    """The arc about (cx, cy) from phi0 through sweep, one seed panel per
    quarter turn, with the formula of the given side of rho = R."""
    k = radius * sweep
    nk = -k
    seed = max(1, math.ceil(abs(sweep) / (0.5 * math.pi)))
    if inside:
        bx, by = -0.5 * f.B, 0.5 * f.B

        def interior(ts):
            out = []
            for t in ts:
                th = phi0 + sweep * t
                c, s = cos(th), sin(th)
                out.append(bx * (cy + radius * s) * (nk * s) + by * (cx + radius * c) * (k * c))
            return out

        return interior, 0.0, 1.0, seed, None

    gamma = f.gamma

    def exterior(ts):
        out = []
        for t in ts:
            th = phi0 + sweep * t
            c, s = cos(th), sin(th)
            x, y = cx + radius * c, cy + radius * s
            rho = hypot(x, y)
            scale = gamma / (rho * rho)
            out.append(-scale * y * (nk * s) + scale * x * (k * c))
        return out

    return exterior, 0.0, 1.0, seed, None


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
