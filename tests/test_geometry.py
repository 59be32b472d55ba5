import io
import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_quadrature as reference
from _helpers import (
    json_numbers,
    json_values,
    offset_loop,
    random_exterior_loop,
    random_field,
    result_or_none,
    star_loop,
)
from abflux import fields, geometry
from abflux.errors import (
    FieldUndefinedOnSolenoid,
    InvalidRadius,
    PathCrossesSolenoid,
    PathTouchesAxis,
    QuadratureNotConverged,
    WindingUnresolvable,
)
from abflux.fields import Point, SolenoidField, Vec3, ab_standard, eval_A, eval_B, gauge_shift
from abflux.geometry import (
    _WG,
    _WGK,
    Circle,
    Polyline,
    QuadratureSpec,
    _gk15,
    _integrate_pieces,
    _nodes,
    arc_integral,
    circulation,
    flux_direct,
    sector_flux,
    segment_integral,
    winding_number,
)
from abflux.loaders import load_circle_json, load_polyline_csv
from abflux.phase import holonomy
from abflux.stokes import chart_audit, verify_stokes

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon
ORIGIN = Point(0.0, 0.0, 0.0)


def centred_square(half_width: float) -> Polyline:
    """Counterclockwise axis-centred square."""
    h = half_width
    return Polyline((Point(h, -h), Point(h, h), Point(-h, h), Point(-h, -h)))


def near_axis_triangles(rng: random.Random, count: int):
    """(field, triangle, winding) of exterior triangles about a solenoid
    with R in [1e-4, 1]: one edge passes the axis at R*(1 + 10**u), u in
    [-5, 1], and the apex lies across the axis.  With s that distance,
    the edge is from max(1, 4*s) to 400 times that long: a rounding
    error of size eps*|p| in one cross product per edge, spread over all
    its nodes, misses rel_tol=1e-12 here."""
    for _ in range(count):
        R = 10.0 ** rng.uniform(-4.0, 0.0)
        gamma = rng.choice((-1, 1)) * rng.uniform(0.2, 2.5)
        f = SolenoidField(B=rng.uniform(-3.0, 3.0), R=R, gamma=gamma)
        s = R * (1.0 + 10.0 ** rng.uniform(-5.0, 1.0))
        size = max(1.0, 4.0 * s) * 10.0 ** rng.uniform(0.0, 2.0)
        local = ((s, -size * rng.uniform(0.5, 2.0)), (s, size * rng.uniform(0.5, 2.0)),
                 (-size * rng.uniform(0.5, 3.0), size * rng.uniform(-0.25, 0.25)))
        a = rng.uniform(0.0, TWO_PI)
        c, sn = math.cos(a), math.sin(a)
        vertices = [Point(x * c - y * sn, x * sn + y * c) for x, y in local]
        w = rng.choice((-1, 1))
        yield f, Polyline(vertices[::w]), w


def crossing_number_winding(polyline: Polyline) -> int:
    """Independent winding oracle: signed crossings of the positive x-axis.

    Counts edges of the xy-projected polygon that cross y = 0 at x > 0,
    +1 upward and -1 downward.
    """
    total = 0
    verts = polyline.vertices
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        if p.y < 0.0 <= q.y or q.y < 0.0 <= p.y:
            t = -p.y / (q.y - p.y)
            x_cross = p.x + t * (q.x - p.x)
            if x_cross > 0.0:
                total += 1 if q.y > p.y else -1
    return total


class TestQuadratureEngine:
    def test_weight_sums(self):
        assert math.fsum(_WGK) * 2.0 - _WGK[7] == pytest.approx(2.0, abs=1e-14)
        assert math.fsum(_WG) * 2.0 - _WG[3] == pytest.approx(2.0, abs=1e-14)

    def test_kronrod_exact_on_high_degree_polynomial(self):
        value, _ = _gk15([t**20 for t in _nodes(0.0, 1.0)], 0, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 21.0, rel=1e-14)

    def test_gauss_embedded_rule_agrees_on_degree_13(self):
        # G7 integrates degree <= 13 exactly, so the error estimate
        # collapses to roundoff there
        _, err = _gk15([t**13 for t in _nodes(0.0, 1.0)], 0, 0.0, 1.0)
        assert err < 1e-15

    def test_adaptive_oscillatory_integral(self):
        expected = (1.0 - math.cos(40.0)) / 40.0
        value = _integrate_pieces(
            [(lambda cs, ts: [math.sin(40.0 * t) for t in ts], 0.0, 1.0, 1, 1)], QuadratureSpec())
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_subdivision_budget_enforced(self):
        tight = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=0)
        with pytest.raises(QuadratureNotConverged):
            _integrate_pieces([(lambda cs, ts: [math.sin(40.0 * t) for t in ts], 0.0, 1.0, 1, 1)],
                              tight)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        for bad in (-1, 2.5, 2.0, True, math.inf, "8"):
            with pytest.raises(ValueError):
                QuadratureSpec(max_subdivisions=bad)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                QuadratureSpec(rel_tol=bad)
            with pytest.raises(ValueError):
                QuadratureSpec(abs_tol=bad)


class TestPathTypes:
    def test_circle_validation(self):
        with pytest.raises(ValueError):
            Circle(ORIGIN, 0.0, 1)
        with pytest.raises(ValueError):
            Circle(ORIGIN, 1.0, 0)
        with pytest.raises(ValueError):
            Circle(ORIGIN, 1.0, True)
        # no float value to scale a circulation by
        with pytest.raises(ValueError):
            Circle(ORIGIN, 3.0, 10**400)

    def test_polyline_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polyline((Point(1, 0), Point(2, 0)))


class TestWindingNumber:
    def test_unit_circle(self):
        assert winding_number(Circle(ORIGIN, 1.0, 1)) == 1
        assert winding_number(Circle(ORIGIN, 1.0, -3)) == -3

    def test_clockwise_square(self):
        square = Polyline((Point(1, 1), Point(1, -1), Point(-1, -1), Point(-1, 1)))
        assert crossing_number_winding(square) == -1
        assert winding_number(square) == -1

    def test_non_enclosing_square(self):
        square = Polyline((Point(2, -0.4), Point(3, -0.4), Point(3, 0.4), Point(2, 0.4)))
        assert crossing_number_winding(square) == 0
        assert winding_number(square) == 0

    def test_non_enclosing_circle(self):
        assert winding_number(Circle(Point(5.0, 0.0, 0.0), 1.0, 2)) == 0

    def test_circle_through_axis(self):
        with pytest.raises(PathTouchesAxis):
            winding_number(Circle(Point(1.0, 0.0, 0.0), 1.0, 1))

    def test_vertex_on_axis(self):
        with pytest.raises(PathTouchesAxis):
            winding_number(Polyline((Point(0, 0), Point(1, 0), Point(0, 1))))

    def test_antipodal_vertices_unresolvable(self):
        with pytest.raises(WindingUnresolvable):
            winding_number(Polyline((Point(1, 0), Point(-1, 0), Point(0, 1))))

    @settings(max_examples=60, deadline=None)
    @given(
        winding=st.integers(min_value=-3, max_value=3).filter(lambda w: w != 0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_star_loops_have_constructed_winding(self, winding, seed):
        loop = star_loop(random.Random(seed), winding, 1.0, 4.0)
        assert winding_number(loop) == winding
        assert crossing_number_winding(loop) == winding


class TestCirculation:
    def test_circle_matches_exterior_circulation(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        value = circulation(f, Circle(ORIGIN, 3.0, 1))
        assert value == pytest.approx(TWO_PI, rel=1e-9)

    def test_non_enclosing_loop_is_zero(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        square = Polyline((Point(2, -0.4), Point(3, -0.4), Point(3, 0.4), Point(2, 0.4)))
        assert abs(circulation(f, square)) < QuadratureSpec().abs_tol

    def test_two_turns_doubles(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert circulation(f, Circle(ORIGIN, 5.0, 2)) == pytest.approx(2.0 * TWO_PI, rel=1e-9)

    def test_orientation_reversal_negates(self):
        rng = random.Random(31)
        f = random_field(rng)
        loop = star_loop(rng, 2, 2.0 * f.R, 4.0 * f.R)
        reverse = Polyline(tuple(reversed(loop.vertices)))
        assert circulation(f, reverse) == pytest.approx(-circulation(f, loop), rel=1e-9)

    def test_doubled_traversal_doubles(self):
        rng = random.Random(37)
        f = random_field(rng)
        loop = star_loop(rng, 1, 2.0 * f.R, 4.0 * f.R)
        doubled = Polyline(loop.vertices + loop.vertices)
        assert winding_number(doubled) == 2
        assert circulation(f, doubled) == pytest.approx(2.0 * circulation(f, loop), rel=1e-9)

    def test_z_variation_contributes_nothing(self):
        # the potential has no z-component, so lifting vertices out of the
        # plane must not change the integral
        rng = random.Random(41)
        f = random_field(rng)
        flat = star_loop(rng, 1, 2.0 * f.R, 4.0 * f.R, z_jitter=0.0)
        lifted = Polyline(tuple(
            Point(p.x, p.y, 3.0 * math.sin(i)) for i, p in enumerate(flat.vertices)
        ))
        assert circulation(f, lifted) == pytest.approx(circulation(f, flat), rel=1e-10)

    def test_matches_winding_formula_randomized(self):
        rng = random.Random(43)
        for _ in range(25):
            f = random_field(rng)
            w = rng.randint(-3, 3)
            loop = random_exterior_loop(rng, f, w)
            expected = TWO_PI * f.gamma * w
            tol = 1e-9 * max(abs(expected), TWO_PI * abs(f.gamma))
            assert abs(circulation(f, loop) - expected) <= tol

    def test_interior_circle_gives_area_integral(self):
        # inside the solenoid the integral theorem applies directly:
        # one turn at radius r encloses flux pi*B*r**2
        f = SolenoidField(B=2.0, R=2.0, gamma=0.3)
        value = circulation(f, Circle(ORIGIN, 0.5, 1))
        assert value == pytest.approx(math.pi * 2.0 * 0.25, rel=1e-12)

    def test_gauge_shift_adds_2pi_kappa_per_turn(self):
        rng = random.Random(47)
        for _ in range(10):
            f = random_field(rng)
            kappa = rng.uniform(-2.0, 2.0)
            w = rng.choice((-2, -1, 1, 2))
            loop = random_exterior_loop(rng, f, w)
            base = circulation(f, loop)
            shifted = circulation(gauge_shift(f, kappa), loop)
            assert shifted - base == pytest.approx(TWO_PI * kappa * w, abs=1e-9 * max(1.0, abs(kappa)))

    def test_path_crossing_solenoid_rejected(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(PathCrossesSolenoid):
            circulation(f, Circle(ORIGIN, 1.0 + 1e-8, 1))
        with pytest.raises(PathCrossesSolenoid):
            circulation(f, Polyline((Point(0, 0), Point(3, 0), Point(0, 3))))
        # every vertex clears the band by far; the edges' closest approach
        # to the axis, at their midpoints, does not
        with pytest.raises(PathCrossesSolenoid):
            circulation(f, centred_square(1.0 + 5e-7))
        assert circulation(f, centred_square(1.0 + 2e-6)) == pytest.approx(TWO_PI, rel=1e-9)

    def test_inside_clearance_band_rejected(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(PathCrossesSolenoid):
            circulation(f, Circle(ORIGIN, 1.0 - 1e-8, 1))

    def test_crossing_path_is_named_whatever_vertex_it_starts_from(self):
        # one edge overflows rho*rho and another crosses the band: the
        # path's one rho range names the crossing from every start vertex
        f = SolenoidField(B=1.0, R=1.0, gamma=0.5)
        v = (Point(1e155, 0.0), Point(0.0, 1e155), Point(-0.5, 0.0))
        for k in range(len(v)):
            with pytest.raises(PathCrossesSolenoid):
                circulation(f, Polyline(v[k:] + v[:k]))

    def test_subdivision_budget_propagates(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        square = Polyline((Point(2, -2), Point(2, 2), Point(-2, 2), Point(-2, -2)))
        with pytest.raises(QuadratureNotConverged):
            circulation(f, square, QuadratureSpec(max_subdivisions=0))

    def test_overflowing_integral_raises(self):
        # the integrand overflows to inf on the square's nodes
        square = Polyline((Point(2, -2), Point(2, 2), Point(-2, 2), Point(-2, -2)))
        with pytest.raises(ValueError):
            circulation(SolenoidField(B=0.0, R=1.0, gamma=1e308), square)
        with pytest.raises(ValueError):
            circulation(SolenoidField(B=1e308, R=10.0, gamma=0.0), Circle(ORIGIN, 5.0, 1))
        # finite one-turn value, overflowing once scaled by the turn count
        with pytest.raises(ValueError):
            circulation(SolenoidField(B=0.0, R=1.0, gamma=1e306), Circle(ORIGIN, 3.0, 1000))

    def test_large_gamma_with_a_finite_integral_returns_it(self):
        # gamma*(x*dy - y*dx) alone would overflow on this square's nodes
        f = SolenoidField(B=0.0, R=1.0, gamma=1e300)
        assert circulation(f, centred_square(1e5)) == pytest.approx(TWO_PI * 1e300, rel=1e-9)

    def test_underflowing_exterior_raises_before_quadrature(self, monkeypatch):
        # rho*rho underflows to 0 on these exterior paths: named when the
        # path is cleared, never a ZeroDivisionError from a node
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the underflow check")

        monkeypatch.setattr(geometry, "_gk15", no_quadrature)
        f = SolenoidField(B=1.0, R=1e-300, gamma=1.0)
        square = Polyline((Point(2e-300, -2e-300), Point(2e-300, 2e-300),
                           Point(-2e-300, 2e-300), Point(-2e-300, -2e-300)))
        for path in (Circle(ORIGIN, 2e-300, 1), Circle(Point(5e-300, 0.0), 2e-300, 1), square):
            with pytest.raises(ValueError, match="underflow"):
                circulation(f, path)
        # a subnormal rho*rho loses precision: refused from sys.float_info.min
        tiny = SolenoidField(B=1.0, R=1e-163, gamma=0.5)
        for path in (Circle(ORIGIN, 1e-160, 1), centred_square(1e-160)):
            with pytest.raises(ValueError, match="underflow"):
                circulation(tiny, path)
        # rho*rho is normal at every vertex, but subnormal where the first
        # edge passes the axis at rho = 1e-155
        triangle = Polyline((Point(1e-155, -1e-150), Point(1e-155, 1e-150), Point(-1e-150, 0.0)))
        with pytest.raises(ValueError, match="underflow"):
            circulation(SolenoidField(B=1.0, R=1e-160, gamma=0.5), triangle)
        with pytest.raises(ValueError, match="underflow"):
            arc_integral(f, 2e-300, 0.0, 1.0)
        with pytest.raises(ValueError, match="underflow"):
            eval_A(f, Point(2e-300, 0.0))

    def test_overflowing_rho_squared_raises_before_quadrature(self, monkeypatch):
        # where rho*rho overflows, gamma/rho**2 would read 0: named when
        # the path is cleared
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the overflow check")

        monkeypatch.setattr(geometry, "_gk15", no_quadrature)
        f = SolenoidField(B=1.0, R=1e-3, gamma=0.5)
        for path in (centred_square(1e154), Circle(ORIGIN, 1e155, 1),
                     Circle(Point(3e154, 0.0), 1e154, 1)):
            with pytest.raises(ValueError, match="overflow"):
                circulation(f, path)
        with pytest.raises(ValueError, match="overflow"):
            arc_integral(f, 1e155, 0.0, 1.0)
        with pytest.raises(ValueError, match="overflow"):
            segment_integral(f, Point(1.0, 0.0), Point(1.0, 1e155))

    @pytest.mark.parametrize("half_width", [1e-160, 1e-150, 1e150, 1e154, 1e155])
    def test_extreme_scales_are_right_or_named(self, half_width):
        # every path returns its closed form to tolerance, or raises a
        # ValueError naming the underflow or overflow: never a wrong number
        f = SolenoidField(B=1.0, R=1e-3 * half_width, gamma=0.5)
        paths = ((centred_square(half_width), 1), (Circle(ORIGIN, half_width, -1), -1),
                 (Circle(Point(3.0 * half_width, 0.0), half_width, 1), 0))
        for path, w in paths:
            expected = TWO_PI * f.gamma * w
            try:
                value = circulation(f, path)
            except ValueError as exc:
                assert "underflow" in str(exc) or "overflow" in str(exc)
            else:
                assert abs(value - expected) <= max(1e-12, 1e-9 * abs(expected))

    def test_edge_of_length_1e_300(self):
        f = SolenoidField(B=1.0, R=1e-3, gamma=0.5)
        assert abs(segment_integral(f, Point(1.0, 0.0), Point(1.0, 1e-300))) <= 1e-12
        hexagon = Polyline((Point(1.0, -1.0), Point(1.0, 0.0), Point(1.0, 1e-300),
                            Point(1.0, 1.0), Point(-1.0, 1.0), Point(-1.0, -1.0)))
        assert circulation(f, hexagon) == pytest.approx(math.pi, rel=1e-9)

    @pytest.mark.parametrize("center", [ORIGIN, Point(4.0, 1.0, 0.5)])
    def test_turns_cost_one_revolution(self, center, monkeypatch):
        # n turns are integrated once and scaled: same panels, exact n-fold value
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        panels = []
        gk15 = geometry._gk15

        def counting(*args):
            panels[-1] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_gk15", counting)
        values = {}
        for turns in (1, 1000, -1, -1000):
            panels.append(0)
            values[turns] = circulation(f, Circle(center, 2.5, turns), QuadratureSpec(rel_tol=1e-12))
        assert len(set(panels)) == 1
        assert values[1000] == 1000 * values[1]
        assert values[-1000] == 1000 * values[-1]

    def test_drifted_error_sum_still_converges(self, monkeypatch):
        # the first estimate near the thin solenoid is huge, and the running
        # error sum keeps its rounding far above rel_tol=1e-12 long after the
        # panels' own estimates meet it; judged on their exact sum it converges
        f = SolenoidField(B=2.0, R=1e-6, gamma=1.0)
        tri = Polyline((Point(1.00001e-6, -1.0), Point(1.00001e-6, 1.0), Point(-2.0, 0.0)))
        spec = QuadratureSpec(rel_tol=1e-12)
        panels = [0]
        gk15 = geometry._gk15

        def counting(*args):
            panels[0] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_gk15", counting)
        value = circulation(f, tri, spec)
        assert abs(value - TWO_PI) <= max(spec.abs_tol, spec.rel_tol * TWO_PI)
        assert panels[0] <= 500

    def test_integrands_build_no_points_or_vectors(self, monkeypatch):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        loops = (Circle(ORIGIN, 3.0, 2), Circle(ORIGIN, 0.5, 1),
                 Polyline((Point(2, -2), Point(2, 2), Point(-2, 2), Point(-2, -2))))
        start, end = Point(1.5, 0.0), Point(4.0, 1.0)

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built during quadrature")

        monkeypatch.setattr(fields.Point, "__init__", forbidden)
        monkeypatch.setattr(fields.Vec3, "__init__", forbidden)
        for loop in loops:
            circulation(f, loop)
        segment_integral(f, start, end)
        arc_integral(f, 2.0, 0.0, math.pi)
        flux_direct(f, 2.0)


class TestOpenIntegrals:
    def test_radial_segment_vanishes(self):
        # the potential is purely azimuthal, so radial segments contribute 0
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        assert segment_integral(f, Point(1.5, 0.0), Point(4.0, 0.0)) == 0.0

    def test_arc_matches_closed_circle(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        full = arc_integral(f, 2.0, 0.0, TWO_PI)
        assert full == pytest.approx(circulation(f, Circle(ORIGIN, 2.0, 1)), rel=1e-12)

    def test_half_arc_is_half_circulation(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        assert arc_integral(f, 3.0, 0.0, math.pi) == pytest.approx(math.pi * f.gamma, rel=1e-12)

    def test_arc_turns_cost_one_revolution(self, monkeypatch):
        # whole turns are integrated once and scaled; only the remainder is added
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        panels = []
        gk15 = geometry._gk15

        def counting(*args):
            panels[-1] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_gk15", counting)
        sweep = 1e5
        for rho, expected in ((3.0, f.gamma * sweep), (0.5, 0.5 * f.B * 0.5**2 * sweep)):
            panels.append(0)
            value = arc_integral(f, rho, 0.0, sweep)
            assert value == pytest.approx(expected, rel=1e-12)
            panels.append(0)
            arc_integral(f, rho, 0.0, TWO_PI)
            arc_integral(f, rho, 0.0, math.fmod(sweep, TWO_PI))
            assert panels[-2] == panels[-1]

    def test_arc_rejects_nonfinite_plane(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        with pytest.raises(ValueError):
            arc_integral(f, 2.0, 0.0, math.pi, z=math.nan)

    def test_polygon_assembles_from_segments(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=0.8)
        square = Polyline((Point(2, -2), Point(2, 2), Point(-2, 2), Point(-2, -2)))
        total = math.fsum(
            segment_integral(f, p, q) for p, q in zip(
                square.vertices, square.vertices[1:] + square.vertices[:1]
            )
        )
        assert total == pytest.approx(circulation(f, square), rel=1e-10)


class TestFluxDirect:
    def test_enclosing_disc(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert flux_direct(f, 2.0) == pytest.approx(TWO_PI, rel=1e-8)

    def test_interior_disc(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert flux_direct(f, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_zero_field(self):
        f = SolenoidField(B=0.0, R=1.0, gamma=1.0)
        assert flux_direct(f, 2.0) == 0.0

    def test_independent_of_outer_radius(self):
        f = SolenoidField(B=1.7, R=0.9, gamma=-0.4)
        values = [flux_direct(f, L) for L in (1.1 * f.R, 2.0 * f.R, 10.0 * f.R)]
        for a in values[1:]:
            assert a == pytest.approx(values[0], rel=1e-9)

    def test_rim_in_band_rejected(self):
        f = SolenoidField(B=1.0, R=1.0, gamma=0.0)
        with pytest.raises(FieldUndefinedOnSolenoid):
            flux_direct(f, 1.0)
        # the band of the surface rule, whose message names the rim's rho
        for L in (f.R * (1.0 - 5e-10), f.R * (1.0 + 5e-10)):
            with pytest.raises(FieldUndefinedOnSolenoid, match=f"rho = {L!r}"):
                flux_direct(f, L)
        assert flux_direct(f, f.R * (1.0 + 2e-9)) == flux_direct(f, 2.0 * f.R)

    def test_bad_radius_rejected(self):
        f = SolenoidField(B=1.0, R=1.0, gamma=0.0)
        with pytest.raises(InvalidRadius):
            flux_direct(f, -2.0)

    def test_sector_validation(self):
        f = SolenoidField(B=1.0, R=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            sector_flux(f, 2.0, 1.0, 0.0, math.pi)
        with pytest.raises(ValueError):
            sector_flux(f, 1.5, 2.0, math.pi, 0.0)

    def test_sector_across_band_rejected_at_entry(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the band check")

        monkeypatch.setattr(geometry, "_gk15", no_quadrature)
        with pytest.raises(FieldUndefinedOnSolenoid):
            sector_flux(SolenoidField(B=1.0, R=1.0, gamma=0.0), 0.5, 1.7, 0.0, math.pi)


class TestLoaders:
    def test_polyline_csv(self):
        text = "1,0,0\n0,1,0\n-1,0,0\n0,-1,0\n"
        loop = load_polyline_csv(io.StringIO(text))
        assert len(loop.vertices) == 4
        assert winding_number(loop) == 1

    def test_polyline_csv_with_header(self):
        for header in ("x,y,z", "x,y"):
            text = header + "\n1,0,0\n0,1,0\n-1,0,0\n"
            assert len(load_polyline_csv(io.StringIO(text)).vertices) == 3

    def test_polyline_csv_mistyped_first_vertex(self):
        # "O" for "0": the row has numeric cells, so it is a bad vertex, not a header
        with pytest.raises(ValueError):
            load_polyline_csv(io.StringIO("2,O,0\n0,2,0\n-2,0,0\n0,-2,0\n"))

    def test_polyline_csv_bad_columns(self):
        with pytest.raises(ValueError):
            load_polyline_csv(io.StringIO("1,0\n0,1\n2,2\n"))

    def test_polyline_csv_from_file(self, tmp_path):
        path = tmp_path / "loop.csv"
        path.write_text("2,0,0\n3,0,0\n3,1,0\n2,1,0\n", encoding="utf-8")
        assert winding_number(load_polyline_csv(path)) == 0

    def test_circle_json(self):
        loop = load_circle_json(io.StringIO('{"center": [0, 0, 1], "radius": 2.5, "turns": -2}'))
        assert loop.center == Point(0.0, 0.0, 1.0)
        assert loop.radius == 2.5
        assert loop.turns == -2

    def test_circle_json_default_turns(self):
        loop = load_circle_json(io.StringIO('{"center": [0, 0, 0], "radius": 1.0}'))
        assert loop.turns == 1

    def test_circle_json_malformed(self):
        for text in ('{"center": 5, "radius": 1}', '[0, 0, 0]',
                     '{"center": [0, 0, 0], "radius": 1, "turns": 1e400}',
                     '{"center": [0, 0, 0], "radius": 1, "turns": 2.5}',
                     '{"center": [0, 0, 0], "radius": "1"}', "[" * 100_000,
                     '{"radius": 1}', '{"center": [0, 0, 0]}', '{}'):
            with pytest.raises(ValueError):
                load_circle_json(io.StringIO(text))

    def test_polyline_csv_old_mac_line_ends(self):
        assert len(load_polyline_csv(io.StringIO("1,0,0\r0,1,0\r-1,0,0\r")).vertices) == 3


_csv_cells = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=4))


class TestLoaderProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.lists(_csv_cells, max_size=4), max_size=6).map(
            lambda rows: "\n".join(",".join(row) for row in rows)),
    ))
    def test_polyline_csv(self, text):
        loop = result_or_none(load_polyline_csv, io.StringIO(text))
        assert loop is None or isinstance(loop, Polyline)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.text(),
        json_values.map(json.dumps),
        st.fixed_dictionaries({}, optional={
            "center": st.lists(json_numbers, max_size=4) | json_values,
            "radius": json_numbers | json_values,
            "turns": json_numbers | json_values,
        }).map(json.dumps),
    ))
    def test_circle_json(self, text):
        loop = result_or_none(load_circle_json, io.StringIO(text))
        assert loop is None or isinstance(loop, Circle)


class TestIntegrandsMatchPointwiseFormulas:
    """The quadrature integrands hold each side's formula on their own;
    they must agree bit for bit with eval_A and eval_B, except on
    exterior edges, which integrate gamma*dphi."""

    @staticmethod
    def pieces_of(monkeypatch, call):
        pieces = []
        integrate = geometry._integrate_pieces

        def recording(ps, spec):
            ps = list(ps)
            pieces.extend(ps)
            return integrate(ps, spec)

        with monkeypatch.context() as m:
            m.setattr(geometry, "_integrate_pieces", recording)
            call()
        return pieces

    def test_arcs_and_edges_equal_eval_a_along_the_tangent(self, monkeypatch):
        rng = random.Random(59)
        for _ in range(12):
            f = random_field(rng)
            ts = [rng.random() for _ in range(15)]
            a = rng.uniform(0.0, TWO_PI)
            arcs = [
                Circle(Point(0.0, 0.0, 0.3), rng.uniform(0.1, 0.9) * f.R, rng.choice((-2, 1))),
                Circle(Point(0.2 * f.R * math.cos(a), 0.2 * f.R * math.sin(a)), 0.5 * f.R, 1),
                Circle(ORIGIN, rng.uniform(1.5, 4.0) * f.R, -1),
                Circle(Point(3.0 * f.R * math.cos(a), 3.0 * f.R * math.sin(a)), f.R, 2),
            ]
            for circle in arcs:
                [(fn, _, _, _, _)] = self.pieces_of(monkeypatch, lambda: circulation(f, circle))
                c0, r = circle.center, circle.radius
                sweep = math.copysign(TWO_PI, circle.turns)
                k = r * sweep
                expected = []
                for t in ts:
                    c, s = math.cos(sweep * t), math.sin(sweep * t)
                    point = Point(c0.x + r * c, c0.y + r * s)
                    expected.append(eval_A(f, point).dot(Vec3(-k * s, k * c, 0.0)))
                assert fn([0], ts) == expected

            inner = star_loop(rng, 1, 0.3 * f.R, 0.6 * f.R, z_jitter=0.2)
            outer = star_loop(rng, -2, 1.5 * f.R, 4.0 * f.R, z_jitter=0.2)
            for loop in (inner, outer):
                [(fn, _, _, seed, curves)] = self.pieces_of(
                    monkeypatch, lambda: circulation(f, loop))
                assert seed == curves == len(loop.vertices)
                batch = []
                v = loop.vertices
                for c, (p, q) in enumerate(zip(v, v[1:] + v[:1])):
                    d = Vec3(q.x - p.x, q.y - p.y, q.z - p.z)
                    nodes = [(p.x + t * d.x, p.y + t * d.y) for t in ts]
                    dotted = [eval_A(f, Point(x, y)).dot(d) for x, y in nodes]
                    if loop is inner:
                        assert fn([c], ts) == dotted
                        batch += dotted
                        continue
                    # exterior edges integrate gamma*dphi: bit for bit that
                    # expression at the rounded nodes, and within a few
                    # rounding errors of eval_A's dot product
                    expected = [f.gamma * ((x * d.y - y * d.x) / (x * x + y * y))
                                for x, y in nodes]
                    assert fn([c], ts) == expected
                    for value, want, (x, y) in zip(expected, dotted, nodes):
                        bound = 8.0 * EPS * abs(f.gamma) * math.hypot(d.x, d.y) / math.hypot(x, y)
                        assert abs(value - want) <= bound
                    batch += expected
                assert fn(range(curves), ts) == batch

    def test_sector_radial_values_equal_the_tensor_sum_of_eval_b(self, monkeypatch):
        rng = random.Random(61)
        for _ in range(12):
            f = random_field(rng)
            band = f.boundary_band
            phi_min = rng.uniform(-1.0, 1.0)
            phi_max = phi_min + rng.uniform(0.1, TWO_PI)
            mid = 0.5 * (phi_min + phi_max)
            for lo, hi in ((0.0, f.R - band), (0.2 * f.R, 0.7 * f.R),
                           (f.R + band, 3.0 * f.R), (1.5 * f.R, 2.5 * f.R)):
                [(fn, a, b, _, _)] = self.pieces_of(
                    monkeypatch, lambda: sector_flux(f, lo, hi, phi_min, phi_max))
                rhos = [a + (b - a) * rng.uniform(0.01, 0.99) for _ in range(15)]
                # B_z is one constant over the sector, so its azimuthal
                # integral is the sector's angle times B_z at any azimuth
                points = [Point(rho * math.cos(mid), rho * math.sin(mid)) for rho in rhos]
                expected = [rho * ((phi_max - phi_min) * eval_B(f, point).z)
                            for rho, point in zip(rhos, points)]
                assert fn([0], rhos) == expected


class TestBatchedKernelMatchesReference:
    """Each pass calls a piece's integrand once, and a polyline is one
    piece; values must be repr-equal to the per-panel, per-edge reference
    kernel's, from as many _gk15 panels."""

    @staticmethod
    def counted(monkeypatch, call):
        panels = [0]
        gk15 = geometry._gk15

        def counting(*args):
            panels[0] += 1
            return gk15(*args)

        with monkeypatch.context() as m:
            m.setattr(geometry, "_gk15", counting)
            value = call()
        return repr(value), panels[0]

    @staticmethod
    def expected(pieces, spec, scale=1):
        value, panels = reference.integrate(pieces, spec)
        return repr(value * scale), panels

    @classmethod
    def cold(cls, monkeypatch, call):
        """counted, from an empty whole-turn memo"""
        geometry._whole_turn.cache_clear()
        return cls.counted(monkeypatch, call)

    @pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-12)])
    def test_polylines(self, spec, monkeypatch):
        rng = random.Random(67)
        splits = 0
        for _ in range(8):
            f = random_field(rng)
            loops = ((star_loop(rng, 1, 0.3 * f.R, 0.6 * f.R, z_jitter=0.2), True),
                     (star_loop(rng, rng.choice((-2, 1, 3)), 1.5 * f.R, 4.0 * f.R), False),
                     (offset_loop(rng, f.R), False))
            for loop, inside in loops:
                v = loop.vertices
                edges = [reference.edge_piece(f, inside, p, q) for p, q in zip(v, v[1:] + v[:1])]
                want = self.expected(edges, spec)
                assert self.counted(monkeypatch, lambda: circulation(f, loop, spec)) == want
                splits += want[1] - len(edges)
        assert splits > 0

    @pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-12)])
    def test_arcs(self, spec, monkeypatch):
        rng = random.Random(71)
        for _ in range(8):
            f = random_field(rng)
            a = rng.uniform(0.0, TWO_PI)
            circles = ((Circle(ORIGIN, rng.uniform(1.5, 4.0) * f.R, -2), False),
                       (Circle(ORIGIN, rng.uniform(0.1, 0.9) * f.R, 1), True),
                       (Circle(Point(3.0 * f.R * math.cos(a), 3.0 * f.R * math.sin(a)),
                               f.R, 3), False),
                       (Circle(Point(0.2 * f.R * math.cos(a), 0.2 * f.R * math.sin(a)),
                               0.5 * f.R, -1), True))
            for circle, inside in circles:
                c = circle.center
                arc = reference.arc_piece(f, inside, c.x, c.y, circle.radius, 0.0,
                                          math.copysign(TWO_PI, circle.turns))
                want = self.expected([arc], spec, abs(circle.turns))
                assert self.counted(monkeypatch, lambda: circulation(f, circle, spec)) == want
            rho, start = rng.uniform(1.5, 4.0) * f.R, rng.uniform(-1.0, 1.0)
            sweep = rng.uniform(-5.0, 5.0)
            sign = rng.choice((-1.0, 1.0))
            # arcs off the turn table compute their trig at every node: a
            # sweep short of a whole turn, from azimuth 0 and over four seed
            # panels too, and a whole turn from another azimuth
            for inside, r in ((False, rho), (True, rng.uniform(0.1, 0.9) * f.R)):
                for phi0, phi1 in ((start, start + sweep),
                                   (0.0, sign * rng.uniform(4.8, 6.2)),
                                   (0.5, 0.5 + sign * TWO_PI)):
                    assert abs(phi1 - phi0) <= TWO_PI
                    arc = reference.arc_piece(f, inside, 0.0, 0.0, r, phi0, phi1 - phi0)
                    want = self.expected([arc], spec)
                    assert self.counted(
                        monkeypatch, lambda: arc_integral(f, r, phi0, phi1, spec=spec)) == want

    def test_segments(self, monkeypatch):
        rng = random.Random(73)
        for _ in range(12):
            f = random_field(rng)
            a = rng.uniform(0.0, TWO_PI)
            b = a + rng.uniform(-1.0, 1.0)
            for lo, hi, inside in ((1.5, 4.0, False), (0.1, 0.9, True)):
                r1, r2 = rng.uniform(lo, hi) * f.R, rng.uniform(lo, hi) * f.R
                p = Point(r1 * math.cos(a), r1 * math.sin(a), rng.uniform(-1.0, 1.0))
                q = Point(r2 * math.cos(b), r2 * math.sin(b))
                want = self.expected([reference.edge_piece(f, inside, p, q)], QuadratureSpec())
                assert self.counted(monkeypatch, lambda: segment_integral(f, p, q)) == want

    @pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-12)])
    def test_split_disc(self, spec, monkeypatch):
        # both one-sided rings on rho = R, the outer ring and the area flux:
        # the batched kernel reads the seed pass's trig from its table, the
        # reference computes it at every node
        rng = random.Random(97)
        for _ in range(8):
            f = random_field(rng)
            L = rng.uniform(1.2, 8.0) * f.R
            rings = [reference.arc_piece(f, inside, 0.0, 0.0, rho, 0.0, TWO_PI)
                     for inside, rho in ((True, f.R), (False, f.R), (False, L))]
            (phi_1, n1), (inner, n2), (outer, n3) = [reference.integrate([ring], spec)
                                                     for ring in rings]
            area, n_area = reference.integrate(
                [reference.disc_piece(f.B, 0.0, f.R, 0.0, TWO_PI)], spec)
            phi_2 = outer - inner
            phi_total = phi_1 + phi_2
            want = repr((phi_1, phi_2, phi_total, outer, inner, outer - phi_total))

            def report():
                r = verify_stokes(f, L, spec)
                return r.phi_1, r.phi_2, r.phi_total, r.circ_outer, r.circ_inner, r.discrepancy

            cold = [(want, n1 + n_area + n2 + n3), (repr(area), n_area),
                    (repr(abs(outer - inner)), n2 + n3)]
            calls = (report, lambda: flux_direct(f, L, spec), lambda: chart_audit(f, L, spec))
            assert [self.cold(monkeypatch, call) for call in calls] == cold
            # in call order, flux_direct and chart_audit find every integral
            # verify_stokes has just memoized
            geometry._whole_turn.cache_clear()
            warm = [cold[0], (repr(area), 0), (repr(abs(outer - inner)), 0)]
            assert [self.counted(monkeypatch, call) for call in calls] == warm

    def test_split_disc_panel_count(self, monkeypatch):
        # the split disc's work on a fixed set of fields, pinned: four seed
        # panels per ring and one for the area flux, with no split; cold,
        # then warm in call order
        rng = random.Random(103)
        for _ in range(16):
            f = random_field(rng)
            L = rng.uniform(1.2, 8.0) * f.R
            calls = (lambda: verify_stokes(f, L), lambda: flux_direct(f, L),
                     lambda: chart_audit(f, L))
            assert [self.cold(monkeypatch, call)[1] for call in calls] == [13, 1, 8]
            geometry._whole_turn.cache_clear()
            assert [self.counted(monkeypatch, call)[1] for call in calls] == [13, 0, 0]

    @pytest.mark.parametrize("spec, want", [(QuadratureSpec(), 1161),
                                            (QuadratureSpec(rel_tol=1e-12), 1749)])
    def test_polyline_panel_count(self, spec, want, monkeypatch):
        # the work of a fixed set of polylines, pinned: a kernel change that
        # moves convergence shows as a changed count
        rng = random.Random(89)
        cases = []
        for _ in range(8):
            f = random_field(rng)
            cases += [(f, star_loop(rng, 1, 0.3 * f.R, 0.6 * f.R, z_jitter=0.2)),
                      (f, star_loop(rng, rng.choice((-2, 1, 3)), 1.5 * f.R, 4.0 * f.R)),
                      (f, offset_loop(rng, f.R))]
        cases += [(f, triangle) for f, triangle, _ in near_axis_triangles(rng, 16)]
        panels = 0
        for f, loop in cases:
            panels += self.counted(monkeypatch, lambda: circulation(f, loop, spec))[1]
        assert panels == want


class TestCirculationMemo:
    """circulation keeps its last result, keyed on the f, path and spec
    objects: a repeat integrates nothing and returns the cold value."""

    counted = staticmethod(TestBatchedKernelMatchesReference.counted)

    @classmethod
    def cold(cls, monkeypatch, call):
        """counted, from an empty memo of circulations"""
        geometry._last_circulation = None
        return cls.counted(monkeypatch, call)

    @staticmethod
    def cases(rng, count):
        """(f, path, spec): polylines and circles, inside and outside"""
        fine = QuadratureSpec(rel_tol=1e-12)
        for _ in range(count):
            f = random_field(rng)
            a = rng.uniform(0.0, TWO_PI)
            yield f, star_loop(rng, rng.choice((-2, 1, 3)), 1.5 * f.R, 4.0 * f.R), None
            yield f, star_loop(rng, 1, 0.3 * f.R, 0.6 * f.R, z_jitter=0.2), fine
            yield f, Circle(ORIGIN, rng.uniform(1.5, 4.0) * f.R, -2), fine
            yield f, Circle(Point(3.0 * f.R * math.cos(a), 3.0 * f.R * math.sin(a)), f.R), None

    def test_holonomy_after_circulation_integrates_nothing(self, monkeypatch):
        rng = random.Random(139)
        for f, path, spec in self.cases(rng, 4):
            q = rng.choice((1.0, -1.0 / 3.0, 2.0 / 3.0))
            circ = self.cold(monkeypatch, lambda: circulation(f, path, spec))
            angle = self.cold(monkeypatch, lambda: holonomy(f, path, q, spec).angle)
            assert circ[1] > 0 and angle[1] == circ[1]
            geometry._last_circulation = None
            assert self.counted(monkeypatch, lambda: circulation(f, path, spec)) == circ
            assert self.counted(monkeypatch, lambda: holonomy(f, path, q, spec).angle) == (
                angle[0], 0)
            assert self.counted(monkeypatch, lambda: circulation(f, path, spec)) == (circ[0], 0)
            if spec is None:
                # no spec is the default spec object
                assert self.counted(
                    monkeypatch, lambda: circulation(f, path, geometry._DEFAULT_SPEC))[1] == 0

    def test_equal_objects_that_are_not_the_same_recompute(self, monkeypatch):
        rng = random.Random(149)
        f = random_field(rng)
        path = star_loop(rng, 2, 1.5 * f.R, 4.0 * f.R)
        spec = QuadratureSpec(rel_tol=1e-12)
        want = self.cold(monkeypatch, lambda: circulation(f, path, spec))
        twins = [(SolenoidField(f.B, f.R, f.gamma), path, spec),
                 (f, Polyline(path.vertices), spec),
                 (f, path, QuadratureSpec(spec.rel_tol, spec.abs_tol, spec.max_subdivisions))]
        for twin in twins:
            assert twin == (f, path, spec)
            assert [a is b for a, b in zip(twin, (f, path, spec))].count(False) == 1
            circulation(f, path, spec)
            assert self.counted(monkeypatch, lambda: circulation(*twin)) == want

    def test_call_that_raises_is_not_stored(self, monkeypatch):
        rng = random.Random(151)
        f = random_field(rng)
        loop = star_loop(rng, 2, 1.5 * f.R, 4.0 * f.R)
        no_split = QuadratureSpec(rel_tol=1e-12, max_subdivisions=0)
        crossing = Circle(ORIGIN, f.R)
        for path, spec, error in ((loop, no_split, QuadratureNotConverged),
                                  (crossing, None, PathCrossesSolenoid)):
            for _ in range(2):
                with pytest.raises(error):
                    circulation(f, path, spec)
            assert geometry._last_circulation is None
        want = self.cold(monkeypatch, lambda: circulation(f, loop))
        with pytest.raises(QuadratureNotConverged):
            circulation(f, loop, no_split)
        assert self.counted(monkeypatch, lambda: circulation(f, loop)) == (want[0], 0)

    def test_second_path_replaces_the_first(self, monkeypatch):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.5)
        first, second = Circle(ORIGIN, 1.5), Circle(ORIGIN, 1.75)
        want = [self.cold(monkeypatch, lambda: circulation(f, path))
                for path in (first, second)]
        geometry._last_circulation = None
        circulation(f, first)
        assert self.counted(monkeypatch, lambda: circulation(f, second)) == want[1]
        assert self.counted(monkeypatch, lambda: circulation(f, second)) == (want[1][0], 0)
        assert self.counted(monkeypatch, lambda: circulation(f, first)) == want[0]

    def test_dropped_paths_never_lend_their_value(self, monkeypatch):
        # each polyline is built, integrated and dropped; once the next
        # call has replaced its entry, a later one may take its address
        rng = random.Random(157)
        f = random_field(rng)
        vertex_lists = [star_loop(rng, 1, 1.5 * f.R, 4.0 * f.R).vertices for _ in range(32)]
        want = [self.cold(monkeypatch, lambda: circulation(f, Polyline(v)))
                for v in vertex_lists]
        geometry._last_circulation = None
        for vertices, expected in zip(vertex_lists, want):
            assert self.counted(
                monkeypatch, lambda: circulation(f, Polyline(vertices))) == expected

    def test_threads_read_serial_cold_values(self):
        rng = random.Random(163)
        cases = [(f, path, rng.choice((1.0, -1.0 / 3.0)), spec)
                 for f, path, spec in self.cases(rng, 16)]

        def both(f, path, q, spec):
            return circulation(f, path, spec), holonomy(f, path, q, spec).angle

        want = []
        for case in cases:
            geometry._last_circulation = None
            want.append(both(*case))
        geometry._last_circulation = None

        def run(offset):
            # each thread starts at another case, so they replace one
            # another's entry
            order = [(k + 16 * offset) % len(cases) for k in range(len(cases))]
            return {k: both(*cases[k]) for k in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[k] for k in range(len(cases))] == want


class TestTurnTrigTable:
    """The seed pass of every whole turn from azimuth 0 reads cos and sin
    from one table built at import; nothing else does."""

    def test_table_is_the_integrands_own_expression(self):
        nodes = geometry._TURN_NODES
        assert list(nodes) == [t for k in range(4) for t in _nodes(k / 4, (k + 1) / 4)]
        for sweep, pairs in zip((-TWO_PI, TWO_PI), geometry._TURN_TRIG, strict=True):
            assert pairs == tuple((math.cos(0.0 + sweep * t), math.sin(0.0 + sweep * t))
                                  for t in nodes)

    def test_table_is_fixed_and_does_not_grow(self):
        def tables():
            return geometry._TURN_BOUNDS, geometry._TURN_NODES, geometry._TURN_TRIG

        before = tables()
        snapshot = repr(before)
        rng = random.Random(107)
        for _ in range(40):
            f = random_field(rng)
            verify_stokes(f, rng.uniform(1.2, 8.0) * f.R)
            chart_audit(f, rng.uniform(1.2, 8.0) * f.R)
            circulation(f, Circle(ORIGIN, rng.uniform(1.5, 4.0) * f.R, rng.choice((-3, 1))))
            circulation(f, Circle(Point(3.0 * f.R, 0.0), f.R, 2))
            arc_integral(f, rng.uniform(0.1, 0.9) * f.R, 0.0, TWO_PI)
            arc_integral(f, rng.uniform(1.5, 4.0) * f.R, 0.5, 4.0)
        assert all(now is then for now, then in zip(tables(), before, strict=True))
        assert repr(before) == snapshot
        assert [len(pairs) for pairs in geometry._TURN_TRIG] == [60, 60]

    def test_only_whole_turns_from_azimuth_0_skip_the_seed_trig(self, monkeypatch):
        # cos runs once per node the table does not cover: on every split
        # of a table arc, and on every panel of any other arc
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        fine = QuadratureSpec(rel_tol=1e-12)
        cos_calls = [0]
        panels = [0]
        cos, gk15 = geometry.cos, geometry._gk15

        def counting_cos(x):
            cos_calls[0] += 1
            return cos(x)

        def counting_gk15(*args):
            panels[0] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "cos", counting_cos)
        monkeypatch.setattr(geometry, "_gk15", counting_gk15)
        # (call, panels whose nodes need no cos: table seeds and the area flux)
        cases = ((lambda: verify_stokes(f, 3.0), 13),
                 (lambda: circulation(f, Circle(Point(3.0, 0.0), 1.0, -2), fine), 4),
                 (lambda: arc_integral(f, 2.0, 0.0, -TWO_PI, spec=fine), 4),
                 (lambda: arc_integral(f, 2.0, 0.5, 0.5 + TWO_PI, spec=fine), 0),
                 (lambda: arc_integral(f, 2.0, 0.0, 6.0, spec=fine), 0))
        counts = []
        for call, no_cos in cases:
            cos_calls[0] = panels[0] = 0
            call()
            assert cos_calls[0] == 15 * (panels[0] - no_cos)
            counts.append(cos_calls[0])
        # the split disc's rings do not split; the off-centre circle does,
        # and its splits compute their trig
        assert counts[0] == 0 and counts[1] > 0


class TestNearAxisAccuracy:
    """Exterior triangles with one edge passing a thin solenoid close to
    the axis meet the tolerance they ask for."""

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
    def test_meets_the_tolerance(self, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=20000)
        for f, triangle, w in near_axis_triangles(random.Random(83), 300):
            assert winding_number(triangle) == w
            exact = TWO_PI * f.gamma * w
            value = circulation(f, triangle, spec)
            assert abs(value - exact) <= max(spec.abs_tol, spec.rel_tol * abs(exact))

    @pytest.mark.xfail(strict=True, reason=(
        "roundoff floor: |K15 - G7| cannot see the rounding of node positions on a "
        "long edge past a thin solenoid (ROADMAP: name the roundoff floor)"))
    def test_long_edge_past_a_thin_solenoid_at_1e_12(self):
        f = SolenoidField(B=1.0, R=6.561987742220456e-05, gamma=2.1432260455926984)
        triangle = Polyline((Point(35.81825211904012, -16.602645567636625),
                             Point(-46.69059994084504, 21.64241424295477),
                             Point(-0.5341318225300435, -21.428874957107304)))
        spec = QuadratureSpec(rel_tol=1e-12)
        exact = TWO_PI * f.gamma * winding_number(triangle)
        assert abs(circulation(f, triangle, spec) - exact) <= spec.rel_tol * abs(exact)


class TestTracerContract:
    """What perfbench/tracing.py counts work from, outside the package:
    it wraps geometry._integrate_pieces(pieces, spec) and geometry._gk15
    by name, takes each piece's seed count from piece[3], and counts
    every two panels past the seeds as one split."""

    def test_panels_are_seeds_plus_two_per_split(self, monkeypatch):
        tally = {"seeds": 0, "panels": 0, "passes": 0, "pieces": 0}
        integrate, gk15 = geometry._integrate_pieces, geometry._gk15

        def counted(fn):
            def integrand(*args):
                tally["passes"] += 1
                return fn(*args)
            return integrand

        def tracing(pieces, spec):
            pieces = list(pieces)
            tally["pieces"] += len(pieces)
            tally["seeds"] += sum(piece[3] for piece in pieces)
            return integrate([(counted(piece[0]), *piece[1:]) for piece in pieces], spec)

        def panel(*args):
            tally["panels"] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_integrate_pieces", tracing)
        monkeypatch.setattr(geometry, "_gk15", panel)
        rng = random.Random(79)
        fine = QuadratureSpec(rel_tol=1e-12)
        for _ in range(4):
            f = random_field(rng)
            circulation(f, star_loop(rng, 2, 1.5 * f.R, 4.0 * f.R), fine)
            circulation(f, Circle(Point(3.0 * f.R, 0.0), f.R, 2), fine)
            segment_integral(f, Point(2.0 * f.R, 0.0), Point(0.0, 3.0 * f.R), fine)
            arc_integral(f, 0.5 * f.R, 0.0, 1e3, spec=fine)
            flux_direct(f, 3.0 * f.R)
        # every pass is one integrand call: the seed pass of each piece, then
        # one per split, which evaluates both halves of one panel
        splits = tally["passes"] - tally["pieces"]
        assert splits > 0
        assert tally["panels"] == tally["seeds"] + 2 * splits
