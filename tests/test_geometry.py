import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import offset_loop, random_exterior_loop, random_field, star_loop
from abflux import fields, geometry
from abflux.errors import (
    FieldUndefinedOnSolenoid,
    InvalidRadius,
    PathCrossesSolenoid,
    PathTouchesAxis,
    QuadratureNotConverged,
    WindingUnresolvable,
)
from abflux.fields import Point, SolenoidField, ab_standard, gauge_shift
from abflux.geometry import (
    _WG,
    _WGK,
    _WGL8,
    Circle,
    Polyline,
    QuadratureSpec,
    _gk15,
    _integrate_pieces,
    arc_integral,
    circulation,
    flux_direct,
    load_circle_json,
    load_polyline_csv,
    sector_flux,
    segment_integral,
    winding_number,
)

TWO_PI = 2.0 * math.pi
ORIGIN = Point(0.0, 0.0, 0.0)


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
        assert math.fsum(_WGL8) == pytest.approx(2.0, abs=1e-14)

    def test_kronrod_exact_on_high_degree_polynomial(self):
        value, _ = _gk15(lambda x: x**20, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 21.0, rel=1e-14)

    def test_gauss_embedded_rule_agrees_on_degree_13(self):
        # G7 integrates degree <= 13 exactly, so the error estimate
        # collapses to roundoff there
        _, err = _gk15(lambda x: x**13, 0.0, 1.0)
        assert err < 1e-15

    def test_adaptive_oscillatory_integral(self):
        expected = (1.0 - math.cos(40.0)) / 40.0
        value = _integrate_pieces([(lambda x: math.sin(40.0 * x), 0.0, 1.0, 1)],
                                  QuadratureSpec())
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_subdivision_budget_enforced(self):
        tight = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=0)
        with pytest.raises(QuadratureNotConverged):
            _integrate_pieces([(lambda x: math.sin(40.0 * x), 0.0, 1.0, 1)], tight)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=-1)
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

    def test_inside_clearance_band_rejected(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(PathCrossesSolenoid):
            circulation(f, Circle(ORIGIN, 1.0 - 1e-8, 1))

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

    @pytest.mark.parametrize("center", [ORIGIN, Point(4.0, 1.0, 0.5)])
    def test_turns_cost_one_revolution(self, center, monkeypatch):
        # n turns are integrated once and scaled: same panels, exact n-fold value
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        panels = []
        gk15 = geometry._gk15

        def counting(fn, a, b):
            panels[-1] += 1
            return gk15(fn, a, b)

        monkeypatch.setattr(geometry, "_gk15", counting)
        values = {}
        for turns in (1, 1000, -1, -1000):
            panels.append(0)
            values[turns] = circulation(f, Circle(center, 2.5, turns), QuadratureSpec(rel_tol=1e-12))
        assert len(set(panels)) == 1
        assert values[1000] == 1000 * values[1]
        assert values[-1000] == 1000 * values[-1]

    def test_integrands_build_no_points_or_vectors(self, monkeypatch):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.3)
        loops = (Circle(ORIGIN, 3.0, 2), Circle(ORIGIN, 0.5, 1),
                 Polyline((Point(2, -2), Point(2, 2), Point(-2, 2), Point(-2, -2))))
        start, end = Point(1.5, 0.0), Point(4.0, 1.0)

        def forbidden(self):
            raise AssertionError(f"{type(self).__name__} built during quadrature")

        monkeypatch.setattr(fields.Point, "__post_init__", forbidden)
        monkeypatch.setattr(fields.Vec3, "__post_init__", forbidden)
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

        def counting(fn, a, b):
            panels[-1] += 1
            return gk15(fn, a, b)

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
        def no_quadrature(fn, a, b):
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
        text = "x,y,z\n1,0,0\n0,1,0\n-1,0,0\n"
        assert len(load_polyline_csv(io.StringIO(text)).vertices) == 3

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
