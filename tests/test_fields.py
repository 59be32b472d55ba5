import math
import random

import pytest

from abflux.errors import (
    AxisSingularity,
    FieldUndefinedOnSolenoid,
    InvalidRadius,
    StencilCrossesSolenoid,
)
from abflux.fields import (
    Point,
    SolenoidField,
    Vec3,
    ab_standard,
    curl_fd,
    eval_A,
    eval_B,
    gauge_shift,
)


def vec_max_err(a: Vec3, b: Vec3) -> float:
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))


class TestPoint:
    def test_cylindrical_views(self):
        p = Point(1.0, 1.0, 2.0)
        assert p.rho == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert p.phi == pytest.approx(math.pi / 4.0, rel=1e-15)
        assert p.z == 2.0

    def test_phi_covers_all_quadrants(self):
        assert Point(-1.0, 0.0).phi == pytest.approx(math.pi)
        assert Point(0.0, -1.0).phi == pytest.approx(1.5 * math.pi)
        assert Point(1.0, -1e-12).phi == pytest.approx(2.0 * math.pi, abs=1e-11)

    def test_phi_undefined_on_axis(self):
        with pytest.raises(AxisSingularity):
            Point(0.0, 0.0, 5.0).phi

    def test_from_cylindrical_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            rho = rng.uniform(0.1, 10.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p = Point.from_cylindrical(rho, phi, 1.0)
            assert p.rho == pytest.approx(rho, rel=1e-14)
            assert p.phi == pytest.approx(phi, abs=1e-12) or p.phi == pytest.approx(
                phi - 2.0 * math.pi, abs=1e-12
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec3(0.0, math.inf, 0.0)


class TestSolenoidField:
    def test_kappa_identity(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.5)
        assert f.kappa == 0.5
        assert 0.5 * f.B * f.R * f.R + f.kappa == f.gamma

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadius):
            SolenoidField(B=1.0, R=0.0, gamma=0.0)
        with pytest.raises(InvalidRadius):
            SolenoidField(B=1.0, R=-2.0, gamma=0.0)

    def test_dict_round_trip(self):
        f = SolenoidField(B=2.0, R=1.5, gamma=0.25)
        assert SolenoidField.from_dict(f.to_dict()) == f
        assert SolenoidField.from_dict({"B": 2, "R": 1, "gamma": 0}) == SolenoidField(2.0, 1.0, 0.0)

    @pytest.mark.parametrize("key, value", [
        ("B", True), ("R", "2"), ("gamma", None), ("B", [1.0]), ("gamma", 10**400),
    ])
    def test_from_dict_reads_json_numbers_only(self, key, value):
        data = {"B": 2.0, "R": 1.5, "gamma": 0.25, key: value}
        with pytest.raises(ValueError, match=f"field {key}"):
            SolenoidField.from_dict(data)


class TestEvalB:
    def test_interior(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert tuple(eval_B(f, Point(0.5, 0.0, 0.0))) == (0.0, 0.0, 2.0)

    def test_exterior(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert tuple(eval_B(f, Point(3.0, 0.0, 0.0))) == (0.0, 0.0, 0.0)

    def test_zero_field(self):
        f = SolenoidField(B=0.0, R=1.0, gamma=1.0)
        assert tuple(eval_B(f, Point(0.2, 0.3, -4.0))) == (0.0, 0.0, 0.0)

    def test_undefined_on_surface(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(FieldUndefinedOnSolenoid):
            eval_B(f, Point(1.0, 0.0, 0.0))
        with pytest.raises(FieldUndefinedOnSolenoid):
            eval_B(f, Point(1.0 + 0.5e-9, 0.0, 0.0))


class TestEvalA:
    def test_interior_magnitude(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert tuple(eval_A(f, Point(0.5, 0.0, 0.0))) == (0.0, 0.5, 0.0)

    def test_exterior_magnitude(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        a = eval_A(f, Point(2.0, 0.0, 0.0))
        assert vec_max_err(a, Vec3(0.0, 0.5, 0.0)) < 1e-15

    def test_zero_on_axis(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        assert tuple(eval_A(f, Point(0.0, 0.0, 3.0))) == (0.0, 0.0, 0.0)

    def test_undefined_on_surface(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(FieldUndefinedOnSolenoid):
            eval_A(f, Point(0.0, 1.0, 0.0))

    @pytest.mark.parametrize("f, p", [
        (SolenoidField(B=1.0, R=1e-300, gamma=1.0), Point(2e-160, 0.0)),
        # the potential this rho*rho gives would be finite but imprecise
        (SolenoidField(B=0.0, R=1e-300, gamma=1e-30), Point(2e-160, 0.0)),
    ])
    def test_subnormal_rho_squared_named(self, f, p):
        with pytest.raises(ValueError, match=r"rho\*rho underflows at rho = 2e-160"):
            eval_A(f, p)

    @pytest.mark.parametrize("f, p", [
        (SolenoidField(B=1e308, R=1e10, gamma=1.0), Point(1e9, 0.0)),  # B*x/2 overflows inside
        (SolenoidField(B=1.0, R=0.1, gamma=1e308), Point(0.5, 0.0)),
        (SolenoidField(B=1.0, R=1e-3, gamma=0.5), Point(1e155, 0.0)),  # rho*rho overflows
    ])
    def test_overflow_named(self, f, p):
        with pytest.raises(ValueError, match="overflow"):
            eval_A(f, p)

    def test_exterior_magnitude_times_rho_is_gamma(self):
        rng = random.Random(11)
        for _ in range(100):
            f = SolenoidField(
                B=rng.uniform(-3.0, 3.0),
                R=rng.uniform(0.3, 2.0),
                gamma=rng.uniform(-2.0, 2.0),
            )
            p = Point.from_cylindrical(
                f.R * rng.uniform(1.01, 10.0), rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(-5.0, 5.0),
            )
            assert eval_A(f, p).norm() * p.rho == pytest.approx(abs(f.gamma), rel=1e-13, abs=1e-15)

    def test_azimuthal_direction(self):
        # A is everywhere perpendicular to the radial direction
        f = SolenoidField(B=1.5, R=1.0, gamma=0.7)
        for rho in (0.5, 2.0):
            p = Point.from_cylindrical(rho, 1.1)
            a = eval_A(f, p)
            assert a.x * p.x + a.y * p.y == pytest.approx(0.0, abs=1e-15)
            assert a.z == 0.0


class TestAbStandard:
    def test_values(self):
        assert ab_standard(2.0, 1.0).gamma == 1.0
        assert ab_standard(2.0, 1.0).kappa == 0.0
        assert ab_standard(0.0, 1.0).gamma == 0.0
        assert ab_standard(3.0, 2.0).gamma == 6.0

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadius):
            ab_standard(1.0, 0.0)
        with pytest.raises(InvalidRadius):
            ab_standard(1.0, -1.0)
        with pytest.raises(InvalidRadius):
            ab_standard(1.0, math.nan)
        with pytest.raises(InvalidRadius):
            ab_standard(1.0, math.inf)


class TestGaugeShift:
    def test_example(self):
        f = gauge_shift(ab_standard(2.0, 1.0), 0.5)
        assert f.gamma == 1.5
        assert f.kappa == 0.5

    def test_identity(self):
        f = ab_standard(2.0, 1.0)
        assert gauge_shift(f, 0.0) == f

    def test_additivity(self):
        f = ab_standard(2.0, 1.0)
        assert gauge_shift(gauge_shift(f, 0.3), 0.45) == gauge_shift(f, 0.75)

    def test_field_unchanged(self):
        f = ab_standard(1.3, 0.8)
        g = gauge_shift(f, 2.7)
        for p in (Point(0.2, 0.1), Point(3.0, -1.0, 2.0)):
            assert tuple(eval_B(f, p)) == tuple(eval_B(g, p))

    def test_interior_potential_unchanged(self):
        f = ab_standard(1.3, 0.8)
        g = gauge_shift(f, 2.7)
        p = Point(0.3, -0.2, 1.0)
        assert tuple(eval_A(f, p)) == tuple(eval_A(g, p))
        q = Point(2.0, 0.5, 0.0)
        assert tuple(eval_A(f, q)) != tuple(eval_A(g, q))


class TestCurlFd:
    def test_matches_field_interior(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        c = curl_fd(f, Point(0.5, 0.0, 0.0), 1e-4)
        assert vec_max_err(c, eval_B(f, Point(0.5, 0.0, 0.0))) < 1e-6

    def test_vanishes_exterior(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        c = curl_fd(f, Point(2.0, 0.0, 0.0), 1e-4)
        assert vec_max_err(c, Vec3(0.0, 0.0, 0.0)) < 1e-6

    def test_gauge_shift_leaves_exterior_curl_zero(self):
        f = gauge_shift(ab_standard(2.0, 1.0), 1.7)
        for p in (Point(2.0, 0.0), Point(-1.5, 1.5, 3.0)):
            assert curl_fd(f, p, 1e-4).norm() < 1e-6

    def test_second_order_convergence_exterior(self):
        # The interior potential is linear, so central differences are
        # exact there up to roundoff; the truncation-order check needs the
        # nonlinear exterior branch.
        rng = random.Random(23)
        for _ in range(10):
            R = rng.uniform(0.7, 1.4)
            f = SolenoidField(B=rng.uniform(-2.0, 2.0), R=R,
                              gamma=rng.choice((-1, 1)) * rng.uniform(0.5, 3.0))
            p = Point.from_cylindrical(rng.uniform(1.2, 2.5) * R,
                                       rng.uniform(0.0, 2.0 * math.pi))
            zero = Vec3(0.0, 0.0, 0.0)
            errs = [vec_max_err(curl_fd(f, p, h), zero) for h in (1e-3, 5e-4, 1e-4, 5e-5)]
            assert 2.0 < errs[0] / errs[1] < 8.0
            assert 2.0 < errs[2] / errs[3] < 8.0

    def test_interior_error_is_roundoff_only(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        b = eval_B(f, Point(0.4, 0.2, 0.0))
        for h in (1e-3, 1e-4, 1e-5):
            assert vec_max_err(curl_fd(f, Point(0.4, 0.2, 0.0), h), b) < 1e-9

    def test_stencil_crossing_rejected(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(StencilCrossesSolenoid):
            curl_fd(f, Point(0.99995, 0.0, 0.0), 1e-4)
        with pytest.raises(StencilCrossesSolenoid):
            curl_fd(f, Point(1.0, 0.0, 0.0), 1e-6)

    def test_bad_step_rejected(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            curl_fd(f, Point(0.5, 0.0, 0.0), 0.0)


class TestBoundaryContinuity:
    def test_potential_continuous_iff_kappa_zero(self):
        # azimuthal component at (rho, 0) is A.y: interior limit B*R/2,
        # exterior limit gamma/R, so the jump is -kappa/R
        delta = 1e-7
        for kappa in (0.0, 0.5, -1.2):
            f = gauge_shift(ab_standard(2.0, 1.0), kappa)
            inside = eval_A(f, Point(f.R * (1.0 - delta), 0.0)).y
            outside = eval_A(f, Point(f.R * (1.0 + delta), 0.0)).y
            jump = inside - outside
            assert jump == pytest.approx(-kappa / f.R, abs=1e-5)
            if kappa == 0.0:
                assert abs(jump) < 1e-6
