import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_exterior_loop, random_field
from abflux.fields import Point, SolenoidField, ab_standard, gauge_shift
from abflux.geometry import Circle, Polyline
from abflux.phase import (
    InterferometerGeometry,
    PhaseFactor,
    holonomy,
    interference,
    interference_csv,
    phase_closed_form,
    phases_equivalent,
)

TWO_PI = 2.0 * math.pi
ORIGIN = Point(0.0, 0.0, 0.0)

GEOM = InterferometerGeometry(
    slit_separation=1.0, screen_distance=1.0, half_extent=2.5, samples=101,
)


def max_intensity_gap(rows_a, rows_b) -> float:
    return max(abs(ia - ib) for (_, ia), (_, ib) in zip(rows_a, rows_b))


class TestPhaseFactor:
    def test_reduction(self):
        assert PhaseFactor(TWO_PI + 1.0).angle == pytest.approx(1.0, abs=1e-15)
        assert PhaseFactor(-0.5).angle == pytest.approx(TWO_PI - 0.5, abs=1e-15)
        assert 0.0 <= PhaseFactor(-1e-18).angle < TWO_PI

    def test_wrap_aware_equality(self):
        a = PhaseFactor(1e-12)
        b = PhaseFactor(TWO_PI - 1e-12)
        assert a.distance(b) <= 1e-9
        assert not a.distance(PhaseFactor(0.1)) <= 1e-9

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_angle_always_in_range(self, raw):
        p = PhaseFactor(raw)
        assert 0.0 <= p.angle < TWO_PI

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_distance_symmetric_and_bounded(self, a, b):
        pa, pb = PhaseFactor(a), PhaseFactor(b)
        assert pa.distance(pb) == pb.distance(pa)
        assert 0.0 <= pa.distance(pb) <= math.pi


class TestHolonomy:
    def test_half_turn_phase(self):
        f = SolenoidField(B=0.0, R=1.0, gamma=0.5)
        angle = holonomy(f, Circle(ORIGIN, 2.0, 1), q=1.0).angle
        assert angle == pytest.approx(math.pi, rel=1e-9)

    def test_no_enclosure_no_phase(self):
        f = SolenoidField(B=2.0, R=1.0, gamma=0.7)
        loop = Circle(Point(4.0, 0.0, 0.0), 1.0, 1)
        assert holonomy(f, loop, q=3.7).distance(PhaseFactor(0.0)) <= 1e-9

    def test_integer_q_gamma_is_single_valued(self):
        f = ab_standard(2.0, 1.0)  # gamma = 1
        factor = holonomy(f, Circle(ORIGIN, 3.0, 1), q=1.0)
        assert factor.distance(PhaseFactor(0.0)) <= 1e-8

    def test_agrees_with_closed_form(self):
        rng = random.Random(71)
        for _ in range(15):
            f = random_field(rng)
            w = rng.choice((-2, -1, 1, 2))
            q = rng.uniform(-3.0, 3.0)
            loop = random_exterior_loop(rng, f, w)
            assert holonomy(f, loop, q).distance(phase_closed_form(q, f.gamma, w)) <= 1e-7


class TestClosedForm:
    def test_standard_choice_full_turn(self):
        assert phase_closed_form(1.0, 1.0, 1).angle == 0.0

    def test_quarter_turn(self):
        assert phase_closed_form(1.0, 1.25, 1).angle == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_neutral_particle(self):
        for gamma in (0.0, 0.37, -5.0):
            assert phase_closed_form(0.0, gamma, 3).angle == 0.0

    def test_sign_symmetry(self):
        # negating the charge negates the angle on the circle
        a = phase_closed_form(1.0, 0.3, 1)
        b = phase_closed_form(-1.0, 0.3, 1)
        assert a.angle == pytest.approx(TWO_PI - b.angle, rel=1e-12)

    def test_shift_additivity(self):
        f = SolenoidField(B=1.0, R=1.0, gamma=0.2)
        q = 1.0
        one = phase_closed_form(q, gauge_shift(f, 0.3).gamma, 1)
        two = phase_closed_form(q, gauge_shift(gauge_shift(f, 0.1), 0.2).gamma, 1)
        assert one.distance(two) <= 1e-12
        combined = PhaseFactor(phase_closed_form(q, f.gamma, 1).angle + TWO_PI * q * 0.3)
        assert one.distance(combined) <= 1e-12

    @given(q=st.floats(-1e100, 1e100), gamma=st.floats(-1e100, 1e100),
           w=st.integers(-10**18, 10**18))
    def test_turn_count_is_reduced_exactly(self, q, gamma, w):
        # the float q*gamma*w loses its fraction once w is large:
        # phase_closed_form(1, 0.3, 2**52 + 1) was 0, not 2*pi*0.05
        turns = Fraction(q) * Fraction(gamma) * w % 1
        assert phase_closed_form(q, gamma, w) == PhaseFactor(math.tau * float(turns))

    def test_winding_beyond_float_range(self):
        with pytest.raises(ValueError, match="w is beyond floating-point range"):
            phase_closed_form(1.0, 0.5, 10**400)

    @pytest.mark.parametrize("w", [1.5, 1.0, True, "1"])
    def test_winding_must_be_an_int(self, w):
        with pytest.raises(ValueError, match=f"^w must be an integer, got {w!r}$"):
            phase_closed_form(1.0, 0.5, w)

    @pytest.mark.parametrize("q, gamma, match", [
        (10**200, 10**200, "turn count"),   # each in range, the int product is not
        (10**400, 0.5, "q"),
        (1.0, -(10**400), "gamma"),
    ], ids=["product", "q", "gamma"])
    def test_int_charge_or_gamma_beyond_float_range(self, q, gamma, match):
        with pytest.raises(ValueError, match=f"^{match} is beyond floating-point range$"):
            phase_closed_form(q, gamma, 1)


class TestEquivalence:
    def test_half_gap_even_charge(self):
        assert phases_equivalent(2.0, 1.0, 0.5)

    def test_third_gap_unit_charge(self):
        assert not phases_equivalent(1.0, 1.0, 1.0 + 1.0 / 3.0)

    def test_identity(self):
        for q in (0.0, 1.0, -2.5):
            assert phases_equivalent(q, 0.77, 0.77)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            phases_equivalent(1.0, 0.0, 0.0, tol=0.0)

    @pytest.mark.parametrize("q, gamma1, gamma2", [
        (math.inf, 1.0, 0.5),          # q*dgamma = inf
        (1e308, 1e308, -1e308),        # dgamma overflows
        (math.nan, 1.0, 0.5),
        (0.0, math.inf, 1.0),          # 0*inf = nan
    ])
    def test_nonfinite_q_dgamma_named(self, q, gamma1, gamma2):
        with pytest.raises(ValueError, match=r"q\*dgamma"):
            phases_equivalent(q, gamma1, gamma2)

    @pytest.mark.parametrize("q, gamma1, gamma2", [
        (10**200, 10**200, 0),      # the int product overflows
        (10**400, 1.0, 0.5),        # q overflows as it meets a float
        (1.0, 10**400, 0.5),        # so does dgamma
    ], ids=["product", "q", "dgamma"])
    def test_int_beyond_float_range_named(self, q, gamma1, gamma2):
        with pytest.raises(ValueError, match=r"^q\*dgamma is beyond floating-point range$"):
            phases_equivalent(q, gamma1, gamma2)


class TestPeriodicity:
    # the loop phase by quadrature repeats when gamma moves by 1/q
    def period_gap(self, q, gamma, loop):
        f = SolenoidField(B=1.0, R=1.0, gamma=gamma)
        return holonomy(f, loop, q).distance(holonomy(gauge_shift(f, 1.0 / q), loop, q))

    def test_unit_charge(self):
        assert self.period_gap(1.0, 0.37, Circle(ORIGIN, 2.0, -1)) <= 1e-9

    def test_charge_three(self):
        square = Polyline((Point(2, -2), Point(2, 2), Point(-2, 2), Point(-2, -2)))
        assert self.period_gap(3.0, 0.1, square) <= 1e-9

    def test_half_shift_is_not_a_period(self):
        a = phase_closed_form(1.0, 0.37, 1)
        b = phase_closed_form(1.0, 0.87, 1)
        assert a.distance(b) == pytest.approx(math.pi, rel=1e-12)


class TestInterference:
    def test_half_fringe_shift_darkens_center(self):
        f = SolenoidField(B=0.0, R=1.0, gamma=0.5)
        rows = interference(f, 1.0, GEOM)
        center = rows[(GEOM.samples - 1) // 2]
        assert center[0] == pytest.approx(0.0, abs=1e-15)
        assert center[1] == pytest.approx(0.0, abs=1e-12)

    def test_integer_q_gamma_identical_to_zero(self):
        base = interference(SolenoidField(B=0.0, R=1.0, gamma=0.0), 1.0, GEOM)
        for q, gamma in ((1.0, 1.0), (2.0, 1.5), (4.0, 0.75)):
            rows = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma), q, GEOM)
            assert max_intensity_gap(rows, base) <= 1e-12

    def test_pure_gauge_shifts_fringes(self):
        # B = 0 outside and inside, yet the pattern moves: the loop phase
        # is the observable, not the local field
        base = interference(SolenoidField(B=0.0, R=1.0, gamma=0.0), 1.0, GEOM)
        shifted = interference(SolenoidField(B=0.0, R=1.0, gamma=0.25), 1.0, GEOM)
        assert max_intensity_gap(shifted, base) > 0.5

    def test_rigid_shift_by_fraction_of_fringe(self):
        # fringe period in x is 2*pi/k_eff = 1 for this geometry; a quarter
        # fringe shift moves the pattern by exactly 0.25
        f = SolenoidField(B=0.0, R=1.0, gamma=0.25)
        rows = interference(f, 1.0, GEOM)
        base = interference(SolenoidField(B=0.0, R=1.0, gamma=0.0), 1.0, GEOM)
        # compare I_shifted(x) with I_base(x - 0.25) analytically
        for (x, intensity) in rows[::10]:
            expected = 1.0 + math.cos(TWO_PI * (x - 0.25))
            assert intensity == pytest.approx(expected, abs=1e-12)
        assert base[0][1] == pytest.approx(1.0 + math.cos(TWO_PI * -2.5), abs=1e-12)

    def test_equivalent_gammas_give_identical_patterns(self):
        rng = random.Random(73)
        for _ in range(20):
            q = rng.randint(1, 6)
            gamma1 = rng.uniform(-2.0, 2.0)
            n = rng.randint(-3, 3)
            gamma2 = gamma1 + n / q
            rows1 = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma1), q, GEOM)
            rows2 = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma2), q, GEOM)
            assert phases_equivalent(q, gamma1, gamma2)
            assert max_intensity_gap(rows1, rows2) <= 1e-9

    def test_inequivalent_gammas_give_distinct_patterns(self):
        rng = random.Random(83)
        for _ in range(20):
            q = rng.randint(1, 6)
            gamma1 = rng.uniform(-2.0, 2.0)
            # offset by a non-integer number of periods 1/q
            gamma2 = gamma1 + (rng.randint(0, 2) + 0.5) / q
            rows1 = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma1), q, GEOM)
            rows2 = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma2), q, GEOM)
            assert not phases_equivalent(q, gamma1, gamma2)
            assert max_intensity_gap(rows1, rows2) > 1e-9

    def test_sample_count_and_extent(self):
        rows = interference(SolenoidField(B=0.0, R=1.0, gamma=0.0), 1.0, GEOM)
        assert len(rows) == GEOM.samples
        assert rows[0][0] == -GEOM.half_extent
        assert rows[-1][0] == pytest.approx(GEOM.half_extent, abs=1e-12)

    def test_csv_rendering(self):
        rows = [(0.0, 2.0), (0.5, 0.25)]
        assert interference_csv(rows) == "x,intensity\n0,2\n0.5,0.25\n"

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            InterferometerGeometry(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            InterferometerGeometry(1.0, 1.0, 1.0, samples=1)

    def test_sample_count_bounded(self):
        for samples in (10**6 + 1, 2.5, 2.0, True, "201"):
            with pytest.raises(ValueError):
                InterferometerGeometry(1.0, 1.0, 1.0, samples=samples)
        InterferometerGeometry(1.0, 1.0, 1.0, samples=10**6)

    def test_nonfinite_charge_rejected(self):
        for q, gamma in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 0.0),
                         (1e300, 1e300)):
            with pytest.raises(ValueError, match="must be finite"):
                interference(SolenoidField(B=0.0, R=1.0, gamma=gamma), q, GEOM)
        with pytest.raises(ValueError, match=r"^q is beyond floating-point range$"):
            interference(SolenoidField(B=0.0, R=1.0, gamma=0.5), 10**400, GEOM)
        with pytest.raises(ValueError, match=r"^q must be a number, got True$"):
            interference(SolenoidField(B=0.0, R=1.0, gamma=0.5), True, GEOM)

    @staticmethod
    def unchecked_rows(f, q, geom):
        """interference's rows as it computed them before it checked the
        geometry: math.cos refuses an overflowed phase, unnamed."""
        dphi = phase_closed_form(q, f.gamma, 1).angle
        k_eff = TWO_PI * geom.slit_separation / geom.screen_distance
        step = 2.0 * geom.half_extent / (geom.samples - 1)
        rows = []
        for i in range(geom.samples):
            x = -geom.half_extent + i * step
            rows.append((x, 1.0 + math.cos(k_eff * x - dphi)))
        return rows

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-300.0, 308.0), st.floats(-300.0, 308.0), st.floats(-300.0, 308.25),
           st.integers(2, 7))
    def test_overflow_refused_and_other_rows_unchanged(self, d, D, extent, samples):
        geom = InterferometerGeometry(10.0**d, 10.0**D, 10.0**extent, samples)
        f = SolenoidField(B=0.0, R=1.0, gamma=0.3)
        try:
            expected = self.unchecked_rows(f, 1.0, geom)
        except ValueError:
            expected = None
        if expected is None or not all(math.isfinite(x) for x, _ in expected):
            with pytest.raises(ValueError, match=r"^screen position x or fringe phase .* at "
                                                 r"slit_separation = .*, samples = \d+$"):
                interference(f, 1.0, geom)
        else:
            assert interference(f, 1.0, geom) == expected

    def test_overflow_names_the_geometry(self):
        f = SolenoidField(B=0.0, R=1.0, gamma=0.5)
        for geom in (InterferometerGeometry(1.0, 1.0, 1e308, 3),
                     InterferometerGeometry(1e300, 1e-10, 2.5, 201),
                     InterferometerGeometry(1e-300, 1e300, 1e308, 3)):
            with pytest.raises(ValueError, match=re.escape(
                    f"slit_separation = {geom.slit_separation!r}, screen_distance = "
                    f"{geom.screen_distance!r}, half_extent = {geom.half_extent!r}, "
                    f"samples = {geom.samples!r}")):
                interference(f, 1.0, geom)
