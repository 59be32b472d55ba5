import json
import math
import random

import pytest

from _helpers import random_field
from abflux.errors import InvalidRadius
from abflux.fields import SolenoidField, ab_standard, gauge_shift
from abflux.geometry import QuadratureSpec, flux_direct
from abflux.stokes import StokesReport, chart_audit, verify_stokes

TWO_PI = 2.0 * math.pi

# fixed headroom for the comparisons below; the boundary limits are exact
# up to roundoff, and TestRequestedTolerance bounds them by the spec
LIMIT_TOL = 1e-8


def scaled(f: SolenoidField) -> float:
    return max(abs(math.pi * f.B * f.R * f.R), TWO_PI * abs(f.gamma), 1.0)


class TestVerifyStokes:
    def test_standard_choice(self):
        report = verify_stokes(ab_standard(2.0, 1.0), 2.0)
        assert report.phi_1 == pytest.approx(TWO_PI, rel=LIMIT_TOL)
        assert abs(report.phi_2) < LIMIT_TOL * TWO_PI
        assert report.phi_total == pytest.approx(TWO_PI, rel=LIMIT_TOL)
        assert report.circ_outer == pytest.approx(TWO_PI, rel=LIMIT_TOL)
        assert abs(report.discrepancy) < LIMIT_TOL * TWO_PI

    def test_shifted_choice(self):
        report = verify_stokes(SolenoidField(B=2.0, R=1.0, gamma=1.5), 2.0)
        assert report.phi_total == pytest.approx(TWO_PI, rel=LIMIT_TOL)
        assert report.circ_outer == pytest.approx(3.0 * math.pi, rel=LIMIT_TOL)
        assert report.discrepancy == pytest.approx(math.pi, rel=LIMIT_TOL)

    def test_pure_gauge(self):
        report = verify_stokes(SolenoidField(B=0.0, R=1.0, gamma=1.0), 2.0)
        assert abs(report.phi_total) < 1e-12
        assert report.circ_outer == pytest.approx(TWO_PI, rel=1e-12)
        assert report.discrepancy == pytest.approx(TWO_PI, rel=1e-12)

    def test_phi_total_is_phi1_plus_phi2(self):
        report = verify_stokes(SolenoidField(B=1.3, R=0.7, gamma=-0.4), 1.9)
        assert report.phi_total == report.phi_1 + report.phi_2

    def test_discrepancy_is_two_pi_kappa_randomized(self):
        rng = random.Random(53)
        for _ in range(15):
            f = random_field(rng)
            L = f.R * rng.uniform(1.2, 8.0)
            report = verify_stokes(f, L)
            assert abs(report.discrepancy - TWO_PI * f.kappa) <= LIMIT_TOL * scaled(f)

    def test_discrepancy_zero_iff_flux_matching(self):
        rng = random.Random(59)
        for _ in range(10):
            f0 = ab_standard(rng.uniform(-2, 2) or 1.0, rng.uniform(0.5, 2.0))
            report = verify_stokes(f0, 3.0 * f0.R)
            assert abs(report.discrepancy) <= LIMIT_TOL * scaled(f0)
            f1 = gauge_shift(f0, rng.choice((-1, 1)) * rng.uniform(0.05, 2.0))
            report = verify_stokes(f1, 3.0 * f1.R)
            assert abs(report.discrepancy) > 10.0 * LIMIT_TOL * scaled(f1)

    def test_annulus_flux_vanishes_for_all_outer_radii(self):
        rng = random.Random(61)
        for _ in range(8):
            f = random_field(rng)
            for L in (1.1 * f.R, 2.0 * f.R, 10.0 * f.R):
                report = verify_stokes(f, L)
                assert abs(report.phi_2) <= LIMIT_TOL * scaled(f)

    def test_results_independent_of_outer_radius(self):
        f = SolenoidField(B=1.9, R=1.1, gamma=0.35)
        reports = [verify_stokes(f, L) for L in (1.1 * f.R, 2.0 * f.R, 10.0 * f.R)]
        for r in reports[1:]:
            assert r.phi_total == pytest.approx(reports[0].phi_total, rel=1e-12)
            assert r.circ_outer == pytest.approx(reports[0].circ_outer, rel=1e-12)
            assert r.discrepancy == pytest.approx(reports[0].discrepancy, abs=1e-12 * scaled(f))

    def test_boundary_circles_agree_but_inner_limit_depends_on_kappa(self):
        # the two exterior boundary circulations always agree; the interior
        # boundary agrees with them only for the flux-matching choice
        f0 = ab_standard(2.0, 1.0)
        r0 = verify_stokes(f0, 2.0)
        assert r0.circ_outer == pytest.approx(r0.circ_inner, rel=1e-10)
        assert r0.phi_1 == pytest.approx(r0.circ_inner, rel=LIMIT_TOL)

        f1 = gauge_shift(f0, 0.5)
        r1 = verify_stokes(f1, 2.0)
        assert r1.circ_outer == pytest.approx(r1.circ_inner, rel=1e-10)
        assert r1.circ_inner - r1.phi_1 == pytest.approx(TWO_PI * 0.5, rel=LIMIT_TOL)

    def test_outer_radius_too_small(self):
        f = ab_standard(2.0, 1.0)
        with pytest.raises(InvalidRadius):
            verify_stokes(f, 1.0)
        with pytest.raises(InvalidRadius):
            verify_stokes(f, 0.5)

    def test_report_serialization(self):
        report = verify_stokes(ab_standard(2.0, 1.0), 2.0)
        data = json.loads(report.to_json())
        assert set(data) == {
            "phi_1", "phi_2", "phi_total", "circ_outer", "circ_inner",
            "discrepancy", "config",
        }
        assert data["config"]["field"] == {"B": 2.0, "R": 1.0, "gamma": 1.0}
        assert data["config"]["L"] == 2.0

    def test_report_is_dataclass_of_floats(self):
        report = verify_stokes(ab_standard(2.0, 1.0), 2.0)
        assert isinstance(report, StokesReport)
        for value in (report.phi_1, report.phi_2, report.phi_total,
                      report.circ_outer, report.circ_inner, report.discrepancy):
            assert math.isfinite(value)


class TestChartAudit:
    def test_standard_choice(self):
        assert chart_audit(ab_standard(2.0, 1.0), 2.0) <= 1e-8

    def test_shifted_choice(self):
        assert chart_audit(SolenoidField(B=2.0, R=1.0, gamma=1.5), 2.0) <= 1e-8

    def test_pure_gauge(self):
        assert chart_audit(SolenoidField(B=0.0, R=1.0, gamma=1.0), 2.0) <= 1e-8

    def test_randomized(self):
        rng = random.Random(67)
        for _ in range(6):
            f = random_field(rng)
            assert chart_audit(f, f.R * rng.uniform(1.3, 6.0)) <= 1e-8

    def test_respects_quadrature_spec(self):
        f = ab_standard(2.0, 1.0)
        assert chart_audit(f, 2.0, QuadratureSpec(rel_tol=1e-10)) <= 1e-8

    def test_outer_radius_too_small(self):
        with pytest.raises(InvalidRadius):
            chart_audit(ab_standard(2.0, 1.0), 0.9)


class TestRequestedTolerance:
    """The split disc meets the tolerance its QuadratureSpec asks for."""

    @pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-12)])
    def test_within_spec(self, spec):
        rng = random.Random(71)
        for _ in range(12):
            f = random_field(rng)
            L = f.R * rng.uniform(1.2, 8.0)
            report = verify_stokes(f, L, spec)
            bound = max(spec.abs_tol, spec.rel_tol * scaled(f))
            flux = math.pi * f.B * f.R * f.R
            assert abs(report.phi_1 - flux) <= bound
            assert abs(report.phi_total - flux) <= bound
            assert abs(flux_direct(f, L, spec) - flux) <= bound
            assert abs(report.discrepancy - TWO_PI * f.kappa) <= bound
            assert abs(report.circ_inner - TWO_PI * f.gamma) <= bound
