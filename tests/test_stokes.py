import json
import math
import random

import pytest

from _helpers import random_field
from abflux import geometry
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

    @pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-12)])
    def test_is_the_annulus_flux_magnitude(self, spec):
        # the two-sector assembly is zero by construction, so the audit is
        # exactly |phi_2| from the two-boundary route
        rng = random.Random(89)
        for _ in range(12):
            f = random_field(rng)
            L = f.R * rng.uniform(1.2, 8.0)
            assert chart_audit(f, L, spec) == abs(verify_stokes(f, L, spec).phi_2)


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


class TestSplitDiscPieces:
    """The split disc is integrated from pieces whose side is known, with
    its inputs checked once."""

    F = SolenoidField(B=2.0, R=1.0, gamma=1.5)

    def test_builds_no_field(self, monkeypatch):
        built = []
        monkeypatch.setattr(SolenoidField, "__init__",
                            lambda self, *args, **kwargs: built.append(self))
        verify_stokes(self.F, 2.0)
        flux_direct(self.F, 2.0)
        chart_audit(self.F, 2.0)
        assert built == []

    def test_panel_counts(self, monkeypatch):
        # seed panels only: three one-turn circles of 4 and one disc in
        # verify_stokes, two exterior circles in chart_audit, the interior
        # disc in flux_direct
        panels = [0]
        gk15 = geometry._gk15

        def counting(*args):
            panels[0] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_gk15", counting)
        counts = []
        for call in (verify_stokes, chart_audit, flux_direct):
            panels[0] = 0
            call(self.F, 2.0)
            counts.append(panels[0])
        assert counts == [13, 8, 1]

    def test_flux_direct_exactly_independent_of_outer_radius(self):
        # beyond rho = R the disc adds only the exterior B_z = 0
        rng = random.Random(97)
        for _ in range(8):
            f = random_field(rng)
            values = {flux_direct(f, f.R * s) for s in (1.0 + 1e-6, 1.5, 4.0, 1e6)}
            assert len(values) == 1

    def test_outer_radius_just_clear_of_the_band(self):
        # inside the path clearance margin of 1e-6*R, outside 10 bands
        L = self.F.R * (1.0 + 5e-7)
        report = verify_stokes(self.F, L)
        assert abs(report.discrepancy - TWO_PI * self.F.kappa) <= LIMIT_TOL * scaled(self.F)
        assert chart_audit(self.F, L) <= 1e-8
        assert flux_direct(self.F, L) == pytest.approx(TWO_PI, rel=LIMIT_TOL)

    @pytest.mark.parametrize("R, L, word", [(5e-324, 1e-300, "underflow"),
                                            (1e308, 1.5e308, "overflow")])
    def test_extreme_radius_names_the_inputs(self, R, L, word):
        f = SolenoidField(B=1.0, R=R, gamma=0.0)
        for call in (verify_stokes, chart_audit):
            with pytest.raises(ValueError, match=word):
                call(f, L)

    def test_subnormal_radius_square_named(self, monkeypatch):
        # R*R = 1e-323 is subnormal: there the exterior ring at rho = R
        # would read circ_inner 8.9% below 2*pi*gamma, so the split disc
        # refuses it by the underflow rule every exterior path keeps
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the underflow check")

        monkeypatch.setattr(geometry, "_gk15", no_quadrature)
        f = SolenoidField(B=0.0, R=3e-162, gamma=1e-20)
        for call in (verify_stokes, chart_audit):
            with pytest.raises(ValueError, match=r"rho\*rho underflows at rho = 3e-162"):
                call(f, 6e-162)

    def test_outer_radius_whose_square_overflows(self, monkeypatch):
        # L*L overflows, where both exterior rings would read 0: named
        # before any quadrature
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the overflow check")

        monkeypatch.setattr(geometry, "_gk15", no_quadrature)
        f = SolenoidField(B=1e-300, R=1e155, gamma=1.0)
        for call in (verify_stokes, chart_audit):
            with pytest.raises(ValueError, match="overflow"):
                call(f, 2e155)

    def test_extreme_radius_flux(self):
        # the disc flux needs no rho*rho below the solenoid radius: at a
        # subnormal R it underflows to within abs_tol of its true value
        assert abs(flux_direct(SolenoidField(B=1.0, R=5e-324, gamma=0.0), 1e-300)) <= 1e-12
        with pytest.raises(ValueError, match="overflow"):
            flux_direct(SolenoidField(B=1.0, R=1e308, gamma=0.0), 1.5e308)
