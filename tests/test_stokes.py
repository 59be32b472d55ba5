import contextlib
import copy
import dataclasses
import io
import json
import math
import pickle
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import DISC_NEAR_MAX, DISC_OVERFLOWS, random_field, run_python
import abflux
from abflux import cli, geometry
from abflux.errors import InvalidRadius, QuadratureNotConverged
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

    def test_outer_radius_just_above_R(self):
        # the rings lie at exactly R and L, so L > R is the whole check
        f = SolenoidField(B=2.0, R=1.0, gamma=0.7)
        for L in (1.0 + 1e-10, 1.0 + 5e-9, math.nextafter(1.0, 2.0)):
            report = verify_stokes(f, L)
            assert report.discrepancy == pytest.approx(TWO_PI * f.kappa, abs=LIMIT_TOL * scaled(f))
            assert abs(report.phi_2) <= 1e-12
            assert chart_audit(f, L) <= 1e-12

    def test_cross_check_failure_raises(self, monkeypatch, capsys):
        disc = geometry._disc

        def disc_off(coef, rho, spec):
            return disc(coef, rho, spec) * (1.0 + 1e-6)

        monkeypatch.setattr(geometry, "_disc", disc_off)
        with pytest.raises(QuadratureNotConverged, match="interior flux cross-check failed"):
            verify_stokes(SolenoidField(B=2.0, R=1.0, gamma=1.0), 3.0)
        code = cli.main(["stokes", "--B", "2", "--R", "1", "--gamma", "1", "--L", "3"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("QuadratureNotConverged: interior flux cross-check failed")

    def test_report_serialization(self):
        report = verify_stokes(ab_standard(2.0, 1.0), 2.0)
        data = json.loads(json.dumps(report.to_dict()))
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


class TestReportContract:
    """StokesReport is built on first use (stokes._report_type), yet it is
    the frozen dataclass it always was."""

    @staticmethod
    def report():
        return verify_stokes(SolenoidField(B=2.0, R=1.0, gamma=0.7), 3.0)

    def test_frozen_dataclass_with_its_fields_in_order(self):
        report = self.report()
        assert dataclasses.is_dataclass(report)
        assert [f.name for f in dataclasses.fields(report)] == [
            "phi_1", "phi_2", "phi_total", "circ_outer", "circ_inner",
            "discrepancy", "field", "L",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.phi_1 = 0.0
        moved = dataclasses.replace(report, discrepancy=1.0)
        assert type(moved) is StokesReport
        assert (moved.discrepancy, moved.phi_1) == (1.0, report.phi_1)

    def test_repr_pickle_and_copy(self):
        report = self.report()
        assert repr(report).startswith("StokesReport(phi_1=")
        assert (StokesReport.__qualname__, StokesReport.__module__) == (
            "StokesReport", "abflux.stokes")
        for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                      copy.deepcopy(report)):
            assert type(clone) is StokesReport
            assert clone == report and hash(clone) == hash(report)

    def test_one_class_from_package_and_module(self):
        assert abflux.StokesReport is abflux.stokes.StokesReport is StokesReport
        assert type(verify_stokes(ab_standard(1.0, 1.0), 2.0)) is StokesReport
        with pytest.raises(AttributeError, match="no_such_name"):
            abflux.stokes.no_such_name

    def test_threads_that_build_the_class_at_once_share_it(self):
        # a fresh interpreter, so that the class is not built yet
        out = run_python("-c", """\
import sys, threading
import abflux.stokes as stokes
from abflux import SolenoidField
sys.setswitchinterval(1e-6)
kinds = []
def run():
    kinds.append(type(stokes.verify_stokes(SolenoidField(2.0, 1.0, 0.7), 3.0)))
threads = [threading.Thread(target=run) for _ in range(16)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(len(kinds), any(t.is_alive() for t in threads), set(kinds) == {stokes.StokesReport})
""")
        assert out == "16 False True\n"

    @settings(max_examples=60, deadline=None)
    @given(B=st.floats(-10.0, 10.0), R=st.floats(0.1, 10.0), kappa=st.floats(-5.0, 5.0),
           stretch=st.floats(1.01, 10.0))
    def test_cli_prints_the_rounded_report(self, B, R, kappa, stretch):
        # the stokes command prints verify_stokes' values without building
        # the report; this keeps the two on one computation
        L = R * stretch
        # "--B=-1e-05": argparse would take a bare "-1e-05" for an option
        argv = ["stokes", f"--B={B!r}", f"--R={R!r}", f"--kappa={kappa!r}", f"--L={L!r}"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        report = verify_stokes(SolenoidField(B, R, 0.5 * B * R * R + kappa), L).to_dict()
        data = {key: cli._round12(v) if isinstance(v, float) else v
                for key, v in report.items()}
        assert out.getvalue() == json.dumps(data, indent=2) + "\n"


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

    def test_integrates_no_interior(self):
        # B enters only the interior ring and the disc, whose integrals
        # overflow here: the audit integrates neither
        f = SolenoidField(B=1e308, R=2.0, gamma=1.0)
        with pytest.raises(ValueError, match="overflow"):
            verify_stokes(f, 3.0)
        assert chart_audit(f, 3.0) <= 1e-8

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
        # seed panels only, each call cold: three one-turn circles of 4 and
        # one disc in verify_stokes, two exterior circles in chart_audit, the
        # interior disc in flux_direct.  In call order after verify_stokes,
        # the other two find all their integrals memoized.
        panels = [0]
        gk15 = geometry._gk15

        def counting(*args):
            panels[0] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_gk15", counting)

        def count(call):
            panels[0] = 0
            call(self.F, 2.0)
            return panels[0]

        calls = (verify_stokes, chart_audit, flux_direct)
        cold = []
        for call in calls:
            geometry._last_split_disc = None
            cold.append(count(call))
        assert cold == [13, 8, 1]
        geometry._last_split_disc = None
        assert [count(call) for call in calls] == [13, 0, 0]

    def test_flux_direct_exactly_independent_of_outer_radius(self):
        # beyond rho = R the disc adds only the exterior B_z = 0
        rng = random.Random(97)
        for _ in range(8):
            f = random_field(rng)
            values = {flux_direct(f, f.R * s) for s in (1.0 + 1e-6, 1.5, 4.0, 1e6)}
            assert len(values) == 1

    def test_outer_radius_just_clear_of_the_band(self):
        # the split disc needs only L > R
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

    def test_interior_integrand_that_overflows_near_the_rim_is_named(self, monkeypatch):
        # the flux pi*B*R**2 overflows: the area flux, integrated first,
        # names B and R as flux_direct does, once the kernel finds it not
        # finite after the seed panel of each pass, at B and at B/8;
        # chart_audit reads no B
        panels = [0]
        gk15 = geometry._gk15

        def counting(*args):
            panels[0] += 1
            return gk15(*args)

        monkeypatch.setattr(geometry, "_gk15", counting)
        for B, R in DISC_OVERFLOWS:
            f = SolenoidField(B=B, R=R, gamma=1.0)
            message = (rf"^integral is not finite \(-?inf\) at B = {re.escape(repr(B))}, "
                       rf"rho = {re.escape(repr(R))}: the inputs overflow$")
            for call in (verify_stokes, flux_direct):
                panels[0] = 0
                with pytest.raises(ValueError, match=message):
                    call(f, 3.0)
                assert panels[0] == 2
            assert math.isfinite(chart_audit(f, 3.0))

    def test_interior_values_above_half_the_float_range_are_returned(self):
        # the interior ring's values or its disc integrand r*(2*pi*B)
        # overflow inside the kernel, though both fluxes are finite: each
        # is integrated at B/8 and scaled by 8
        spec = QuadratureSpec()
        for B, R in DISC_NEAR_MAX:
            f = SolenoidField(B=B, R=R, gamma=1.0)
            report = verify_stokes(f, 3.0)
            exact = Fraction(math.pi) * Fraction(B) * Fraction(R) ** 2
            assert abs(Fraction(report.phi_1) - exact) <= spec.rel_tol * abs(exact)
            assert report.phi_total == report.phi_1 + report.phi_2
            assert report.circ_inner == pytest.approx(TWO_PI, rel=1e-9)

    def test_exterior_rings_that_overflow_are_named(self):
        # 2*pi*gamma overflows on both exterior rings
        f = SolenoidField(B=1.0, R=1.0, gamma=1e308)
        for call in (verify_stokes, chart_audit):
            with pytest.raises(ValueError, match=r"^integral is not finite \(inf\) at "
                                                 r"gamma = 1e\+308: the inputs overflow$"):
                call(f, 3.0)

    def test_extreme_radius_flux(self):
        # the disc flux needs no rho*rho below the solenoid radius: at a
        # subnormal R it underflows to within abs_tol of its true value
        assert abs(flux_direct(SolenoidField(B=1.0, R=5e-324, gamma=0.0), 1e-300)) <= 1e-12
        with pytest.raises(ValueError, match="overflow"):
            flux_direct(SolenoidField(B=1.0, R=1e308, gamma=0.0), 1.5e308)


def split_disc(f: SolenoidField, L: float, spec: QuadratureSpec | None = None) -> str:
    """repr of every value the split disc's three calls return"""
    r = verify_stokes(f, L, spec)
    return repr((r.phi_1, r.phi_2, r.phi_total, r.circ_outer, r.circ_inner, r.discrepancy,
                 flux_direct(f, L, spec), chart_audit(f, L, spec)))


class TestWholeTurnMemo:
    """The split disc keeps its last whole turns by identity: a call about
    the same field, L and spec objects integrates nothing and reads the
    cold values bit for bit, and the memo stores nothing it should not."""

    @staticmethod
    def integrations(monkeypatch, call):
        """(call's value, the number of adaptive integrations it ran)"""
        runs = [0]
        integrate = geometry._integrate_pieces

        def counting(pieces, spec):
            runs[0] += 1
            return integrate(pieces, spec)

        with monkeypatch.context() as m:
            m.setattr(geometry, "_integrate_pieces", counting)
            value = call()
        return value, runs[0]

    @staticmethod
    def cold(call):
        geometry._last_split_disc = None
        return call()

    def test_hit_equals_cold_call(self, monkeypatch):
        # the same objects again: every call reads what it read cold
        rng = random.Random(131)
        cases = []
        for _ in range(12):
            f = random_field(rng)
            cases.append((f, f.R * rng.uniform(1.2, 8.0), None))
        cases += [(SolenoidField(2.0, 1.0, 1.5), 2.0, QuadratureSpec(rel_tol=1e-12)),
                  (SolenoidField(-3, 2, 5), 7, None),
                  (SolenoidField(-0.0, 1.0, -0.0), 3.0, None)]
        for case in cases:
            want = self.cold(lambda: split_disc(*case))
            assert self.integrations(monkeypatch, lambda: split_disc(*case)) == (want, 0)

    def test_equal_objects_integrate_again(self, monkeypatch):
        # each pair is equal but not the same objects: the second call of a
        # pair integrates all four whole turns again, to the first's bits
        rng = random.Random(131)
        pairs = []
        for _ in range(12):
            f = random_field(rng)
            L = f.R * rng.uniform(1.2, 8.0)
            pairs.append(((f, L, None), (SolenoidField(f.B, f.R, f.gamma), L, QuadratureSpec())))
        f = SolenoidField(2.0, 1.0, 1.5)
        pairs += [((f, 2.0, None), (f, float("2.0"), None)),
                  ((f, 2.0, None), (f, 2.0, QuadratureSpec()))]
        for zero in (0.0, -0.0):
            pairs += [((SolenoidField(0.0, 1.0, 0.0), 3.0, None),
                       (SolenoidField(zero, 1.0, -zero), 3.0, None)),
                      ((SolenoidField(2.0, 1.0, 0.0), 3.0, None),
                       (SolenoidField(2.0, 1.0, zero), 3.0, None)),
                      ((SolenoidField(0.0, 1.0, 1.5), 3.0, None),
                       (SolenoidField(zero, 1.0, 1.5), 3.0, None))]
        pairs += [((SolenoidField(2.0, 1.0, 1.0), 3.0, None), (SolenoidField(2, 1, 1), 3, None)),
                  ((SolenoidField(-3, 2, 5), 7, None), (SolenoidField(-3.0, 2.0, 5.0), 7.0, None)),
                  ((SolenoidField(2.0, 1.0, 1.5), 2.0, QuadratureSpec(rel_tol=1e-12)),
                   (SolenoidField(2.0, 1.0, 1.5), 2.0, QuadratureSpec(rel_tol=1e-12))),
                  ((SolenoidField(2.0, 1.0, 1.5), 2.0, QuadratureSpec(1e-9, 1e-12, 2**20)),
                   (SolenoidField(2.0, 1.0, 1.5), 2.0, None))]
        for first, second in pairs:
            want = self.cold(lambda: split_disc(*first))
            assert self.integrations(monkeypatch, lambda: split_disc(*second)) == (want, 4)

    def test_specs_that_differ_never_share(self, monkeypatch):
        f = SolenoidField(B=2.0, R=1.0, gamma=1.5)
        specs = (QuadratureSpec(rel_tol=1e-9), QuadratureSpec(rel_tol=1e-12))
        want = [self.cold(lambda: split_disc(f, 2.0, spec)) for spec in specs]
        geometry._last_split_disc = None
        for spec, value in zip(specs, want):
            assert self.integrations(monkeypatch, lambda: split_disc(f, 2.0, spec)) == (value, 4)

    def test_call_that_raises_is_not_stored(self, monkeypatch):
        # the first or the last of the four whole turns raises
        f = SolenoidField(B=2.0, R=1.0, gamma=1.5)
        want = self.cold(lambda: split_disc(f, 2.0))
        integrate = geometry._integrate_pieces
        for fails in (1, 4):
            geometry._last_split_disc = None
            runs = [0]

            def once(pieces, spec):
                runs[0] += 1
                if runs[0] == fails:
                    raise QuadratureNotConverged("injected")
                return integrate(pieces, spec)

            with monkeypatch.context() as m:
                m.setattr(geometry, "_integrate_pieces", once)
                with pytest.raises(QuadratureNotConverged, match="injected"):
                    verify_stokes(f, 2.0)
            assert geometry._last_split_disc is None
            assert self.integrations(monkeypatch, lambda: split_disc(f, 2.0)) == (want, 4)

    def test_threads_read_serial_cold_values(self):
        rng = random.Random(137)
        cases = []
        for _ in range(64):
            f = random_field(rng)
            cases.append((f, f.R * rng.uniform(1.2, 8.0)))
        want = [self.cold(lambda: split_disc(f, L)) for f, L in cases]
        geometry._last_split_disc = None

        def run(offset):
            # each thread starts at another case, so they read and replace
            # one another's split discs
            order = [(k + 16 * offset) % len(cases) for k in range(len(cases))]
            return {k: split_disc(*cases[k]) for k in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[k] for k in range(len(cases))] == want
