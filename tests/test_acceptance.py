"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
(without -s they still run; pytest shows output only on failure).

Every expected value here is analytic: circulations follow 2*pi*gamma*w,
fluxes pi*B*min(L,R)**2, discrepancies 2*pi*kappa, phases 2*pi*q*gamma*w,
and the charge-lattice results are exact integer arithmetic.

Comparisons against quantities that legitimately vanish (kappa = 0 sweeps,
B = 0 sweeps, winding 0 loops) scale the tolerance by the configuration's
natural magnitude, max(|expected|, pi*|B|*R**2, 2*pi*|gamma|); a purely
relative comparison against zero would be meaningless, and the flux-scale
scaling is the same one the annulus-flux criterion states explicitly.
"""

import math
import random
from fractions import Fraction

from _helpers import cylindrical, exterior_circle, random_exterior_loop, random_field, star_loop
from abflux.fields import Point, SolenoidField, Vec3, ab_standard, curl_fd, eval_B, gauge_shift
from abflux.geometry import Circle, circulation, flux_direct
from abflux.phase import InterferometerGeometry, holonomy, interference, phases_equivalent
from abflux.quantize import (
    ChargeSpectrum,
    charge_allowed,
    infer_minimal_N,
    spectrum,
)
from abflux.stokes import chart_audit, verify_stokes

TWO_PI = 2.0 * math.pi
ORIGIN = Point(0.0, 0.0, 0.0)

GEOM = InterferometerGeometry(
    slit_separation=1.0, screen_distance=1.0, half_extent=2.5, samples=101,
)


def config_scale(f: SolenoidField, expected: float = 0.0) -> float:
    return max(abs(expected), math.pi * abs(f.B) * f.R * f.R, TWO_PI * abs(f.gamma), 1.0)


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n:2d}: {text}")


def test_criterion_01_circulation_law():
    rng = random.Random(101)
    windings = [w for w in range(-3, 4)] * 8
    worst = 0.0
    for i in range(50):
        f = random_field(rng)
        w = windings[i]
        loop = random_exterior_loop(rng, f, w)
        expected = TWO_PI * f.gamma * w
        tol = 1e-8 * max(abs(expected), TWO_PI * abs(f.gamma))
        err = abs(circulation(f, loop) - expected)
        worst = max(worst, err / tol * 1e-8)
        assert err <= tol, (f, w, err, tol)
    report(1, f"50 exterior loops match 2*pi*gamma*w, worst rel err {worst:.2e} <= 1e-8")


def test_criterion_02_flux_value():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(20):
        f = random_field(rng)
        expected = math.pi * f.B * f.R * f.R
        L = f.R * rng.uniform(1.2, 8.0)
        flux = flux_direct(f, L)
        assert abs(flux - expected) <= 1e-8 * abs(expected)
        phi_total = verify_stokes(f, L).phi_total
        assert abs(phi_total - expected) <= 1e-8 * abs(expected)
        worst = max(worst, abs(flux - expected) / abs(expected),
                    abs(phi_total - expected) / abs(expected))
    f = random_field(rng)
    samples = [flux_direct(f, L) for L in (1.1 * f.R, 2.0 * f.R, 10.0 * f.R)]
    for value in samples[1:]:
        assert abs(value - samples[0]) <= 1e-8 * abs(samples[0])
    report(2, f"flux and phi_total match pi*B*R**2 and are L-independent, "
              f"worst rel err {worst:.2e} <= 1e-8")


def test_criterion_03_annulus_null_flux():
    rng = random.Random(303)
    worst = 0.0
    configs = [random_field(rng) for _ in range(12)]
    configs += [SolenoidField(B=0.0, R=rng.uniform(0.5, 2.0), gamma=rng.uniform(-2.0, 2.0))
                for _ in range(4)]
    configs += [gauge_shift(ab_standard(rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)),
                            rng.uniform(-2.0, 2.0)) for _ in range(4)]
    for f in configs:
        L = f.R * rng.uniform(1.2, 6.0)
        phi_2 = verify_stokes(f, L).phi_2
        scale = max(math.pi * abs(f.B) * f.R * f.R, 1.0)
        worst = max(worst, abs(phi_2) / scale)
        assert abs(phi_2) <= 1e-8 * scale
    report(3, f"annulus flux vanishes (incl. kappa != 0), worst scaled |phi_2| "
              f"{worst:.2e} <= 1e-8")


def test_criterion_04_headline_discrepancy():
    rng = random.Random(404)
    worst = 0.0
    for i in range(100):
        if i % 5 == 3:
            f = ab_standard(rng.choice((-1, 1)) * rng.uniform(0.3, 3.0),
                            rng.uniform(0.4, 2.2))  # kappa = 0 exactly
        elif i % 5 == 4:
            f = SolenoidField(B=0.0, R=rng.uniform(0.4, 2.2),
                              gamma=rng.uniform(-2.0, 2.0))  # pure gauge
        else:
            f = gauge_shift(ab_standard(rng.choice((-1, 1)) * rng.uniform(0.3, 3.0),
                                        rng.uniform(0.4, 2.2)),
                            rng.uniform(-2.0, 2.0))
        L = f.R * rng.uniform(1.2, 8.0)
        expected = TWO_PI * f.kappa
        err = abs(verify_stokes(f, L).discrepancy - expected)
        scale = config_scale(f, expected)
        worst = max(worst, err / scale)
        assert err <= 1e-8 * scale, (f, err, scale)
    report(4, f"discrepancy = 2*pi*kappa over 100 configs (incl. kappa=0, B=0), "
              f"worst scaled err {worst:.2e} <= 1e-8")


def test_criterion_05_chart_audit():
    rng = random.Random(505)
    worst = 0.0
    for _ in range(10):
        f = random_field(rng)
        value = chart_audit(f, f.R * rng.uniform(1.3, 6.0))
        worst = max(worst, value)
        assert value <= 1e-8
    report(5, f"two-sector recomputation agrees with phi_2, worst gap {worst:.2e} <= 1e-8")


def test_criterion_06_curl_check():
    rng = random.Random(606)
    zero = Vec3(0.0, 0.0, 0.0)

    def vec_err(a, b):
        return max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))

    worst_ratio_gap = 0.0
    for _ in range(8):
        R = rng.uniform(0.7, 1.4)
        f = SolenoidField(B=rng.choice((-1, 1)) * rng.uniform(0.5, 3.0), R=R,
                          gamma=rng.choice((-1, 1)) * rng.uniform(0.5, 3.0))
        inside = cylindrical(rng.uniform(0.1, 0.6) * R, rng.uniform(0.0, TWO_PI))
        assert vec_err(curl_fd(f, inside, 1e-4), eval_B(f, inside)) <= 1e-6

        outside = cylindrical(rng.uniform(1.2, 2.5) * R, rng.uniform(0.0, TWO_PI))
        err_h = vec_err(curl_fd(f, outside, 1e-4), zero)
        err_half = vec_err(curl_fd(f, outside, 5e-5), zero)
        assert err_h <= 1e-6
        # second-order convergence shows on the nonlinear exterior branch
        # (the interior potential is linear, so its error is pure roundoff)
        ratio = err_h / err_half
        worst_ratio_gap = max(worst_ratio_gap, abs(ratio - 4.0))
        assert 3.5 <= ratio <= 4.5, (f, outside, ratio)
    report(6, f"curl matches the field within 1e-6 at h=1e-4; halving h gives "
              f"ratio 4 +- {worst_ratio_gap:.2e} (within [3.5, 4.5])")


def test_criterion_07_phase_periodicity():
    # the loop phase by quadrature is periodic in gamma with period 1/q,
    # and a half period moves it by pi: on circles and on polylines, w = +-1
    rng = random.Random(707)
    worst = 0.0
    for i in range(100):
        q = rng.choice((-1, 1)) * rng.uniform(0.05, 20.0)
        f = random_field(rng, gamma=rng.uniform(-3.0, 3.0))
        w = rng.choice((-1, 1))
        loop = exterior_circle(rng, f, w) if i % 2 else star_loop(rng, w, 2.0 * f.R, 5.0 * f.R)
        shifted = gauge_shift(f, 1.0 / q)
        phase = holonomy(f, loop, q)
        tol = 1e-8 * abs(q) * max(config_scale(f), config_scale(shifted))
        gap = phase.distance(holonomy(shifted, loop, q))
        worst = max(worst, gap)
        assert gap <= tol, (q, f, loop, gap, tol)
        assert phases_equivalent(q, f.gamma, f.gamma + 1.0 / q)
        half = phase.distance(holonomy(gauge_shift(f, 0.5 / q), loop, q))
        assert abs(half - math.pi) <= tol, (q, f, loop, half)
    report(7, f"holonomy(q, gamma + 1/q) = holonomy(q, gamma) on 100 circles and "
              f"polylines, worst gap {worst:.2e}; gamma + 1/(2q) moves it by pi")


def test_criterion_08_single_valuedness():
    base = interference(SolenoidField(B=0.0, R=1.0, gamma=0.0), 1.0, GEOM)
    worst = 0.0
    for q, gamma in ((1.0, 1.0), (2.0, 1.5), (3.0, 1.0 / 3.0), (-2.0, 2.5), (5.0, 0.2)):
        rows = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma), q, GEOM)
        gap = max(abs(ia - ib) for (_, ia), (_, ib) in zip(rows, base))
        worst = max(worst, gap)
        assert gap <= 1e-12, (q, gamma, gap)
    for q, gamma in ((1.0, 0.5), (2.0, 0.75), (3.0, 0.5)):
        rows = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma), q, GEOM)
        center = rows[(GEOM.samples - 1) // 2][1]
        assert abs(center) <= 1e-12, (q, gamma, center)
    report(8, f"integer q*gamma reproduces gamma=0 pointwise (worst gap {worst:.2e} "
              f"<= 1e-12); half-integer q*gamma darkens the center")


def test_criterion_09_equivalence_theorem():
    rng = random.Random(909)
    agree = 0
    for _ in range(200):
        q = Fraction(rng.choice([n for n in range(-9, 10) if n != 0]), rng.randint(1, 9))
        kappa = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ground_truth = (q * kappa).denominator == 1
        gamma = rng.uniform(-2.0, 2.0)

        equivalent = phases_equivalent(float(q), gamma, gamma + float(kappa))
        assert equivalent == ground_truth, (q, kappa)

        rows_a = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma), float(q), GEOM)
        rows_b = interference(SolenoidField(B=0.0, R=1.0, gamma=gamma + float(kappa)),
                              float(q), GEOM)
        gap = max(abs(ia - ib) for (_, ia), (_, ib) in zip(rows_a, rows_b))
        assert (gap <= 1e-9) == ground_truth, (q, kappa, gap)
        agree += 1
    report(9, f"phases_equivalent == integer test == fringe-array equality on "
              f"{agree}/200 rational (q, kappa) draws")


def test_criterion_10_quantization():
    assert infer_minimal_N([Fraction(2, 3), Fraction(-1, 3), Fraction(1)]).N == 3

    assert spectrum(ChargeSpectrum(3), -3, 3) == [
        Fraction(-1), Fraction(-2, 3), Fraction(-1, 3), Fraction(0),
        Fraction(1, 3), Fraction(2, 3), Fraction(1)]

    for charges in ([Fraction(2, 3), Fraction(-1, 3), Fraction(1)],
                    [Fraction(1, 2), Fraction(1, 3)],
                    [Fraction(5, 12), Fraction(-7, 8)]):
        lattice = infer_minimal_N(charges)
        assert all(charge_allowed(q, lattice) for q in charges)
        n, p = lattice.N, 2
        prime_divisors = set()
        while p * p <= n:
            while n % p == 0:
                prime_divisors.add(p)
                n //= p
            p += 1
        if n > 1:
            prime_divisors.add(n)
        for p in prime_divisors:
            assert not all(charge_allowed(q, ChargeSpectrum(lattice.N // p))
                           for q in charges)
    report(10, "N({2/3,-1/3,1}) = 3, the spectrum is exact and N is minimal, "
               "in exact arithmetic")


def test_criterion_11_gauge_shift_composition():
    rng = random.Random(1111)
    worst = 0.0
    for _ in range(20):
        f = random_field(rng)
        kappa = rng.uniform(-2.0, 2.0)
        w = rng.randint(-3, 3)
        loop = random_exterior_loop(rng, f, w)
        delta = circulation(gauge_shift(f, kappa), loop) - circulation(f, loop)
        expected = TWO_PI * kappa * w
        err = abs(delta - expected)
        worst = max(worst, err / max(1.0, abs(expected)))
        assert err <= 1e-9 * max(1.0, abs(expected)), (f, kappa, w, err)
    report(11, f"shifted-minus-base circulation equals 2*pi*kappa*w, worst scaled "
               f"err {worst:.2e} <= 1e-9")
