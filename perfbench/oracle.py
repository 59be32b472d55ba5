"""Analytic expected values for every quantity the benchmark checks.

Every result is compared with its closed form, never with another run of
the library:

* exterior circulation      2*pi*gamma*w
* interior circle           B*pi*r**2*turns
* flux and phi_total        pi*B*min(L, R)**2
* discrepancy               2*pi*kappa
* chart audit               0
* loop phases               the above times q, compared mod 2*pi
* charge lattice            exact rational arithmetic

Each quantity has one scale, and both limits below are derived from it:

* ``bound = 1e-8 * scale`` is the bound the test suite holds these
  results to, on the suite's own scale; a result beyond it counts as a
  failed operation.
* ``tol = max(abs_tol, rel_tol * scale)`` is the tolerance the operation
  asked for through its QuadratureSpec; a result beyond it is a
  tolerance miss, which is reported but is not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

TWO_PI = 2.0 * math.pi

#: Relative error bound of the test suite (tests/test_acceptance.py).
ERROR_BOUND = 1e-8


@dataclass(frozen=True)
class Check:
    """One checked quantity of one operation."""

    quantity: str  # "<layer>.<name>"
    err: float
    bound: float
    tol: float | None = None  # None for results that take no tolerance

    @property
    def layer(self) -> str:
        return self.quantity.split(".", 1)[0]

    @property
    def failed(self) -> bool:
        return not self.err <= self.bound  # NaN fails

    @property
    def missed(self) -> bool:
        return self.tol is not None and not self.err <= self.tol

    @property
    def over_tol(self) -> float:
        return self.err / self.tol if self.tol else 0.0


def requested_tol(spec, scale: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * scale)


def against(quantity: str, got: float, expected: float, scale: float,
            spec) -> Check:
    """Compare a float result with its analytic value on the given scale."""
    return Check(quantity, abs(got - expected), ERROR_BOUND * scale,
                 requested_tol(spec, scale))


def angle_against(quantity: str, angle: float, turns: float, scale: float,
                  spec) -> Check:
    """Compare a phase angle with 2*pi*turns on the circle (wrap-aware)."""
    d = abs(angle - TWO_PI * (turns % 1.0)) % TWO_PI
    return Check(quantity, min(d, TWO_PI - d), ERROR_BOUND * scale,
                 requested_tol(spec, scale))


def exact(quantity: str, got, expected) -> Check:
    return Check(quantity, 0.0 if got == expected else math.inf, 0.0)


def exterior_scale(gamma: float, w: int) -> float:
    """Scale of an exterior circulation: one turn's worth, times |w|."""
    return TWO_PI * abs(gamma) * max(abs(w), 1)


def flux_expected(B: float, R: float, L: float) -> float:
    return math.pi * B * min(L, R) ** 2


def annulus_scale(B: float, R: float) -> float:
    """Scale of the annulus flux phi_2, which is 0: the enclosed flux,
    at least 1 (tests/test_acceptance.py, criterion 3)."""
    return max(math.pi * abs(B) * R * R, 1.0)


def discrepancy_scale(B: float, R: float, gamma: float) -> float:
    """Scale of the discrepancy 2*pi*kappa, a difference of flux and
    circulation terms: the largest of them, at least 1 (criterion 4)."""
    kappa = gamma - 0.5 * B * R * R
    return max(TWO_PI * abs(kappa), math.pi * abs(B) * R * R, TWO_PI * abs(gamma), 1.0)


#: Scale of the chart audit, a gap that is 0: the suite bounds it by 1e-8
#: absolute (criterion 5).
CHART_AUDIT_SCALE = 1.0


def stokes_checks(B: float, R: float, gamma: float, L: float, spec,
                  phi_1: float, phi_2: float, phi_total: float,
                  circ_outer: float, circ_inner: float,
                  discrepancy: float) -> list[Check]:
    """Checks for the six numbers of a split-disc report."""
    flux = flux_expected(B, R, L)
    interior = math.pi * B * R * R
    kappa = gamma - 0.5 * B * R * R
    ext = exterior_scale(gamma, 1)
    return [
        against("stokes.phi_1", phi_1, interior, abs(interior), spec),
        against("stokes.phi_2", phi_2, 0.0, annulus_scale(B, R), spec),
        against("stokes.phi_total", phi_total, flux, abs(flux), spec),
        against("stokes.circ_outer", circ_outer, TWO_PI * gamma, ext, spec),
        against("stokes.circ_inner", circ_inner, TWO_PI * gamma, ext, spec),
        against("stokes.discrepancy", discrepancy, TWO_PI * kappa,
                discrepancy_scale(B, R, gamma), spec),
    ]


def flux_check(B: float, R: float, L: float, got: float, spec) -> Check:
    expected = flux_expected(B, R, L)
    return against("geometry.flux_direct", got, expected, abs(expected), spec)


def chart_audit_check(got: float, spec) -> Check:
    return against("stokes.chart_audit", got, 0.0, CHART_AUDIT_SCALE, spec)


def interference_rows(q: float, gamma: float, slit: float, screen: float,
                      wavenumber: float, half_extent: float,
                      samples: int) -> list[tuple[float, float]]:
    """Two-beam intensity 1 + cos(k*d*x/D - 2*pi*frac(q*gamma))."""
    dphi = TWO_PI * ((q * gamma) % 1.0)
    k_eff = wavenumber * slit / screen
    step = 2.0 * half_extent / (samples - 1)
    rows = []
    for i in range(samples):
        x = -half_extent + i * step
        rows.append((x, 1.0 + math.cos(k_eff * x - dphi)))
    return rows


def rows_check(got: list[tuple[float, float]],
               expected: list[tuple[float, float]]) -> Check:
    """Fringe rows printed with 12 significant digits: 1e-9 absolute."""
    if len(got) != len(expected):
        return Check("phase.interference", math.inf, 0.0)
    err = max((max(abs(a - c), abs(b - d))
               for (a, b), (c, d) in zip(got, expected)), default=0.0)
    return Check("phase.interference", err, 1e-9)


def lattice_contains(charge: str, N: int) -> bool:
    return (Fraction(charge) * N).denominator == 1


def lattice_spectrum(N: int, n_min: int, n_max: int) -> list[str]:
    return [str(Fraction(n, N)) for n in range(n_min, n_max + 1)]


def lattice_denominator(charges: list[str]) -> int:
    return math.lcm(*(Fraction(c).denominator for c in charges))


def kappa_inert(kappa_e: str, charges: list[str]) -> bool:
    ke = Fraction(kappa_e)
    if not charges:
        return ke.denominator == 1
    return all((Fraction(c) * ke).denominator == 1 for c in charges)


@dataclass
class Tally:
    """Failures, tolerance misses and worst err/tol over graded operations."""

    attempted: int = 0
    failed: int = 0
    tol_missed: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    worst_over_tol: dict[str, float] = field(default_factory=dict)

    def add(self, checks: list[Check] | None, error: str | None = None) -> bool:
        """Grade one operation; returns True when it failed."""
        self.attempted += 1
        failed = error is not None or not checks or any(c.failed for c in checks)
        if error is not None:
            self.errors[error] = self.errors.get(error, 0) + 1
        for c in checks or ():
            if c.failed and error is None:
                key = f"{c.quantity} beyond bound"
                self.errors[key] = self.errors.get(key, 0) + 1
            if c.missed:
                self.misses[c.quantity] = self.misses.get(c.quantity, 0) + 1
            if c.tol is not None:
                worst = self.worst_over_tol.get(c.layer, 0.0)
                self.worst_over_tol[c.layer] = max(worst, c.over_tol)
        if failed:
            self.failed += 1
        if checks and any(c.missed for c in checks):
            self.tol_missed += 1
        return failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def tol_miss_frac(self) -> float:
        return self.tol_missed / self.attempted if self.attempted else 0.0
