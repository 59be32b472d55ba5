"""Flux-versus-circulation bookkeeping on the decomposed disc.

A disc of radius L > R splits at the solenoid surface into the interior
disc D1 and the annulus D2.  The potential is continuously
differentiable on each part separately (not across rho = R), so the
integral theorem applies per part:

* D1's flux equals the boundary circulation of the interior potential,
  pi*B*R**2.
* D2's flux vanishes, because its outer and inner boundary circles carry
  the same exterior circulation 2*pi*gamma.

The outer-boundary circulation minus the total flux is therefore
2*pi*kappa: zero exactly when gamma takes the flux-matching value, and a
free constant otherwise.  Nothing in the decomposition forces kappa = 0;
that is the whole point of reporting the discrepancy rather than
asserting it away.

Both boundary circles of D2 and the boundary of D1 sit at rho = R where
the field carries no value, so they are evaluated as one-sided limits.
Each side's formula is smooth up to the surface, so each limit is that
formula integrated on rho = R itself, and D1 and D2 are integrated on
[0, R] and [R, L] the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidRadius, QuadratureNotConverged
from .fields import Point, SolenoidField, _side_field
from .geometry import (
    Circle,
    QuadratureSpec,
    circulation,
    sector_flux,
    segment_integral,
)

@dataclass(frozen=True)
class StokesReport:
    """Per-region fluxes and boundary circulations for the split disc.

    ``discrepancy = circ_outer - phi_total`` equals 2*pi*kappa
    analytically; it vanishes only for the flux-matching exterior choice.
    """

    phi_1: float        # flux through the interior disc D1
    phi_2: float        # flux through the annulus D2
    phi_total: float    # phi_1 + phi_2
    circ_outer: float   # circulation on the outer boundary rho = L
    circ_inner: float   # exterior-limit circulation on rho -> R+
    discrepancy: float  # circ_outer - phi_total
    field: SolenoidField
    L: float

    def to_dict(self) -> dict:
        return {
            "phi_1": self.phi_1,
            "phi_2": self.phi_2,
            "phi_total": self.phi_total,
            "circ_outer": self.circ_outer,
            "circ_inner": self.circ_inner,
            "discrepancy": self.discrepancy,
            "config": {"field": self.field.to_dict(), "L": self.L},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _require_outer_radius(f: SolenoidField, L: float) -> None:
    if not (math.isfinite(L) and L > f.R + 10.0 * f.boundary_band):
        raise InvalidRadius(
            f"outer radius must exceed R = {f.R!r} with clearance, got {L!r}"
        )


def _limit_circulation(f: SolenoidField, inside: bool, spec: QuadratureSpec) -> float:
    """One-turn circulation on the circle rho -> R from inside or outside:
    that side's formula integrated on rho = R itself."""
    return circulation(_side_field(f, inside), Circle(Point(0.0, 0.0, 0.0), f.R, 1), spec)


def verify_stokes(
    f: SolenoidField, L: float, spec: QuadratureSpec | None = None
) -> StokesReport:
    """Integrate flux and circulation on both parts of the split disc.

    The interior flux is computed twice, as the boundary circulation of
    the interior potential and as a direct area quadrature of the field;
    the two must agree (the integral theorem holds on each smooth part)
    or the computation is rejected.  The reported phi_1 is the
    circulation value.
    """
    spec = spec if spec is not None else QuadratureSpec()
    _require_outer_radius(f, L)

    phi_1 = _limit_circulation(f, True, spec)
    phi_1_area = sector_flux(_side_field(f, True), 0.0, f.R, 0.0, math.tau, spec)
    scale = max(1.0, abs(phi_1), abs(phi_1_area))
    if abs(phi_1 - phi_1_area) > 1e-7 * scale:
        raise QuadratureNotConverged(
            "interior flux cross-check failed: boundary circulation "
            f"{phi_1!r} vs area quadrature {phi_1_area!r}"
        )

    circ_inner = _limit_circulation(f, False, spec)
    circ_outer = circulation(f, Circle(Point(0.0, 0.0, 0.0), L, 1), spec)
    phi_2 = circ_outer - circ_inner
    phi_total = phi_1 + phi_2
    return StokesReport(
        phi_1=phi_1,
        phi_2=phi_2,
        phi_total=phi_total,
        circ_outer=circ_outer,
        circ_inner=circ_inner,
        discrepancy=circ_outer - phi_total,
        field=f,
        L=L,
    )


def chart_audit(f: SolenoidField, L: float, spec: QuadratureSpec | None = None) -> float:
    """Recompute the annulus flux with the exterior split into half-sectors.

    The polar chart is one-to-one on each of phi in [0, pi) and
    [pi, 2*pi), so the annulus flux may be assembled per sector: two
    half-annulus surface integrals plus the four radial cut integrals
    along phi = 0 and phi = pi (which cancel in pairs; the potential is
    purely azimuthal, so each is individually zero as well), all starting
    on rho = R and taken from the exterior formula.  Returns the
    absolute difference between that assembly and phi_2 from the
    two-boundary route.  A value at roundoff scale demonstrates the chart
    seam contributes nothing.
    """
    spec = spec if spec is not None else QuadratureSpec()
    _require_outer_radius(f, L)
    outside = _side_field(f, False)

    surface = (
        sector_flux(outside, f.R, L, 0.0, math.pi, spec)
        + sector_flux(outside, f.R, L, math.pi, math.tau, spec)
    )

    inner_0 = Point(f.R, 0.0, 0.0)
    outer_0 = Point(L, 0.0, 0.0)
    inner_pi = Point(-f.R, 0.0, 0.0)
    outer_pi = Point(-L, 0.0, 0.0)
    cuts = math.fsum(
        (
            segment_integral(outside, inner_0, outer_0, spec),    # sector 1, seam phi = 0
            segment_integral(outside, outer_pi, inner_pi, spec),  # sector 1, seam phi = pi
            segment_integral(outside, inner_pi, outer_pi, spec),  # sector 2, seam phi = pi
            segment_integral(outside, outer_0, inner_0, spec),    # sector 2, seam phi = 2*pi
        )
    )

    circ_inner = _limit_circulation(f, False, spec)
    circ_outer = circulation(f, Circle(Point(0.0, 0.0, 0.0), L, 1), spec)
    phi_2 = circ_outer - circ_inner
    return abs((surface + cuts) - phi_2)
