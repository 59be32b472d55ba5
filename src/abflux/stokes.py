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
the field carries no value, so they are evaluated as one-sided limits:
circulations at rho = R*(1 -+ delta) for two delta values, linearly
extrapolated to delta -> 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidRadius, QuadratureNotConverged
from .fields import Point, SolenoidField
from .geometry import (
    Circle,
    QuadratureSpec,
    circulation,
    sector_flux,
    segment_integral,
)

#: Relative offsets used for the one-sided boundary limits; the second is
#: half the first, so two evaluations support linear Richardson
#: extrapolation to the surface.
LIMIT_DELTAS = (1e-4, 5e-5)


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


def _limit_circulation(f: SolenoidField, side: int, spec: QuadratureSpec) -> float:
    """One-turn circulation on the circle rho -> R from inside (side=-1)
    or outside (side=+1), via two-point Richardson extrapolation."""
    origin = Point(0.0, 0.0, 0.0)
    values = [
        circulation(f, Circle(origin, f.R * (1.0 + side * d), 1), spec)
        for d in LIMIT_DELTAS
    ]
    # deltas halve, so 2*v(d/2) - v(d) cancels the first-order term
    return 2.0 * values[1] - values[0]


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

    phi_1 = _limit_circulation(f, -1, spec)
    phi_1_area = sector_flux(f, 0.0, f.R - f.boundary_band, 0.0, math.tau, spec)
    scale = max(1.0, abs(phi_1), abs(phi_1_area))
    if abs(phi_1 - phi_1_area) > 1e-7 * scale:
        raise QuadratureNotConverged(
            "interior flux cross-check failed: boundary circulation "
            f"{phi_1!r} vs area quadrature {phi_1_area!r}"
        )

    circ_inner = _limit_circulation(f, +1, spec)
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


#: Relative inset of the audit's inner rim from the solenoid surface,
#: chosen to respect the path clearance required of line integrals.
CUT_OFFSET = LIMIT_DELTAS[0]


def chart_audit(f: SolenoidField, L: float, spec: QuadratureSpec | None = None) -> float:
    """Recompute the annulus flux with the exterior split into half-sectors.

    The polar chart is one-to-one on each of phi in [0, pi) and
    [pi, 2*pi), so the annulus flux may be assembled per sector: two
    half-annulus surface integrals plus the four radial cut integrals
    along phi = 0 and phi = pi (which cancel in pairs; the potential is
    purely azimuthal, so each is individually zero as well).  Returns the
    absolute difference between that assembly and phi_2 from the
    two-boundary route.  A value at roundoff scale demonstrates the chart
    seam contributes nothing.
    """
    spec = spec if spec is not None else QuadratureSpec()
    _require_outer_radius(f, L)
    rim = f.R * (1.0 + CUT_OFFSET)

    surface = (
        sector_flux(f, rim, L, 0.0, math.pi, spec)
        + sector_flux(f, rim, L, math.pi, math.tau, spec)
    )

    inner_0 = Point(rim, 0.0, 0.0)
    outer_0 = Point(L, 0.0, 0.0)
    inner_pi = Point(-rim, 0.0, 0.0)
    outer_pi = Point(-L, 0.0, 0.0)
    cuts = math.fsum(
        (
            segment_integral(f, inner_0, outer_0, spec),    # sector 1, seam phi = 0
            segment_integral(f, outer_pi, inner_pi, spec),  # sector 1, seam phi = pi
            segment_integral(f, inner_pi, outer_pi, spec),  # sector 2, seam phi = pi
            segment_integral(f, outer_0, inner_0, spec),    # sector 2, seam phi = 2*pi
        )
    )

    circ_inner = _limit_circulation(f, +1, spec)
    circ_outer = circulation(f, Circle(Point(0.0, 0.0, 0.0), L, 1), spec)
    phi_2 = circ_outer - circ_inner
    return abs((surface + cuts) - phi_2)
