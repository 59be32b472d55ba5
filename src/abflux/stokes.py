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

The inner boundary circle of D2 and the boundary of D1 sit at rho = R
where the field carries no value, so they are evaluated as one-sided
limits.  Each side's formula is smooth up to the surface, so each limit
is that formula integrated on rho = R itself, and D1's area flux is
integrated on [0, R] the same way.  Every circle and disc is built from
a quadrature piece whose side is known, so the inputs are validated
once, by the outer-radius check.

The chart audit's two-sector assembly of D2's flux is zero by
construction (see chart_audit), so it needs only the rings of D2.  The
three rings and the disc go through geometry's memo of whole turns, so
chart_audit and flux_direct, run after verify_stokes on the same disc,
read their integrals from it and integrate nothing again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidRadius, QuadratureNotConverged
from .fields import SolenoidField, _require_exterior_range, _require_positive
from .geometry import _DEFAULT_SPEC, QuadratureSpec, _whole_turn

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
    """The split disc's one input check: L clears rho = R, and the
    exterior rings' radii [R, L] lie in the exterior range that every
    exterior path keeps (fields._require_exterior_range)."""
    _require_positive("outer radius", L, error=InvalidRadius)
    if not L > f.R + 10.0 * f.boundary_band:
        raise InvalidRadius(
            f"outer radius must exceed R = {f.R!r} with clearance, got {L!r}"
        )
    _require_exterior_range(f.R, L)


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
    spec = spec if spec is not None else _DEFAULT_SPEC
    _require_outer_radius(f, L)

    phi_1 = _whole_turn("interior", f.B, f.R, spec)
    phi_1_area = _whole_turn("disc", f.B, f.R, spec)
    scale = max(1.0, abs(phi_1), abs(phi_1_area))
    if abs(phi_1 - phi_1_area) > 1e-7 * scale:
        raise QuadratureNotConverged(
            "interior flux cross-check failed: boundary circulation "
            f"{phi_1!r} vs area quadrature {phi_1_area!r}"
        )

    circ_inner = _whole_turn("exterior", f.gamma, f.R, spec)
    circ_outer = _whole_turn("exterior", f.gamma, L, spec)
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
    along phi = 0 and phi = pi.  Each term is identically zero, so none
    is integrated: the half-annuli carry the exterior B_z = 0, and the
    purely azimuthal potential has no component along a radial cut.
    That is the seam statement.  Returns the absolute difference between
    that assembly and phi_2 from the two-boundary route, which is
    |circ(L) - circ(R+)|; a value at roundoff scale shows the seam
    contributes nothing.  Both rings are memoized (geometry._whole_turn):
    after verify_stokes on the same field, L and spec, the audit
    integrates neither again and returns the same value bit for bit.
    """
    spec = spec if spec is not None else _DEFAULT_SPEC
    _require_outer_radius(f, L)
    circ_inner = _whole_turn("exterior", f.gamma, f.R, spec)
    circ_outer = _whole_turn("exterior", f.gamma, L, spec)
    return abs(circ_outer - circ_inner)
