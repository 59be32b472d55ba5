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
once, by the outer-radius check L > R.

The chart audit's two-sector assembly of D2's flux is zero by
construction (see chart_audit), so it needs only the rings of D2.
geometry keeps the last split disc's three rings and disc, so
chart_audit and flux_direct, run after verify_stokes on the same field,
L and spec objects, read their integrals from it and integrate nothing
again.
"""

from __future__ import annotations

from .errors import InvalidRadius, QuadratureNotConverged
from .fields import SolenoidField, _require_exterior_range, _require_positive
from .geometry import _DEFAULT_SPEC, QuadratureSpec, _exterior_rings, _split_disc

#: the report's six values, in field order
_VALUES = ("phi_1", "phi_2", "phi_total", "circ_outer", "circ_inner", "discrepancy")

#: StokesReport once _report_type has built it
_report = None


def _report_dict(values, f: SolenoidField, L: float) -> dict:
    """StokesReport.to_dict of a report with these six values, field and L."""
    data = dict(zip(_VALUES, values))
    data["config"] = {"field": f.to_dict(), "L": L}
    return data


def _report_type() -> type:
    """StokesReport, built on first use: importing this module, as the
    stokes and chart-audit commands do, loads no dataclasses (and with it
    no inspect).  dict.setdefault publishes the class in one step, so
    threads that race here all get the same class."""
    global _report
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class StokesReport:
        """Per-region fluxes and boundary circulations for the split disc.

        ``discrepancy = circ_outer - phi_total`` equals 2*pi*kappa
        analytically; it vanishes only for the flux-matching exterior choice.
        """

        # not "_report_type.<locals>.StokesReport": repr prints this name,
        # and pickle finds the class under it through __getattr__ below
        __qualname__ = "StokesReport"

        phi_1: float        # flux through the interior disc D1
        phi_2: float        # flux through the annulus D2
        phi_total: float    # phi_1 + phi_2
        circ_outer: float   # circulation on the outer boundary rho = L
        circ_inner: float   # exterior-limit circulation on rho -> R+
        discrepancy: float  # circ_outer - phi_total
        field: SolenoidField
        L: float

        def to_dict(self) -> dict:
            values = (getattr(self, name) for name in _VALUES)
            return _report_dict(values, self.field, self.L)

    _report = globals().setdefault("StokesReport", StokesReport)
    return _report


def __getattr__(name):
    if name == "StokesReport":
        return _report_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_outer_radius(f: SolenoidField, L: float) -> None:
    """The split disc's one input check: L > R, exact, as its rings lie
    at exactly R and L, and [R, L] lies in the exterior range that every
    exterior path keeps (fields._require_exterior_range)."""
    _require_positive("outer radius", L, error=InvalidRadius)
    if not L > f.R:
        raise InvalidRadius(f"outer radius must exceed R = {f.R!r}, got {L!r}")
    _require_exterior_range(f.R, L)


def _report_values(f: SolenoidField, L: float, spec: QuadratureSpec | None) -> tuple:
    """verify_stokes' six values, in StokesReport's field order, without
    the report: the stokes command prints them as they are."""
    spec = spec if spec is not None else _DEFAULT_SPEC
    _require_outer_radius(f, L)

    phi_1, phi_1_area, circ_inner, circ_outer = _split_disc(f, L, spec)
    scale = max(1.0, abs(phi_1), abs(phi_1_area))
    if abs(phi_1 - phi_1_area) > 1e-7 * scale:
        raise QuadratureNotConverged(
            "interior flux cross-check failed: boundary circulation "
            f"{phi_1!r} vs area quadrature {phi_1_area!r}"
        )
    phi_2 = circ_outer - circ_inner
    phi_total = phi_1 + phi_2
    return phi_1, phi_2, phi_total, circ_outer, circ_inner, circ_outer - phi_total


def verify_stokes(
    f: SolenoidField, L: float, spec: QuadratureSpec | None = None
) -> StokesReport:
    """Integrate flux and circulation on both parts of the split disc.

    The interior flux is computed twice, as the boundary circulation of
    the interior potential and as a direct area quadrature of the field;
    the two must agree (the integral theorem holds on each smooth part)
    or the computation is rejected.  The reported phi_1 is the
    circulation value.  An interior flux that the kernel finds not
    finite is a ValueError naming B and R.
    """
    return (_report or _report_type())(*_report_values(f, L, spec), f, L)


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
    contributes nothing.  After verify_stokes on the same field, L and
    spec objects the audit reads both rings from that split disc
    (geometry._split_disc) and returns the same value bit for bit;
    otherwise it integrates the two rings alone, never the interior.
    """
    spec = spec if spec is not None else _DEFAULT_SPEC
    _require_outer_radius(f, L)
    circ_inner, circ_outer = _exterior_rings(f, L, spec)
    return abs(circ_outer - circ_inner)
