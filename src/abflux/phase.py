"""Loop holonomy phases and a minimal two-beam fringe model.

Sign convention: transporting a charge q around a closed loop multiplies
its wave function by exp(-i*theta) with theta = q * (circulation of the
potential); only the real angle theta is stored, reduced to [0, 2*pi).
For a loop of winding number w in the exterior region this is
theta = 2*pi*q*gamma*w.  The angle, not any complex bookkeeping, is the
physical content, and it is periodic in gamma with period 1/q:
phases_equivalent tells whether two gammas give the same phase.
"""

from __future__ import annotations

import math

from ._record import Record
from .fields import SolenoidField, _require_finite, _require_positive

TYPE_CHECKING = False

if TYPE_CHECKING:
    from .geometry import ClosedPath, QuadratureSpec

#: Most screen samples one pattern may have; every sample is a row held
#: in memory, so the bound caps the memory an interference call uses.
_MAX_SAMPLES = 10**6


class PhaseFactor(Record):
    """Angle theta of a unit phase factor exp(-i*theta), kept in [0, 2*pi).

    Equality is exact, field by field; distance is the wrap-aware
    comparison, in which angles just above 0 and just below 2*pi are close.
    """

    __slots__ = _fields = ("angle",)

    def __init__(self, angle: float):
        _require_finite("phase angle", angle)
        reduced = angle % math.tau
        if reduced >= math.tau:  # float % can round up to the modulus
            reduced -= math.tau
        object.__setattr__(self, "angle", reduced)

    @classmethod
    def from_turns(cls, turns: float) -> "PhaseFactor":
        """Build from a turn count, reducing mod 1 before scaling by 2*pi.

        Reducing first keeps integer turn counts at exactly zero angle,
        which is what makes "no observable effect" cases exact.
        """
        _require_finite("turn count", turns)
        return cls(math.tau * (turns % 1.0))

    def distance(self, other: "PhaseFactor") -> float:
        """Shortest angular distance on the circle."""
        d = abs(self.angle - other.angle)
        return min(d, math.tau - d)


def holonomy(
    f: SolenoidField,
    path: ClosedPath,
    q: float,
    spec: QuadratureSpec | None = None,
) -> PhaseFactor:
    """Loop phase q * circulation(f, path), reduced mod 2*pi.

    circulation remembers its last result, so after circulation(f, path,
    spec) on the same objects this integrates nothing.
    """
    _require_finite("q", q)
    # imported here: the closed-form phases and the fringe model need no
    # quadrature, so loading abflux.geometry would only slow their start.
    # The module, not the name: per call, that import costs half as much
    from . import geometry

    return PhaseFactor(q * geometry.circulation(f, path, spec))


def phase_closed_form(q: float, gamma: float, w: int) -> PhaseFactor:
    """Closed-form loop phase 2*pi*q*gamma*w mod 2*pi, no quadrature.

    A q or gamma that is not finite, a w that is not an int (a bool
    included), or any of them an int past floating-point range raises a
    ValueError naming it, as does the turn count q*gamma*w.
    """
    _require_finite("q", q)
    _require_finite("gamma", gamma)
    if isinstance(w, bool) or not isinstance(w, int):
        raise ValueError(f"w must be an integer, got {w!r}")
    _require_finite("w", w)
    return PhaseFactor.from_turns(q * gamma * w)


def phases_equivalent(q: float, gamma1: float, gamma2: float, tol: float = 1e-9) -> bool:
    """True when gamma1 and gamma2 give the same loop phase for charge q.

    Equivalent to q*(gamma1 - gamma2) being an integer (within tol):
    the exterior parameter is observable only through its class mod 1/q.
    A non-finite q*(gamma1 - gamma2) raises ValueError.
    """
    _require_positive("tolerance", tol)
    try:
        x = q * (gamma1 - gamma2)
        finite = math.isfinite(x)
    except OverflowError:
        raise ValueError("q*dgamma is beyond floating-point range") from None
    if not finite:
        raise ValueError(f"q*dgamma must be finite, got q={q!r}, dgamma={gamma1 - gamma2!r}")
    return abs(x - round(x)) <= tol


class InterferometerGeometry(Record):
    """Two-beam far-field fringe geometry, lengths in wavelengths: the
    wavenumber is 2*pi."""

    __slots__ = _fields = ("slit_separation", "screen_distance", "half_extent", "samples")

    def __init__(self, slit_separation: float, screen_distance: float, half_extent: float,
                 samples: int = 201):
        values = (slit_separation, screen_distance, half_extent, samples)
        for name, v in zip(self._fields[:3], values):
            _require_positive(name, v)
        if isinstance(samples, bool) or not isinstance(samples, int):
            raise ValueError(f"samples must be an integer, got {samples!r}")
        if not 2 <= samples <= _MAX_SAMPLES:
            raise ValueError(f"samples must be between 2 and {_MAX_SAMPLES}, got {samples!r}")
        for name, v in zip(self._fields, values):
            object.__setattr__(self, name, v)


def interference(
    f: SolenoidField, q: float, geom: InterferometerGeometry
) -> list[tuple[float, float]]:
    """Screen intensity 1 + cos(k*d*x/D - dphi), sampled uniformly, with
    k = 2*pi: d, D and x are in wavelengths.

    dphi = 2*pi*((q*gamma) mod 1) is the one-turn loop phase, so the
    pattern is the gamma = 0 pattern rigidly shifted by (q*gamma mod 1)
    fringes.  Integer q*gamma shifts by whole fringes: indistinguishable
    from no solenoid at all.  A pure-gauge exterior (B = 0, gamma != 0)
    still shifts the pattern; that is the observable the phase carries.
    q, and the turn count q*gamma, are checked as phase_closed_form checks
    them: a bool, non-finite or out-of-range value raises ValueError.
    """
    dphi = phase_closed_form(q, f.gamma, 1).angle
    k_eff = math.tau * geom.slit_separation / geom.screen_distance
    n = geom.samples
    extent = geom.half_extent
    step = 2.0 * extent / (n - 1)
    rows = []
    for i in range(n):
        x = -extent + i * step
        rows.append((x, 1.0 + math.cos(k_eff * x - dphi)))
    return rows


def interference_csv(rows: list[tuple[float, float]]) -> str:
    """Render (x, intensity) rows as "x,intensity" CSV text."""
    lines = ["x,intensity"]
    for x, intensity in rows:
        lines.append(f"{x:.12g},{intensity:.12g}")
    return "\n".join(lines) + "\n"
