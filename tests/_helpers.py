"""Shared generators for randomized sweeps (seeded, reproducible)."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import abflux
from abflux.errors import AbfluxError
from abflux.fields import Point, SolenoidField
from abflux.geometry import Circle, Polyline

#: (B, R) whose disc flux pi*B*R**2 overflows, and also pi*B*(0.8*R)**2:
#: by 0.7% to 7 times, where 2*pi*B is finite (2.5e307) or not (4e307, 1e308)
DISC_OVERFLOWS = ((2.5e307, 2.0), (-2.5e307, 2.0), (1e308, 2.0), (4e307, 1.5), (-4e307, 1.5))
#: (B, R) whose disc flux is finite, though r*(2*pi*B) near r = R
#: (2.5e307) or 2*pi*B itself (4e307) overflows
DISC_NEAR_MAX = ((2.5e307, 1.5), (-2.5e307, 1.5), (4e307, 0.5), (-4e307, 0.5))


def random_field(rng: random.Random, B: float | None = None,
                 gamma: float | None = None) -> SolenoidField:
    """Field with O(1) parameters, bounded away from degenerate scales."""
    if B is None:
        B = rng.choice((-1, 1)) * rng.uniform(0.3, 3.0)
    R = rng.uniform(0.4, 2.2)
    if gamma is None:
        gamma = rng.choice((-1, 1)) * rng.uniform(0.2, 2.5)
    return SolenoidField(B=B, R=R, gamma=gamma)


def cylindrical(rho: float, phi: float, z: float = 0.0) -> Point:
    """The point at distance rho from the axis, azimuth phi and height z."""
    return Point(rho * math.cos(phi), rho * math.sin(phi), z)


def star_loop(rng: random.Random, winding: int, rho_lo: float, rho_hi: float,
              z_jitter: float = 0.0) -> Polyline:
    """Closed polyline with the given nonzero winding about the z-axis.

    Azimuth increments are kept well under pi (resolvable winding) and
    radii at or above rho_lo; the increment cap also keeps every chord's
    closest approach to the axis above ~0.7*rho_lo.
    """
    assert winding != 0
    m = rng.randrange(6 * abs(winding) + 7, 9 * abs(winding) + 16)
    weights = [rng.uniform(0.8, 1.2) for _ in range(m)]
    scale = (2.0 * math.pi * winding) / math.fsum(weights)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    vertices = []
    for w in weights:
        rho = rng.uniform(rho_lo, rho_hi)
        z = rng.uniform(-z_jitter, z_jitter) if z_jitter else 0.0
        vertices.append(Point(rho * math.cos(phi), rho * math.sin(phi), z))
        phi += w * scale
    return Polyline(tuple(vertices))


def offset_loop(rng: random.Random, R: float) -> Polyline:
    """Closed polyline in the exterior region that does not enclose the axis."""
    cx = rng.uniform(2.5, 4.0) * R
    m = rng.randrange(4, 9)
    start = rng.uniform(0.0, 2.0 * math.pi)
    angles = sorted(start + rng.uniform(0.0, 2.0 * math.pi) for _ in range(m))
    vertices = []
    for a in angles:
        r = rng.uniform(0.2, 0.8) * R
        vertices.append(Point(cx + r * math.cos(a), r * math.sin(a), 0.0))
    return Polyline(tuple(vertices))


def exterior_circle(rng: random.Random, f: SolenoidField, turns: int) -> Circle:
    """Axis-centered exterior circle with the given turn count."""
    return Circle(Point(0.0, 0.0, 0.0), rng.uniform(1.5, 6.0) * f.R, turns)


def random_exterior_loop(rng: random.Random, f: SolenoidField, winding: int):
    """Circle or polyline in the exterior region with the given winding."""
    if winding == 0:
        if rng.random() < 0.5:
            return Circle(Point(3.0 * f.R, 0.0, 0.0), 0.8 * f.R, rng.choice((-2, -1, 1, 2)))
        return offset_loop(rng, f.R)
    if rng.random() < 0.5:
        return exterior_circle(rng, f, winding)
    return star_loop(rng, winding, 2.0 * f.R, 5.0 * f.R,
                     z_jitter=0.5 * f.R if rng.random() < 0.3 else 0.0)


#: JSON numbers, including the ones a loader must refuse: non-finite
#: floats (written as NaN/Infinity), fractions where an integer belongs,
#: and integers beyond float range
json_numbers = st.one_of(st.integers(), st.floats(), st.sampled_from((10**400, -10**400)))

#: any JSON value
json_values = st.recursive(
    st.none() | st.booleans() | json_numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=8,
)


def result_or_none(call, *args):
    """call(*args), or None when it raised one of the errors the CLI maps
    to an exit status."""
    try:
        return call(*args)
    except (ValueError, AbfluxError):
        return None


def python_env() -> dict:
    """The environment of a fresh interpreter that imports the abflux
    package this process imported."""
    paths = (str(Path(abflux.__file__).parent.parent), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run_python(*args):
    """Stdout of a fresh interpreter, run with args, in python_env()."""
    result = subprocess.run([sys.executable, *args],
                            capture_output=True, text=True, check=True, env=python_env())
    return result.stdout
