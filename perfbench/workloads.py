"""The three benchmark workloads and their seeded input generators.

Every workload draws a fixed pool of operations from ``random.Random(seed)``
during set-up and then visits it in rounds, so the same seed gives the
same operations in the same order and a run's mix does not depend on its
length.  Library functions are looked up on their modules at call time,
which lets the tracer's wrappers see every call.

* ``stokes-sweep``: verify_stokes + flux_direct + chart_audit on random
  (B, R, kappa, L) at the default QuadratureSpec.  Centred one-turn
  circles only: seed panels and no splits.  Isolates the kernel,
  sector_flux and the 8 circulations per operation.
* ``loop-phase``: winding_number + circulation + holonomy on multi-turn
  circles, off-centre and interior circles and 8-256 vertex polylines,
  half of them at rel_tol=1e-12.  Split-heavy, many pieces, no stokes.
* ``cli-mix``: ``python -m abflux`` subprocesses, one at a time, over
  every subcommand; interpreter start-up and import dominate.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
from abflux import cli, geometry, phase, stokes
from abflux.fields import Point, SolenoidField
from abflux.geometry import Circle, Polyline, QuadratureSpec

TWO_PI = 2.0 * math.pi
DEFAULT = QuadratureSpec()
FINE = QuadratureSpec(rel_tol=1e-12)
POOL = 512
CLI_POOL = 204  # 12 invocations of each of the 17 kinds


def random_field(rng) -> tuple[float, float]:
    """(B, R) with O(1) magnitudes, as in the test suite's generators."""
    return rng.choice((-1, 1)) * rng.uniform(0.3, 3.0), rng.uniform(0.4, 2.2)


def random_gamma(rng) -> float:
    return rng.choice((-1, 1)) * rng.uniform(0.2, 2.5)


def segment_min_rho(p: Point, q: Point) -> float:
    """Closest approach of the xy-projected segment p-q to the z-axis."""
    dx, dy = q.x - p.x, q.y - p.y
    dd = dx * dx + dy * dy
    t = 0.0 if dd == 0.0 else min(1.0, max(0.0, -(p.x * dx + p.y * dy) / dd))
    return math.hypot(p.x + t * dx, p.y + t * dy)


def star_polyline(rng, R: float, winding: int, vertices: int) -> Polyline:
    """Closed polyline winding ``winding`` times around the axis outside
    the solenoid, with vertices at rho in [1.3R, 4R] and z in [-R, R].

    Azimuth steps stay below 9.5*|winding|/vertices radians, so the
    winding is resolvable and every chord keeps clear of rho = R.
    """
    weights = [rng.uniform(0.8, 1.2) for _ in range(vertices)]
    step = TWO_PI * winding / math.fsum(weights)
    phi = rng.uniform(0.0, TWO_PI)
    points = []
    for w in weights:
        rho = rng.uniform(1.3, 4.0) * R
        points.append(Point(rho * math.cos(phi), rho * math.sin(phi),
                            rng.uniform(-R, R)))
        phi += w * step
    for a, b in zip(points, points[1:] + points[:1]):
        if segment_min_rho(a, b) < 1.01 * R:
            raise RuntimeError("generated polyline comes too close to the solenoid")
    return Polyline(tuple(points))


def polyline_winding(rng, vertices: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, min(3, max(1, vertices // 32)))


# ---------------------------------------------------------------- stokes-sweep

@dataclass(frozen=True)
class StokesOp:
    field: SolenoidField
    L: float

    def run(self):
        return (stokes.verify_stokes(self.field, self.L),
                geometry.flux_direct(self.field, self.L),
                stokes.chart_audit(self.field, self.L))

    def check(self, result) -> list[oracle.Check]:
        report, flux, audit = result
        B, R, gamma = self.field.B, self.field.R, self.field.gamma
        return [
            *oracle.stokes_checks(B, R, gamma, self.L, DEFAULT, report.phi_1,
                                  report.phi_2, report.phi_total, report.circ_outer,
                                  report.circ_inner, report.discrepancy),
            oracle.flux_check(B, R, self.L, flux, DEFAULT),
            oracle.chart_audit_check(audit, DEFAULT),
        ]


def stokes_pool(rng) -> list[StokesOp]:
    ops = []
    for _ in range(POOL):
        B, R = random_field(rng)
        kappa = rng.uniform(-2.0, 2.0)
        field = SolenoidField(B=B, R=R, gamma=0.5 * B * R * R + kappa)
        ops.append(StokesOp(field, R * rng.uniform(1.2, 8.0)))
    return ops


# ------------------------------------------------------------------ loop-phase

@dataclass(frozen=True)
class LoopOp:
    field: SolenoidField
    path: Circle | Polyline
    q: float
    spec: QuadratureSpec
    winding: int        # analytic winding number
    circ: float         # analytic circulation
    scale: float        # scale of the circulation
    phase_turns: float  # analytic loop phase / 2*pi

    def run(self):
        return (geometry.winding_number(self.path),
                geometry.circulation(self.field, self.path, self.spec),
                phase.holonomy(self.field, self.path, self.q, self.spec))

    def check(self, result) -> list[oracle.Check]:
        w, circ, factor = result
        return [
            oracle.exact("geometry.winding_number", w, self.winding),
            oracle.against("geometry.circulation", circ, self.circ, self.scale,
                           self.spec),
            oracle.angle_against("phase.holonomy", factor.angle, self.phase_turns,
                                 abs(self.q) * self.scale, self.spec),
        ]


def loop_op(rng, kind: int, size: int, spec: QuadratureSpec) -> LoopOp:
    """One loop of the given kind; ``size`` sets its work: turns of a
    circle or vertices of a polyline."""
    B, R = random_field(rng)
    gamma = random_gamma(rng)
    field = SolenoidField(B=B, R=R, gamma=gamma)
    q = rng.choice((1.0, -1.0 / 3.0, 2.0 / 3.0))
    cz = rng.uniform(-R, R)
    sign = rng.choice((-1, 1))
    if kind == 0:  # centred exterior circle
        w = sign * size
        path = Circle(Point(0.0, 0.0, cz), rng.uniform(1.5, 6.0) * R, w)
    elif kind == 1:  # off-centre exterior circle that misses the axis
        d, a = rng.uniform(2.5, 4.0) * R, rng.uniform(0.0, TWO_PI)
        path = Circle(Point(d * math.cos(a), d * math.sin(a), cz),
                      rng.uniform(0.2 * R, d - 1.2 * R), sign * size)
        w = 0
    elif kind == 2:  # interior circle, enclosing the axis or not
        r = rng.uniform(0.1, 0.6) * R
        d, a = rng.uniform(0.0, 0.9 * R - r), rng.uniform(0.0, TWO_PI)
        turns = sign * size
        path = Circle(Point(d * math.cos(a), d * math.sin(a), cz), r, turns)
        circ = B * math.pi * r * r * turns
        return LoopOp(field, path, q, spec, turns if d < r else 0, circ,
                      abs(circ), q * B * r * r * turns / 2.0)
    else:  # polyline varying in z
        w = polyline_winding(rng, size)
        path = star_polyline(rng, R, w, size)
    return LoopOp(field, path, q, spec, w, TWO_PI * gamma * w,
                  oracle.exterior_scale(gamma, w), q * gamma * w)


#: work sizes per loop kind: turns of centred, off-centre and interior
#: circles, and polyline vertex counts
LOOP_SIZES = (range(1, 33), range(1, 5), range(1, 9), range(8, 257, 2))


def stratified(rng, values, count: int) -> list:
    """``count`` draws that use every value equally often, in seeded order."""
    draws = [values[i % len(values)] for i in range(count)]
    rng.shuffle(draws)
    return draws


def loop_pool(rng) -> list[LoopOp]:
    # kinds rotate, each kind alternates between the two specs, and work
    # sizes are stratified, so every seed's pool has the same mix of work
    kinds = len(LOOP_SIZES)
    sizes = [stratified(rng, values, POOL // kinds) for values in LOOP_SIZES]
    return [loop_op(rng, i % kinds, sizes[i % kinds][i // kinds],
                    FINE if (i // kinds) % 2 else DEFAULT)
            for i in range(POOL)]


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def loop_calibration_s() -> float:
    """Time of a fixed pure-Python loop that shares no code with abflux:
    object creation, attribute access and math calls, as in its kernel.
    On a 2-vCPU x86-64 VM under Python 3.11, the ratio of a verify_stokes
    call to this loop stayed within 5% while both varied 2x."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(600):
        cell = _Cell(math.cos(i * 0.01), math.sin(i * 0.01))
        acc += math.hypot(cell.x, cell.y) * (i % 7)
    return time.perf_counter() - start


class PoolWorkload:
    """A seeded pool of in-process operations, visited in rounds.

    Each round runs every operation once, in its own seeded order, so an
    operation's repeats fall at different times of the run.
    """

    stdout_bytes = 0
    child_peak_kb = 0
    #: speed calibration (see run.Speed): the loop before every operation,
    #: which takes calibration_ref_s at the reference speed
    calibration_ref_s = 0.27e-3
    calibration_every = 1

    def __init__(self, pool, rng):
        self.pool = pool
        self.order_seed = rng.getrandbits(64)

    def stream(self):
        """Endless (pool index, operation) pairs; restarts identically."""
        rng = random.Random(self.order_seed)
        order = list(range(len(self.pool)))
        while True:
            rng.shuffle(order)
            for i in order:
                yield i, self.pool[i]

    def calibration_s(self) -> float:
        return loop_calibration_s()

    def call(self, op):
        return op.run()

    call_inprocess = call

    def grade(self, op, result) -> list[oracle.Check]:
        return op.check(result)


# --------------------------------------------------------------------- cli-mix

@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expect: Callable[[str], list[oracle.Check]]  # stdout -> checks


class CliFailed(Exception):
    """A CLI call exited nonzero."""


def _scalar(quantity, expected, scale, spec, out):
    return [oracle.against(quantity, float(out), expected, scale, spec)]


def _angle(turns, scale, spec, out):
    return [oracle.angle_against("phase.phase", float(out), turns, scale, spec)]


def _stokes(B, R, gamma, L, spec, out):
    data = json.loads(out)
    return [*oracle.stokes_checks(B, R, gamma, L, spec, data["phi_1"], data["phi_2"],
                                  data["phi_total"], data["circ_outer"],
                                  data["circ_inner"], data["discrepancy"]),
            oracle.exact("stokes.config", data["config"],
                         {"field": {"B": B, "R": R, "gamma": gamma}, "L": L})]


def _rows(expected, fmt, out):
    if fmt == "csv":
        lines = out.splitlines()
        header = oracle.exact("phase.interference_header", lines[0], "x,intensity")
        got = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        return [header, oracle.rows_check(got, expected)]
    return [oracle.rows_check([tuple(row) for row in json.loads(out)], expected)]


def _json_value(quantity, expected, out):
    return [oracle.exact(quantity, json.loads(out), expected)]


def _field_flags(B, R, gamma=None, kappa=None) -> list[str]:
    flags = [f"--B={B!r}", f"--R={R!r}"]
    if gamma is not None:
        flags.append(f"--gamma={gamma!r}")
    if kappa is not None:
        flags.append(f"--kappa={kappa!r}")
    return flags


def _circle_spec(c: Circle) -> str:
    return (f"r={c.radius!r},turns={c.turns},cx={c.center.x!r},"
            f"cy={c.center.y!r},cz={c.center.z!r}")


def _charge(rng, max_den: int = 6) -> str:
    d = rng.randint(1, max_den)
    n = rng.randint(-2 * d, 2 * d) or 1
    return f"{n}/{d}" if d > 1 else str(n)


class CliGenerator:
    """Draws one invocation of each kind in turn, writing its input files."""

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.files = itertools.count()
        self.kinds = [
            self.circulation_circle, self.circulation_polyline,
            self.circulation_circle_json, self.flux, self.flux_config,
            self.stokes_kappa, self.stokes_config, self.chart_audit,
            self.phase_closed_form, self.phase_circle, self.phase_polyline,
            self.interfere_csv, self.interfere_json, self.quantize_check,
            self.quantize_spectrum, self.quantize_infer, self.quantize_kappa,
        ]

    def pool(self, size: int) -> list[CliOp]:
        return [self.kinds[i % len(self.kinds)]() for i in range(size)]

    def write(self, suffix: str, text: str) -> str:
        path = self.workdir / f"input-{next(self.files)}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def write_config(self, B, R, gamma, spec: QuadratureSpec, fmt=None) -> str:
        config = {"field": {"B": B, "R": R, "gamma": gamma},
                  "quadrature": {"rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol,
                                 "max_subdivisions": spec.max_subdivisions}}
        if fmt is not None:
            config["format"] = fmt
        return self.write(".json", json.dumps(config))

    def field(self):
        B, R = random_field(self.rng)
        return B, R, random_gamma(self.rng)

    def circulation_circle(self):
        rng = self.rng
        B, R, gamma = self.field()
        w = rng.choice((-1, 1)) * rng.randint(1, 4)
        circle = Circle(Point(0.0, 0.0, rng.uniform(-R, R)),
                        rng.uniform(1.5, 6.0) * R, w)
        argv = ("circulation", *_field_flags(B, R, gamma), "--circle",
                f"r={circle.radius!r},cz={circle.center.z!r}", f"--turns={w}")
        return CliOp(argv, partial(_scalar, "geometry.circulation", TWO_PI * gamma * w,
                                   oracle.exterior_scale(gamma, w), DEFAULT))

    def circulation_polyline(self):
        rng = self.rng
        B, R, gamma = self.field()
        vertices = rng.randint(8, 64)
        w = polyline_winding(rng, vertices)
        loop = star_polyline(rng, R, w, vertices)
        rows = ["x,y,z"] + [f"{p.x!r},{p.y!r},{p.z!r}" for p in loop.vertices]
        path = self.write(".csv", "\n".join(rows) + "\n")
        argv = ("circulation", *_field_flags(B, R, gamma), "--polyline", path)
        return CliOp(argv, partial(_scalar, "geometry.circulation", TWO_PI * gamma * w,
                                   oracle.exterior_scale(gamma, w), DEFAULT))

    def circulation_circle_json(self):
        rng = self.rng
        B, R, gamma = self.field()
        r = rng.uniform(0.1, 0.6) * R
        d, a = rng.uniform(0.0, 0.9 * R - r), rng.uniform(0.0, TWO_PI)
        turns = rng.choice((-1, 1)) * rng.randint(1, 4)
        center = [d * math.cos(a), d * math.sin(a), rng.uniform(-R, R)]
        path = self.write(".json", json.dumps(
            {"center": center, "radius": r, "turns": turns}))
        circ = B * math.pi * r * r * turns
        argv = ("circulation", *_field_flags(B, R, gamma), "--circle-json", path)
        return CliOp(argv, partial(_scalar, "geometry.circulation", circ, abs(circ),
                                   DEFAULT))

    def flux(self):
        rng = self.rng
        B, R, gamma = self.field()
        L = R * (rng.uniform(0.3, 0.9) if rng.random() < 0.25 else rng.uniform(1.2, 8.0))
        expected = oracle.flux_expected(B, R, L)
        argv = ("flux", *_field_flags(B, R, gamma), f"--L={L!r}")
        return CliOp(argv, partial(_scalar, "geometry.flux_direct", expected,
                                   abs(expected), DEFAULT))

    def flux_config(self):
        rng = self.rng
        B, R, gamma = self.field()
        L = R * rng.uniform(1.2, 8.0)
        spec = QuadratureSpec(rel_tol=1e-10)
        expected = oracle.flux_expected(B, R, L)
        argv = ("flux", "--config", self.write_config(B, R, gamma, spec), f"--L={L!r}")
        return CliOp(argv, partial(_scalar, "geometry.flux_direct", expected,
                                   abs(expected), spec))

    def stokes_kappa(self):
        rng = self.rng
        B, R = random_field(rng)
        kappa = rng.uniform(-2.0, 2.0)
        L = R * rng.uniform(1.2, 8.0)
        argv = ("stokes", *_field_flags(B, R, kappa=kappa), f"--L={L!r}")
        return CliOp(argv, partial(_stokes, B, R, 0.5 * B * R * R + kappa, L, DEFAULT))

    def stokes_config(self):
        rng = self.rng
        B, R, gamma = self.field()
        L = R * rng.uniform(1.2, 8.0)
        spec = QuadratureSpec(rel_tol=1e-10)
        argv = ("stokes", "--config", self.write_config(B, R, gamma, spec), f"--L={L!r}")
        return CliOp(argv, partial(_stokes, B, R, gamma, L, spec))

    def chart_audit(self):
        rng = self.rng
        B, R, gamma = self.field()
        L = R * rng.uniform(1.3, 6.0)
        argv = ("chart-audit", *_field_flags(B, R, gamma), f"--L={L!r}")
        return CliOp(argv, partial(_scalar, "stokes.chart_audit", 0.0,
                                   oracle.CHART_AUDIT_SCALE, DEFAULT))

    def phase_closed_form(self):
        rng = self.rng
        gamma, q = random_gamma(rng), rng.choice((1.0, -1.0 / 3.0, 2.0 / 3.0))
        w = rng.randint(-3, 3)
        argv = ("phase", f"--q={q!r}", f"--gamma={gamma!r}", f"--w={w}")
        return CliOp(argv, partial(_angle, q * gamma * w,
                                   abs(q) * oracle.exterior_scale(gamma, w), DEFAULT))

    def phase_circle(self):
        rng = self.rng
        B, R, gamma = self.field()
        q = rng.choice((1.0, -1.0 / 3.0, 2.0 / 3.0))
        w = rng.choice((-1, 1)) * rng.randint(1, 4)
        circle = Circle(Point(0.0, 0.0, 0.0), rng.uniform(1.5, 6.0) * R, w)
        argv = ("phase", f"--q={q!r}", *_field_flags(B, R, gamma),
                "--circle", _circle_spec(circle))
        return CliOp(argv, partial(_angle, q * gamma * w,
                                   abs(q) * oracle.exterior_scale(gamma, w), DEFAULT))

    def phase_polyline(self):
        rng = self.rng
        B, R, gamma = self.field()
        q = rng.choice((1.0, -1.0 / 3.0, 2.0 / 3.0))
        vertices = rng.randint(8, 64)
        w = polyline_winding(rng, vertices)
        loop = star_polyline(rng, R, w, vertices)
        path = self.write(".csv", "".join(f"{p.x!r},{p.y!r},{p.z!r}\n"
                                          for p in loop.vertices))
        argv = ("phase", f"--q={q!r}", *_field_flags(B, R, gamma), "--polyline", path)
        return CliOp(argv, partial(_angle, q * gamma * w,
                                   abs(q) * oracle.exterior_scale(gamma, w), DEFAULT))

    def _interfere(self, fmt: str):
        rng = self.rng
        gamma, q = random_gamma(rng), rng.choice((1.0, -1.0 / 3.0, 2.0 / 3.0))
        slit, screen = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        extent, samples = rng.uniform(1.0, 4.0), rng.randint(11, 201)
        expected = oracle.interference_rows(q, gamma, slit, screen, math.tau,
                                            extent, samples)
        argv = ["interfere", f"--q={q!r}", f"--gamma={gamma!r}",
                f"--slit-separation={slit!r}", f"--screen-distance={screen!r}",
                f"--half-extent={extent!r}", f"--samples={samples}"]
        if fmt == "json":
            argv.append("--format=json")
        return CliOp(tuple(argv), partial(_rows, expected, fmt))

    def interfere_csv(self):
        return self._interfere("csv")

    def interfere_json(self):
        return self._interfere("json")

    def quantize_check(self):
        charge, N = _charge(self.rng), self.rng.randint(1, 12)
        return CliOp(("quantize", "check", charge, f"--N={N}"),
                     partial(_json_value, "quantize.check",
                             oracle.lattice_contains(charge, N)))

    def quantize_spectrum(self):
        rng = self.rng
        N, n_min = rng.randint(1, 6), rng.randint(-8, 0)
        n_max = rng.randint(n_min, 8)
        return CliOp(("quantize", "spectrum", f"--N={N}", f"--n-min={n_min}",
                      f"--n-max={n_max}"),
                     partial(_json_value, "quantize.spectrum",
                             oracle.lattice_spectrum(N, n_min, n_max)))

    def quantize_infer(self):
        charges = [_charge(self.rng) for _ in range(self.rng.randint(1, 5))]
        return CliOp(("quantize", "infer", *charges),
                     partial(_json_value, "quantize.infer",
                             oracle.lattice_denominator(charges)))

    def quantize_kappa(self):
        kappa_e = _charge(self.rng, max_den=3)
        charges = [_charge(self.rng) for _ in range(self.rng.randint(0, 4))]
        return CliOp(("quantize", "kappa", kappa_e, *charges),
                     partial(_json_value, "quantize.kappa",
                             oracle.kappa_inert(kappa_e, charges)))


class CliMix(PoolWorkload):
    """``python -m abflux`` calls, one at a time; traced in-process.

    Every call is repeated once per round, and its stdout must match the
    first call's byte for byte.
    """

    # a bare interpreter's start-up, before every fourth call, slows like
    # a CLI call does: process start dominates both
    calibration_ref_s = 40e-3
    calibration_every = 4

    def __init__(self, rng, workdir: Path, src: Path):
        super().__init__(CliGenerator(rng, workdir).pool(CLI_POOL), rng)
        self.workdir = workdir
        self.env = {"PATH": os.defpath, "PYTHONPATH": str(src),
                    "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
        self.digests: dict[tuple[str, ...], str] = {}
        self.stdout_bytes = 0  # over all graded calls
        self.child_peak_kb = 0  # largest peak RSS of one CLI process

    def calibration_s(self) -> float:
        """Run time of a bare interpreter."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.workdir,
                       check=True)
        return time.perf_counter() - start

    def call(self, op: CliOp):
        # reaped with wait4 for the child's own peak RSS; stderr goes to a
        # file so a long error message cannot block the stdout pipe
        with tempfile.TemporaryFile(dir=self.workdir) as err_file:
            with subprocess.Popen([sys.executable, "-m", "abflux", *op.argv],
                                  env=self.env, cwd=self.workdir,
                                  stdout=subprocess.PIPE, stderr=err_file) as proc:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err_file.seek(0)
            err = err_file.read()
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def call_inprocess(self, op: CliOp):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def grade(self, op: CliOp, result) -> list[oracle.Check]:
        code, out, err = result
        if code != 0:
            raise CliFailed(f"exit {code}: {err.decode(errors='replace')[:200]}")
        self.stdout_bytes += len(out)
        digest = hashlib.sha256(out).hexdigest()
        first = self.digests.setdefault(op.argv, digest)
        return [*op.expect(out.decode()), oracle.exact("cli.stdout_repeat", digest, first)]


def make(name: str, seed: int, workdir: Path, src: Path):
    rng = random.Random(seed)
    if name == "stokes-sweep":
        return PoolWorkload(stokes_pool(rng), rng)
    if name == "loop-phase":
        return PoolWorkload(loop_pool(rng), rng)
    if name == "cli-mix":
        return CliMix(rng, workdir, src)
    raise ValueError(f"unknown workload {name!r}")
