"""Command-line front end: one subcommand per library operation.

Subcommands
    circulation   line integral of the potential around a closed path
    flux          magnetic flux through a disc centered on the axis
    stokes        per-region flux / circulation report for the split disc
    chart-audit   two-sector recomputation error for the annulus flux
    phase         loop phase angle (closed form, or from a path)
    interfere     two-beam fringe pattern carrying the loop phase
    quantize      exact charge-lattice operations (check|spectrum|infer|kappa)

Field parameters come from ``--config file.json`` and/or flags; flags
win.  The config envelope is
``{"field": {"B":..,"R":..,"gamma":..}, "quadrature": {...}}``; any
other key, in the envelope or in a section, is a ValueError for every
field command, whether or not it reads that section.  ``main`` reads
the settings once, file and flags together, resolves field and
quadrature spec from them and passes both to the command.
Scalars print with 12 significant digits.  Domain errors exit nonzero
with the error-class name on stderr; identical inputs always produce
byte-identical output.

A process builds and loads only what its subcommand runs: ``main`` gives
that command alone its arguments (build_parser), and each command
function and parsing helper imports the library layers it uses; only the
standard library and ``errors`` load with this module.  So ``quantize``
and the closed-form ``phase`` never load the quadrature engine,
``circulation`` never loads ``fractions``, only path files load
``loaders``, ``csv`` and ``pathlib``, and only a command that reads or
prints JSON loads ``json``.  The value types are immutable slotted records
(``abflux._record``), not dataclasses, so only ``stokes`` and
``chart-audit``, whose report is a dataclass, load ``dataclasses`` and
the ``inspect`` module it imports.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .errors import AbfluxError

TYPE_CHECKING = False

if TYPE_CHECKING:
    from .fields import QuadratureSpec, SolenoidField
    from .geometry import Circle


def _print_json(value, indent: int | None = None) -> None:
    import json

    print(json.dumps(value, indent=indent))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _field_args(parser, func, quad: bool = True, path: bool = False) -> None:
    """Give a field command's parser --config and the field flags, then the
    quadrature flags and the path flags when asked, in that order."""
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON config {field, quadrature}; flags override it",
    )
    group = parser.add_argument_group("field")
    group.add_argument("--B", type=float, default=None,
                       help="axial field strength inside the solenoid (default 0)")
    group.add_argument("--R", type=float, default=None,
                       help="solenoid radius, > 0 (default 1)")
    pick = group.add_mutually_exclusive_group()
    pick.add_argument("--gamma", type=float, default=None,
                      help="exterior circulation / 2*pi (default B*R**2/2)")
    pick.add_argument("--kappa", type=float, default=None,
                      help="offset from the flux-matching value: gamma = B*R**2/2 + kappa")
    if quad:
        group = parser.add_argument_group("quadrature")
        group.add_argument("--rel-tol", type=float, default=None)
        group.add_argument("--abs-tol", type=float, default=None)
        group.add_argument("--max-subdivisions", type=_inline_int, default=None)
    if path:
        group = parser.add_argument_group("path")
        group.add_argument("--circle", default=None, metavar="SPEC",
                           help='inline circle, e.g. "r=3" or "r=3,turns=2,cx=0,cy=0,cz=0"')
        group.add_argument("--turns", type=_inline_int, default=None,
                           help="turn count for --circle (default 1); not with an "
                                "inline turns=, --circle-json or --polyline")
        group.add_argument("--circle-json", default=None, metavar="FILE",
                           help='circle from JSON {"center":[x,y,z],"radius":r,"turns":n}')
        group.add_argument("--polyline", default=None, metavar="FILE",
                           help='closed polyline from CSV rows "x,y,z"')
    parser.set_defaults(func=func)


#: config section -> its keys, each also a flag of the field commands
_SECTIONS = {"field": ("B", "R", "gamma"),
             "quadrature": ("rel_tol", "abs_tol", "max_subdivisions")}


def _settings(args: argparse.Namespace) -> dict:
    """The config file's envelope and both sections checked once, so every
    field command refuses the same files, whatever it reads; then the two
    sections in one mapping, with every flag that was given laid over it."""
    from .fields import _parse_json, _require_known

    config = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as file:
            config = _parse_json(file.read())
        _require_known(config, tuple(_SECTIONS), "config")
    settings, flags = {}, vars(args)
    for key, names in _SECTIONS.items():
        section = config.get(key, {})
        _require_known(section, names, f"config {key!r}")
        settings.update(section)
        settings.update((name, flags[name]) for name in names if flags.get(name) is not None)
    return settings


def _resolve_field(args: argparse.Namespace, settings: dict) -> SolenoidField:
    from .fields import SolenoidField, _json_float

    B = _json_float(settings.get("B", 0.0), "field B")
    R = _json_float(settings.get("R", 1.0), "field R")
    if args.kappa is not None:
        gamma = 0.5 * B * R * R + args.kappa
    elif "gamma" in settings:
        gamma = _json_float(settings["gamma"], "field gamma")
    else:
        gamma = 0.5 * B * R * R
    return SolenoidField(B=B, R=R, gamma=gamma)


def _resolve_quadrature(settings: dict) -> QuadratureSpec:
    from .fields import _DEFAULT_SPEC, QuadratureSpec, _json_float, _json_int

    base = _DEFAULT_SPEC
    return QuadratureSpec(
        rel_tol=_json_float(settings.get("rel_tol", base.rel_tol), "rel_tol"),
        abs_tol=_json_float(settings.get("abs_tol", base.abs_tol), "abs_tol"),
        max_subdivisions=_json_int(settings.get("max_subdivisions", base.max_subdivisions),
                                   "max_subdivisions"),
    )


_CIRCLE_KEYS = {"r", "turns", "cx", "cy", "cz"}


def _inline_int(text: str) -> int:
    """An int, or an integral float ("2.0") as a circle file's turns and a
    config's max_subdivisions may be; int() goes first, so a long integer
    keeps every digit."""
    try:
        return int(text)
    except ValueError:
        number = float(text)
        if number.is_integer():
            return int(number)
        raise


_inline_int.__name__ = "int"  # a flag's argparse error: "invalid int value: '2.5'"


def _parse_circle_inline(text: str, turns_flag: int | None) -> Circle:
    from .fields import Point
    from .geometry import Circle

    fields: dict[str, str] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _CIRCLE_KEYS:
            raise ValueError(f"bad circle spec item {item!r}; keys are {sorted(_CIRCLE_KEYS)}")
        if key in fields:
            raise ValueError(f"circle spec {text!r} gives {key!r} more than once")
        fields[key] = value.strip()
    if "r" not in fields:
        raise ValueError(f"circle spec {text!r} is missing r=<radius>")
    if "turns" in fields and turns_flag is not None:
        raise ValueError("give the turn count once: inline turns= or --turns, not both")

    def value(key: str, convert, default):
        try:
            return convert(fields[key]) if key in fields else default
        except ValueError:
            kind = "a number" if convert is float else "an integer"
            raise ValueError(f"circle {key} must be {kind}, got {fields[key]!r}") from None

    turns = value("turns", _inline_int, turns_flag if turns_flag is not None else 1)
    center = Point(value("cx", float, 0.0), value("cy", float, 0.0), value("cz", float, 0.0))
    return Circle(center=center, radius=value("r", float, None), turns=turns)


def _resolve_path(args: argparse.Namespace):
    chosen = [name for name, value in (
        ("--circle", args.circle),
        ("--circle-json", args.circle_json),
        ("--polyline", args.polyline),
    ) if value is not None]
    if len(chosen) != 1:
        raise ValueError("specify exactly one of --circle, --circle-json, --polyline")
    if args.circle is not None:
        return _parse_circle_inline(args.circle, args.turns)
    if args.turns is not None:
        raise ValueError("--turns applies to an inline --circle, "
                         "not to --circle-json or --polyline")
    from .loaders import load_circle_json, load_polyline_csv

    if args.polyline is not None:
        return load_polyline_csv(args.polyline)
    return load_circle_json(args.circle_json)


def _cmd_circulation(args: argparse.Namespace, field, spec) -> None:
    from .geometry import circulation

    print(_fmt(circulation(field, _resolve_path(args), spec)))


def _cmd_flux(args: argparse.Namespace, field, spec) -> None:
    from .geometry import flux_direct

    print(_fmt(flux_direct(field, args.L, spec)))


def _cmd_stokes(args: argparse.Namespace, field, spec) -> None:
    from .stokes import verify_stokes

    report = verify_stokes(field, args.L, spec).to_dict()
    data = {key: _round12(v) if isinstance(v, float) else v for key, v in report.items()}
    _print_json(data, indent=2)


def _cmd_chart_audit(args: argparse.Namespace, field, spec) -> None:
    from .stokes import chart_audit

    print(_fmt(chart_audit(field, args.L, spec)))


def _cmd_phase(args: argparse.Namespace, field, spec) -> None:
    from .phase import holonomy, phase_closed_form

    path_given = any(v is not None
                     for v in (args.circle, args.circle_json, args.polyline, args.turns))
    if path_given:
        path = _resolve_path(args)
        if args.w is not None:
            raise ValueError("--w applies to the closed form, not to a path")
        factor = holonomy(field, path, args.q, spec)
    else:
        factor = phase_closed_form(args.q, field.gamma, 1 if args.w is None else args.w)
    print(_fmt(factor.angle))


def _cmd_interfere(args: argparse.Namespace, field, spec) -> None:
    from .phase import InterferometerGeometry, interference, interference_csv

    geom = InterferometerGeometry(
        slit_separation=args.slit_separation,
        screen_distance=args.screen_distance,
        wavenumber=args.wavenumber,
        half_extent=args.half_extent,
        samples=args.samples,
    )
    rows = interference(field, args.q, geom)
    if args.format == "csv":
        sys.stdout.write(interference_csv(rows))
    else:
        _print_json([[_round12(x), _round12(i)] for x, i in rows])


def _cmd_quantize_check(args: argparse.Namespace) -> None:
    from .quantize import ChargeSpectrum, RationalCharge, charge_allowed

    ok = charge_allowed(RationalCharge.parse(args.charge), ChargeSpectrum(args.N))
    _print_json(ok)


def _cmd_quantize_spectrum(args: argparse.Namespace) -> None:
    from .quantize import ChargeSpectrum, spectrum

    charges = spectrum(ChargeSpectrum(args.N), args.n_min, args.n_max)
    _print_json([str(c) for c in charges])


def _cmd_quantize_infer(args: argparse.Namespace) -> None:
    from .quantize import RationalCharge, _require_printable, infer_minimal_N

    lattice = infer_minimal_N([RationalCharge.parse(c) for c in args.charges])
    _require_printable(lattice.N, f"N inferred from {' '.join(args.charges)}")
    print(lattice.N)


def _cmd_quantize_kappa(args: argparse.Namespace) -> None:
    from .quantize import RationalCharge, kappa_allowed, kappa_constraints

    kappa_e = RationalCharge.parse(args.kappa_e)
    if args.charges:
        ok = kappa_constraints([RationalCharge.parse(c) for c in args.charges], kappa_e)
    else:
        ok = kappa_allowed(kappa_e)
    _print_json(ok)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or one in which only the named command has its
    arguments: the others keep just their help, so usage, --help and
    errors read the same.  A name that is no command gets them all."""
    parser = argparse.ArgumentParser(
        prog="abflux",
        description="Solenoid potentials: circulations, split-disc flux reports, "
                    "loop phases, fringe patterns, and exact charge lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    built = {name: sub.add_parser(name, help=help) for name, help in (
        ("circulation", "circulation of the potential around a closed path"),
        ("flux", "flux through a disc of radius L centered on the axis"),
        ("stokes", "flux/circulation report for the disc split at rho = R"),
        ("chart-audit", "two-sector recomputation error for the annulus flux"),
        ("phase", "loop phase angle in [0, 2*pi)"),
        ("interfere", "two-beam fringe pattern as x,intensity rows"),
        ("quantize", "exact charge-lattice arithmetic"),
    )}
    built = {command: built[command]} if command in built else built

    if p := built.get("circulation"):
        _field_args(p, _cmd_circulation, path=True)
    if p := built.get("flux"):
        _field_args(p, _cmd_flux)
        p.add_argument("--L", type=float, required=True, help="disc radius")
    for name, func in (("stokes", _cmd_stokes), ("chart-audit", _cmd_chart_audit)):
        if p := built.get(name):
            _field_args(p, func)
            p.add_argument("--L", type=float, required=True, help="outer disc radius (> R)")

    if p := built.get("phase"):
        _field_args(p, _cmd_phase, path=True)
        p.add_argument("--q", type=float, required=True,
                       help="charge of the transported wave function")
        p.add_argument("--w", type=int, default=None,
                       help="winding number for the closed form (default 1); not with a path")

    if p := built.get("interfere"):
        _field_args(p, _cmd_interfere, quad=False)
        p.add_argument("--q", type=float, required=True, help="charge of the interfering beam")
        p.add_argument("--slit-separation", type=float, default=1.0)
        p.add_argument("--screen-distance", type=float, default=1.0)
        p.add_argument("--wavenumber", type=float, default=math.tau)
        p.add_argument("--half-extent", type=float, default=2.5)
        p.add_argument("--samples", type=int, default=201, help="screen samples, 2 to 1000000")
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="output format (default csv)")

    if p := built.get("quantize"):
        # accept "-1/3" and friends as positional values, not option strings
        negative = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
        qsub = p.add_subparsers(dest="quantize_command", required=True)

        qp = qsub.add_parser("check", help="is charge p/d on the lattice with denominator N?")
        qp.add_argument("charge", help='charge as "p/d" or "p", in units of e')
        qp.add_argument("--N", type=int, required=True, help="lattice denominator")
        qp._negative_number_matcher = negative
        qp.set_defaults(func=_cmd_quantize_check)

        qp = qsub.add_parser("spectrum",
                             help="list charges n/N for n in [n-min, n-max], at most 1000000")
        qp.add_argument("--N", type=int, required=True)
        qp.add_argument("--n-min", type=int, required=True)
        qp.add_argument("--n-max", type=int, required=True)
        qp.set_defaults(func=_cmd_quantize_spectrum)

        qp = qsub.add_parser("infer", help="smallest N accommodating all given charges")
        qp.add_argument("charges", nargs="+", help='charges as "p/d" or "p"')
        qp._negative_number_matcher = negative
        qp.set_defaults(func=_cmd_quantize_infer)

        qp = qsub.add_parser("kappa", help="is kappa*e allowed (alone, or against a charge set)?")
        qp.add_argument("kappa_e", help='kappa*e as "p/d" or "p"')
        qp.add_argument("charges", nargs="*", help="optional charges to constrain against")
        qp._negative_number_matcher = negative
        qp.set_defaults(func=_cmd_quantize_kappa)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if "config" in args:  # a field command
            settings = _settings(args)
            field = _resolve_field(args, settings)
            spec = _resolve_quadrature(settings) if "rel_tol" in args else None
            args.func(args, field, spec)
        else:
            args.func(args)
    except (AbfluxError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, AbfluxError) else 2
    return 0
