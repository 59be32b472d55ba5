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
``{"field": {"B":..,"R":..,"gamma":..}, "quadrature": {...}, "format": "json"|"csv"}``.
Scalars print with 12 significant digits.  Domain errors exit nonzero
with the error-class name on stderr; identical inputs always produce
byte-identical output.

Only the standard library and ``errors`` are imported at module level.
Each command function and parsing helper imports the library layers it
uses, so a process loads only what its subcommand needs: ``quantize``
never loads the quadrature engine, and ``circulation`` never loads
``fractions``.  Path files and the config file are read by ``loaders``,
which is imported only when one is given, so an inline circle never
loads ``csv``.  The value types are immutable slotted records
(``abflux._record``), not dataclasses, so only ``stokes`` and
``chart-audit``, whose report is a dataclass, load ``dataclasses`` and
the ``inspect`` module it imports.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .errors import AbfluxError

TYPE_CHECKING = False

if TYPE_CHECKING:
    from .fields import SolenoidField
    from .geometry import Circle, QuadratureSpec

# accept "-1/3" and friends as positional values, not option strings
_NEGATIVE_TOKEN = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON config {field, quadrature, format}; flags override it",
    )


def _add_field_args(parser: argparse.ArgumentParser) -> None:
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


def _add_quad_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("quadrature")
    group.add_argument("--rel-tol", type=float, default=None)
    group.add_argument("--abs-tol", type=float, default=None)
    group.add_argument("--max-subdivisions", type=int, default=None)


def _add_path_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("path")
    group.add_argument("--circle", default=None, metavar="SPEC",
                       help='inline circle, e.g. "r=3" or "r=3,turns=2,cx=0,cy=0,cz=0"')
    group.add_argument("--turns", type=int, default=None,
                       help="turn count for --circle (default 1), or in place of "
                            "--circle-json's; not with an inline turns= or --polyline")
    group.add_argument("--circle-json", type=Path, default=None, metavar="FILE",
                       help='circle from JSON {"center":[x,y,z],"radius":r,"turns":n}')
    group.add_argument("--polyline", type=Path, default=None, metavar="FILE",
                       help='closed polyline from CSV rows "x,y,z"')


def _load_config(args: argparse.Namespace) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    from .loaders import _parse_json

    config = _parse_json(args.config.read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    return config


def _config_section(config: dict, key: str) -> dict:
    data = config.get(key, {})
    if not isinstance(data, dict):
        raise ValueError(f"config {key!r} must be a JSON object, got {type(data).__name__}")
    return dict(data)


def _resolve_field(args: argparse.Namespace, config: dict) -> SolenoidField:
    from .fields import SolenoidField, _json_float

    data = _config_section(config, "field")
    if args.B is not None:
        data["B"] = args.B
    if args.R is not None:
        data["R"] = args.R
    if args.gamma is not None:
        data["gamma"] = args.gamma
    B = _json_float(data.get("B", 0.0), "field B")
    R = _json_float(data.get("R", 1.0), "field R")
    if args.kappa is not None:
        gamma = 0.5 * B * R * R + args.kappa
    elif "gamma" in data:
        gamma = _json_float(data["gamma"], "field gamma")
    else:
        gamma = 0.5 * B * R * R
    return SolenoidField(B=B, R=R, gamma=gamma)


def _resolve_quadrature(args: argparse.Namespace, config: dict) -> QuadratureSpec:
    from .fields import _json_float, _json_int
    from .geometry import _DEFAULT_SPEC, QuadratureSpec

    data = _config_section(config, "quadrature")
    if getattr(args, "rel_tol", None) is not None:
        data["rel_tol"] = args.rel_tol
    if getattr(args, "abs_tol", None) is not None:
        data["abs_tol"] = args.abs_tol
    if getattr(args, "max_subdivisions", None) is not None:
        data["max_subdivisions"] = args.max_subdivisions
    base = _DEFAULT_SPEC
    return QuadratureSpec(
        rel_tol=_json_float(data.get("rel_tol", base.rel_tol), "rel_tol"),
        abs_tol=_json_float(data.get("abs_tol", base.abs_tol), "abs_tol"),
        max_subdivisions=_json_int(data.get("max_subdivisions", base.max_subdivisions),
                                   "max_subdivisions"),
    )


_CIRCLE_KEYS = {"r", "radius", "turns", "cx", "cy", "cz"}


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
        slot = "r" if key == "radius" else key
        if slot in fields:
            raise ValueError(f"circle spec {text!r} gives {key!r} more than once")
        fields[slot] = value.strip()
    if "r" not in fields:
        raise ValueError(f"circle spec {text!r} is missing r=<radius>")
    if "turns" in fields and turns_flag is not None:
        raise ValueError("give the turn count once: inline turns= or --turns, not both")
    turns = int(fields["turns"]) if "turns" in fields else (turns_flag if turns_flag is not None else 1)
    center = Point(
        float(fields.get("cx", 0.0)),
        float(fields.get("cy", 0.0)),
        float(fields.get("cz", 0.0)),
    )
    return Circle(center=center, radius=float(fields["r"]), turns=turns)


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
    if args.polyline is not None and args.turns is not None:
        raise ValueError("--turns applies to a circle, not to --polyline")
    from .geometry import Circle
    from .loaders import load_circle_json, load_polyline_csv

    if args.polyline is not None:
        return load_polyline_csv(args.polyline)
    path = load_circle_json(args.circle_json)
    if args.turns is not None:
        path = Circle(center=path.center, radius=path.radius, turns=args.turns)
    return path


def _output_format(args: argparse.Namespace, config: dict, default: str) -> str:
    fmt = getattr(args, "format", None) or config.get("format") or default
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown output format {fmt!r}")
    return fmt


def _cmd_circulation(args: argparse.Namespace) -> int:
    from .geometry import circulation

    config = _load_config(args)
    field = _resolve_field(args, config)
    quad = _resolve_quadrature(args, config)
    value = circulation(field, _resolve_path(args), quad)
    print(_fmt(value))
    return 0


def _cmd_flux(args: argparse.Namespace) -> int:
    from .geometry import flux_direct

    config = _load_config(args)
    field = _resolve_field(args, config)
    quad = _resolve_quadrature(args, config)
    print(_fmt(flux_direct(field, args.L, quad)))
    return 0


def _cmd_stokes(args: argparse.Namespace) -> int:
    from .stokes import verify_stokes

    config = _load_config(args)
    field = _resolve_field(args, config)
    quad = _resolve_quadrature(args, config)
    report = verify_stokes(field, args.L, quad)
    data = report.to_dict()
    for key in ("phi_1", "phi_2", "phi_total", "circ_outer", "circ_inner", "discrepancy"):
        data[key] = _round12(data[key])
    print(json.dumps(data, indent=2))
    return 0


def _cmd_chart_audit(args: argparse.Namespace) -> int:
    from .stokes import chart_audit

    config = _load_config(args)
    field = _resolve_field(args, config)
    quad = _resolve_quadrature(args, config)
    print(_fmt(chart_audit(field, args.L, quad)))
    return 0


def _cmd_phase(args: argparse.Namespace) -> int:
    from .phase import holonomy, phase_closed_form

    config = _load_config(args)
    field = _resolve_field(args, config)
    quad = _resolve_quadrature(args, config)
    path_given = any(v is not None for v in (args.circle, args.circle_json, args.polyline))
    if path_given:
        factor = holonomy(field, _resolve_path(args), args.q, quad)
    else:
        factor = phase_closed_form(args.q, field.gamma, args.w)
    print(_fmt(factor.angle))
    return 0


def _cmd_interfere(args: argparse.Namespace) -> int:
    from .phase import InterferometerGeometry, interference, interference_csv

    config = _load_config(args)
    field = _resolve_field(args, config)
    geom = InterferometerGeometry(
        slit_separation=args.slit_separation,
        screen_distance=args.screen_distance,
        wavenumber=args.wavenumber,
        half_extent=args.half_extent,
        samples=args.samples,
    )
    rows = interference(field, args.q, geom)
    if _output_format(args, config, default="csv") == "csv":
        sys.stdout.write(interference_csv(rows))
    else:
        print(json.dumps([[_round12(x), _round12(i)] for x, i in rows]))
    return 0


def _cmd_quantize_check(args: argparse.Namespace) -> int:
    from .quantize import ChargeSpectrum, RationalCharge, charge_allowed

    ok = charge_allowed(RationalCharge.parse(args.charge), ChargeSpectrum(args.N))
    print(json.dumps(ok))
    return 0


def _cmd_quantize_spectrum(args: argparse.Namespace) -> int:
    from .quantize import ChargeSpectrum, spectrum

    charges = spectrum(ChargeSpectrum(args.N), args.n_min, args.n_max)
    print(json.dumps([str(c) for c in charges]))
    return 0


def _cmd_quantize_infer(args: argparse.Namespace) -> int:
    from .quantize import RationalCharge, _require_printable, infer_minimal_N

    lattice = infer_minimal_N([RationalCharge.parse(c) for c in args.charges])
    _require_printable(lattice.N, f"N inferred from {' '.join(args.charges)}")
    print(lattice.N)
    return 0


def _cmd_quantize_kappa(args: argparse.Namespace) -> int:
    from .quantize import RationalCharge, kappa_allowed, kappa_constraints

    kappa_e = RationalCharge.parse(args.kappa_e)
    if args.charges:
        ok = kappa_constraints([RationalCharge.parse(c) for c in args.charges], kappa_e)
    else:
        ok = kappa_allowed(kappa_e)
    print(json.dumps(ok))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abflux",
        description="Solenoid potentials: circulations, split-disc flux reports, "
                    "loop phases, fringe patterns, and exact charge lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("circulation", help="circulation of the potential around a closed path")
    _add_config_arg(p)
    _add_field_args(p)
    _add_quad_args(p)
    _add_path_args(p)
    p.set_defaults(func=_cmd_circulation)

    p = sub.add_parser("flux", help="flux through a disc of radius L centered on the axis")
    _add_config_arg(p)
    _add_field_args(p)
    _add_quad_args(p)
    p.add_argument("--L", type=float, required=True, help="disc radius")
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("stokes", help="flux/circulation report for the disc split at rho = R")
    _add_config_arg(p)
    _add_field_args(p)
    _add_quad_args(p)
    p.add_argument("--L", type=float, required=True, help="outer disc radius (> R)")
    p.set_defaults(func=_cmd_stokes)

    p = sub.add_parser("chart-audit", help="two-sector recomputation error for the annulus flux")
    _add_config_arg(p)
    _add_field_args(p)
    _add_quad_args(p)
    p.add_argument("--L", type=float, required=True, help="outer disc radius (> R)")
    p.set_defaults(func=_cmd_chart_audit)

    p = sub.add_parser("phase", help="loop phase angle in [0, 2*pi)")
    _add_config_arg(p)
    _add_field_args(p)
    _add_quad_args(p)
    _add_path_args(p)
    p.add_argument("--q", type=float, required=True, help="charge of the transported wave function")
    p.add_argument("--w", type=int, default=1,
                   help="winding number for the closed form (ignored when a path is given)")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("interfere", help="two-beam fringe pattern as x,intensity rows")
    _add_config_arg(p)
    _add_field_args(p)
    p.add_argument("--q", type=float, required=True, help="charge of the interfering beam")
    p.add_argument("--slit-separation", type=float, default=1.0)
    p.add_argument("--screen-distance", type=float, default=1.0)
    p.add_argument("--wavenumber", type=float, default=math.tau)
    p.add_argument("--half-extent", type=float, default=2.5)
    p.add_argument("--samples", type=int, default=201, help="screen samples, 2 to 1000000")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="output format (default csv)")
    p.set_defaults(func=_cmd_interfere)

    p = sub.add_parser("quantize", help="exact charge-lattice arithmetic")
    qsub = p.add_subparsers(dest="quantize_command", required=True)

    qp = qsub.add_parser("check", help="is charge p/d on the lattice with denominator N?")
    qp.add_argument("charge", help='charge as "p/d" or "p", in units of e')
    qp.add_argument("--N", type=int, required=True, help="lattice denominator")
    qp._negative_number_matcher = _NEGATIVE_TOKEN
    qp.set_defaults(func=_cmd_quantize_check)

    qp = qsub.add_parser("spectrum",
                         help="list charges n/N for n in [n-min, n-max], at most 1000000")
    qp.add_argument("--N", type=int, required=True)
    qp.add_argument("--n-min", type=int, required=True)
    qp.add_argument("--n-max", type=int, required=True)
    qp.set_defaults(func=_cmd_quantize_spectrum)

    qp = qsub.add_parser("infer", help="smallest N accommodating all given charges")
    qp.add_argument("charges", nargs="+", help='charges as "p/d" or "p"')
    qp._negative_number_matcher = _NEGATIVE_TOKEN
    qp.set_defaults(func=_cmd_quantize_infer)

    qp = qsub.add_parser("kappa", help="is kappa*e allowed (alone, or against a charge set)?")
    qp.add_argument("kappa_e", help='kappa*e as "p/d" or "p"')
    qp.add_argument("charges", nargs="*", help="optional charges to constrain against")
    qp._negative_number_matcher = _NEGATIVE_TOKEN
    qp.set_defaults(func=_cmd_quantize_kappa)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AbfluxError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
