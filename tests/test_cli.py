import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import json_numbers, json_values, python_env, result_or_none, run_python
from abflux import cli
from abflux.cli import (
    _parse_circle_inline,
    _resolve_field,
    _resolve_quadrature,
    _settings,
    build_parser,
    main,
)
from abflux.fields import SolenoidField
from abflux.geometry import Circle, QuadratureSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, value) for each README sh-block line "abflux ... # <value>";
    a comment of more than one word is prose and is skipped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples = []
    in_sh = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        command, _, comment = line.partition("#")
        if in_sh and command.startswith("abflux ") and len(comment.split()) == 1:
            examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_examples_found():
    # circulation, flux, closed-form phase, quantize infer and check
    assert len(README_EXAMPLES) >= 5


@pytest.mark.parametrize("argv, value", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, value):
    assert run_cli(capsys, *argv) == (0, value + "\n", "")


def test_module_entry_point():
    out = run_python("-m", "abflux", "phase", "--q", "1", "--gamma", "0.5", "--w", "1")
    assert out.strip() == f"{math.pi:.12g}"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # a reader that stops early, as `| head -1` does, is not bad input:
    # the exit status is SIGPIPE's, 128 + 13, and stderr stays empty.  The
    # pipe's read end is closed before the call, so its first write fails:
    # in print when stdout is unbuffered, else in the flush at the end
    env = {k: v for k, v in python_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ("stokes", "--B", "0", "--R", "1", "--kappa", "0.3333333333333333", "--L", "2")
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "abflux", *argv], env=env,
                                stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, b"")


def _subcommands(parser, prefix=""):
    """(name, parser) for every subcommand, nested ones as "quantize check"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + name, sub
                yield from _subcommands(sub, prefix + name + " ")


def _layout(parser):
    """Argument groups as (title, option strings or dest of each action), then
    the mutually exclusive sets."""
    groups = [(group.title, [" ".join(a.option_strings) or a.dest for a in group._group_actions])
              for group in parser._action_groups]
    exclusive = [[" ".join(a.option_strings) for a in group._group_actions]
                 for group in parser._mutually_exclusive_groups]
    return groups, exclusive


_FIELD = ("field", ["--B", "--R", "--gamma", "--kappa"])
_QUAD = ("quadrature", ["--rel-tol", "--abs-tol", "--max-subdivisions"])
_PATH = ("path", ["--circle", "--turns", "--circle-json", "--polyline"])
_NO_POSITIONALS = ("positional arguments", [])
_GAMMA_OR_KAPPA = [["--gamma", "--kappa"]]

PARSER_LAYOUT = {
    "circulation": ([_NO_POSITIONALS, ("options", ["-h --help", "--config"]),
                     _FIELD, _QUAD, _PATH], _GAMMA_OR_KAPPA),
    "flux": ([_NO_POSITIONALS, ("options", ["-h --help", "--config", "--L"]),
              _FIELD, _QUAD], _GAMMA_OR_KAPPA),
    "stokes": ([_NO_POSITIONALS, ("options", ["-h --help", "--config", "--L"]),
                _FIELD, _QUAD], _GAMMA_OR_KAPPA),
    "chart-audit": ([_NO_POSITIONALS, ("options", ["-h --help", "--config", "--L"]),
                     _FIELD, _QUAD], _GAMMA_OR_KAPPA),
    "phase": ([_NO_POSITIONALS, ("options", ["-h --help", "--config", "--q", "--w"]),
               _FIELD, _QUAD, _PATH], _GAMMA_OR_KAPPA),
    "interfere": ([_NO_POSITIONALS,
                   ("options", ["-h --help", "--config", "--q", "--slit-separation",
                                "--screen-distance", "--half-extent",
                                "--samples", "--format"]),
                   _FIELD], _GAMMA_OR_KAPPA),
    "quantize": ([("positional arguments", ["quantize_command"]), ("options", ["-h --help"])],
                 []),
    "quantize check": ([("positional arguments", ["charge"]),
                        ("options", ["-h --help", "--N"])], []),
    "quantize spectrum": ([_NO_POSITIONALS,
                           ("options", ["-h --help", "--N", "--n-min", "--n-max"])], []),
    "quantize infer": ([("positional arguments", ["charges"]), ("options", ["-h --help"])], []),
    "quantize kappa": ([("positional arguments", ["kappa_e", "charges"]),
                        ("options", ["-h --help"])], []),
}


def test_parser_layout():
    # every subcommand's options and argument groups, in declaration order
    layout = {name: _layout(sub) for name, sub in _subcommands(build_parser())}
    assert list(layout) == list(PARSER_LAYOUT)
    for name, expected in PARSER_LAYOUT.items():
        assert layout[name] == expected, name


@pytest.mark.parametrize("command", [name for name in PARSER_LAYOUT if " " not in name])
def test_named_command_alone_has_arguments(command):
    # the other commands are bare: their help only, no arguments
    bare = ([_NO_POSITIONALS, ("options", ["-h --help"])], [])
    layout = {name: _layout(sub) for name, sub in _subcommands(build_parser(command))}
    assert layout == {
        name: expected if name.split()[0] == command else bare
        for name, expected in PARSER_LAYOUT.items()
        if " " not in name or name.startswith(command + " ")
    }


#: stand for input files in an argv of EQUIVALENT_ARGVS
_FILES = {"<config>": '{"field": {"B": 2, "R": 1, "gamma": 0.7}, '
                      '"quadrature": {"rel_tol": 1e-10}}',
          "<circle>": '{"center": [0.1, 0, 0.3], "radius": 0.4, "turns": -2}',
          "<polyline>": "3,0,0\n0.4,1.1,0.5\n-2,1.5,0\n-1.2,-0.9,-0.5\n0.9,-1.3,0\n"}

#: argvs that main, which gives only the named command its arguments, must
#: answer as the whole parser does: no command, an option or a name that is
#: no command first, every --help, argparse's own errors, then one call of
#: each kind the benchmark's cli-mix runs
EQUIVALENT_ARGVS = [
    (), ("-h",), ("--help",), ("--",), ("--", "circulation", "--gamma", "1", "--circle", "r=2"),
    ("bogus",), ("circ",), ("quantize",), ("quantize", "bogus"),
    *((*name.split(), "--help") for name in PARSER_LAYOUT),
    ("flux", "--B", "1"), ("interfere", "--q", "1", "--format", "xml"),
    ("flux", "--L", "2", "--bogus"), ("quantize", "check", "1/3"),
    ("circulation", "--B", "2", "--R", "1", "--gamma", "0.7", "--circle", "r=3,cz=0.5",
     "--turns=-2"),
    ("circulation", "--B", "2", "--R", "1", "--gamma", "0.7", "--polyline", "<polyline>"),
    ("circulation", "--B", "2", "--R", "1", "--gamma", "0.7", "--circle-json", "<circle>"),
    ("flux", "--B", "2", "--R", "1", "--gamma", "0.7", "--L=3"),
    ("flux", "--config", "<config>", "--L=3"),
    ("stokes", "--B", "2", "--R", "1", "--kappa", "0.3", "--L=3"),
    ("stokes", "--config", "<config>", "--L=3"),
    ("chart-audit", "--B", "2", "--R", "1", "--gamma", "0.7", "--L=3"),
    ("phase", "--q=-0.3333333333333333", "--gamma=0.7", "--w=-2"),
    ("phase", "--q=1.0", "--B", "2", "--R", "1", "--gamma", "0.7", "--circle", "r=3,turns=2"),
    ("phase", "--q=1.0", "--B", "2", "--R", "1", "--gamma", "0.7", "--polyline", "<polyline>"),
    ("interfere", "--q=1.0", "--gamma=0.7", "--slit-separation=1.5", "--samples=11"),
    ("interfere", "--q=1.0", "--gamma=0.7", "--samples=11", "--format=json"),
    ("quantize", "check", "-1/3", "--N=3"),
    ("quantize", "spectrum", "--N=3", "--n-min=-2", "--n-max=2"),
    ("quantize", "infer", "2/3", "-1/6"),
    ("quantize", "kappa", "1/3", "2/3", "-1/3"),
]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exit_info:
        code = exit_info.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", EQUIVALENT_ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_main_parses_as_the_whole_parser(monkeypatch, capsys, tmp_path, argv):
    for index, (placeholder, text) in enumerate(_FILES.items()):
        path = tmp_path / f"input-{index}"
        path.write_text(text, encoding="utf-8")
        argv = tuple(str(path) if arg == placeholder else arg for arg in argv)
    lean = outcome(capsys, argv)
    whole, commands = build_parser, []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: commands.append(command) or whole())
    assert outcome(capsys, argv) == lean
    assert commands == [argv[0] if argv else None]


class TestCirculationCommand:
    def test_circle(self, capsys):
        code, out, err = run_cli(
            capsys, "circulation", "--B", "2", "--R", "1", "--gamma", "1", "--circle", "r=3"
        )
        assert code == 0 and err == ""
        assert out.strip() == f"{2.0 * math.pi:.12g}"

    def test_two_turns(self, capsys):
        code, out, _ = run_cli(
            capsys, "circulation", "--B", "2", "--R", "1", "--gamma", "1",
            "--circle", "r=3", "--turns", "2",
        )
        assert code == 0
        assert out.strip() == f"{4.0 * math.pi:.12g}"

    def test_non_enclosing_polyline(self, capsys, tmp_path):
        csv_path = tmp_path / "loop.csv"
        csv_path.write_text("2,-0.4,0\n3,-0.4,0\n3,0.4,0\n2,0.4,0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "circulation", "--B", "2", "--R", "1", "--gamma", "1",
            "--polyline", str(csv_path),
        )
        assert code == 0
        assert abs(float(out)) < 1e-9

    def test_thin_solenoid_at_tight_tolerance(self, capsys, tmp_path):
        # converges although the running error sum drifts above rel_tol
        csv_path = tmp_path / "tri.csv"
        csv_path.write_text("x,y,z\n1.00001e-6,-1,0\n1.00001e-6,1,0\n-2,0,0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "circulation", "--B", "2", "--R", "1e-6", "--gamma", "1",
            "--polyline", str(csv_path), "--rel-tol", "1e-12",
        )
        assert code == 0 and err == ""
        assert out.strip() == f"{2.0 * math.pi:.12g}"

    def test_circle_json_file(self, capsys, tmp_path):
        circle_path = tmp_path / "circle.json"
        circle_path.write_text('{"center": [0, 0, 0], "radius": 4.0, "turns": -1}', encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "circulation", "--gamma", "0.5", "--circle-json", str(circle_path)
        )
        assert code == 0
        assert float(out) == pytest.approx(-math.pi, rel=1e-9)

    def test_turns_flag_with_circle_json_exit_2(self, capsys, tmp_path):
        # the file's own "turns" is its turn count
        circle_path = tmp_path / "circle.json"
        circle_path.write_text('{"center": [0, 0, 0], "radius": 4.0, "turns": 2}', encoding="utf-8")
        code, out, err = run_cli(
            capsys, "circulation", "--gamma", "1", "--circle-json", str(circle_path),
            "--turns", "-1",
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError: --turns")

    def test_turns_flag_with_polyline_exit_2(self, capsys, tmp_path):
        csv_path = tmp_path / "square.csv"
        csv_path.write_text("2,-2,0\n2,2,0\n-2,2,0\n-2,-2,0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "circulation", "--gamma", "1", "--polyline", str(csv_path), "--turns", "3",
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "--turns" in err

    def test_turns_flag_with_inline_turns_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "circulation", "--gamma", "1", "--circle", "r=3,turns=2", "--turns", "5",
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "turns" in err

    @pytest.mark.parametrize("spec", ["r=3,r=4", "r=3,r=4,radius=9",
                                      "r=3,turns=1,turns=2", "r=3,cx=0,cx=1"])
    def test_repeated_inline_key_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "circulation", "--gamma", "1", "--circle", spec)
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "more than once" in err

    def test_radius_key_is_unknown_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "circulation", "--gamma", "1", "--circle", "radius=3")
        assert code == 2 and out == ""
        assert err.startswith("ValueError: bad circle spec item 'radius=3'")

    @pytest.mark.parametrize("spec, message", [
        ("r=2,turns=2.5", "circle turns must be an integer, got '2.5'"),
        ("r=2,cx=abc", "circle cx must be a number, got 'abc'"),
    ])
    def test_inline_value_names_its_key_exit_2(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "circulation", "--gamma", "1", "--circle", spec)
        assert code == 2 and out == ""
        assert err.startswith(f"ValueError: {message}")

    def test_inline_integral_float_turns_read_as_a_circle_file_does(self, capsys, tmp_path):
        circle_path = tmp_path / "circle.json"
        circle_path.write_text('{"center": [0, 0, 0], "radius": 2, "turns": 2.0}',
                               encoding="utf-8")
        runs = [run_cli(capsys, "circulation", "--gamma", "1", *path) for path in (
            ("--circle", "r=2,turns=2"),
            ("--circle", "r=2,turns=2.0"),
            ("--circle-json", str(circle_path)),
        )]
        assert runs == [(0, "12.5663706144\n", "")] * 3

    def test_integral_float_turns_flag_reads_as_inline_turns(self, capsys):
        runs = [run_cli(capsys, "circulation", "--gamma", "1", *path) for path in (
            ("--circle", "r=2,turns=2.0"),
            ("--circle", "r=2", "--turns", "2"),
            ("--circle", "r=2", "--turns", "2.0"),
            ("--circle", "r=2", "--turns=2e0"),
        )]
        assert runs == [(0, "12.5663706144\n", "")] * 4

    @pytest.mark.parametrize("flag, value", [("--turns", "2.5"), ("--turns", "abc"),
                                             ("--max-subdivisions", "2.5"),
                                             ("--max-subdivisions", "abc")])
    def test_non_integral_count_flag_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["circulation", "--gamma", "1", "--circle", "r=2", flag, value])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_circle_json_unknown_key_exit_2(self, capsys, tmp_path):
        # a mistyped "turns" is refused, not read as the default one turn
        circle_path = tmp_path / "circle.json"
        circle_path.write_text('{"center": [0, 0, 0], "radius": 3, "turn": 2}', encoding="utf-8")
        code, out, err = run_cli(
            capsys, "circulation", "--gamma", "1", "--circle-json", str(circle_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError: unknown circle JSON key 'turn'")

    def test_kappa_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "circulation", "--B", "2", "--R", "1", "--kappa", "0.5", "--circle", "r=3"
        )
        assert code == 0
        assert float(out) == pytest.approx(3.0 * math.pi, rel=1e-9)

    def test_path_required(self, capsys):
        code, _, err = run_cli(capsys, "circulation", "--B", "2", "--R", "1", "--gamma", "1")
        assert code == 2
        assert "ValueError" in err

    def test_turns_beyond_float_range_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "circulation", "--gamma", "1", "--circle", "r=3", "--turns", "1" + "0" * 400,
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

    def test_overflow_is_value_error(self, capsys, tmp_path):
        csv_path = tmp_path / "square.csv"
        csv_path.write_text("2,-2,0\n2,2,0\n-2,2,0\n-2,-2,0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "circulation", "--B", "0", "--R", "1", "--gamma", "1e308",
            "--polyline", str(csv_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

    def test_rho_squared_overflow_exit_2(self, capsys):
        # rho*rho overflows on the circle, where gamma/rho**2 would read 0
        code, out, err = run_cli(
            capsys, "circulation", "--B", "1", "--R", "1e-3", "--gamma", "0.5",
            "--circle", "r=1e155",
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "overflow" in err

    def test_crossing_path_error_named(self, capsys):
        code, _, err = run_cli(
            capsys, "circulation", "--B", "2", "--R", "1", "--gamma", "1", "--circle", "r=1"
        )
        assert code == 1
        assert err.startswith("PathCrossesSolenoid")

    @pytest.mark.parametrize("argv, inputs", [
        ("--gamma 1e308 --circle r=3", "gamma = 1e+308"),
        ("--gamma 3e307 --circle r=3", "gamma = 3e+307"),
        ("--B 1e308 --R 10 --gamma 1 --circle r=3", "B = 1e+308"),
        ("--gamma 1e307 --circle r=3,turns=3", "gamma = 1e+307, turns = 3"),
    ])
    def test_overflow_names_its_inputs(self, capsys, argv, inputs):
        code, out, err = run_cli(capsys, "circulation", *argv.split())
        assert code == 2 and out == ""
        assert err == f"ValueError: integral is not finite (inf) at {inputs}: the inputs overflow\n"


class TestFluxCommand:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "flux", "--B", "2", "--R", "1", "--L", "2")
        assert code == 0
        assert float(out) == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_error_named(self, capsys):
        code, _, err = run_cli(capsys, "flux", "--B", "2", "--R", "1", "--L", "-1")
        assert code == 1
        assert err.startswith("InvalidRadius")


class TestStokesCommand:
    def test_underflow_exit_2(self, capsys):
        # the exterior rho*rho underflows to 0 on rho = R = 1e-300
        code, out, err = run_cli(
            capsys, "stokes", "--B", "1", "--R", "1e-300", "--gamma", "1", "--L", "2e-300"
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "underflow" in err

    def test_rho_squared_overflow_exit_2(self, capsys):
        # L*L overflows: both boundary circulations would read 0
        code, out, err = run_cli(
            capsys, "stokes", "--B", "1e-300", "--R", "1e155", "--gamma", "1", "--L", "2e155"
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "overflow" in err

    def test_subnormal_radius_square_exit_2(self, capsys):
        # R*R is subnormal, where circ_inner would read 8.9% low: refused
        code, out, err = run_cli(
            capsys, "stokes", "--B", "0", "--R", "3e-162", "--gamma", "1e-20", "--L", "6e-162"
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError: rho*rho underflows")

    def test_subnormal_radius_exit_2(self, capsys):
        # named for the caller's R, not for a radius derived from it
        code, out, err = run_cli(
            capsys, "stokes", "--B", "1", "--R", "5e-324", "--gamma", "0", "--L", "1e-300"
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "5e-324" in err

    def test_flux_matching(self, capsys):
        code, out, _ = run_cli(capsys, "stokes", "--B", "2", "--R", "1", "--L", "2")
        assert code == 0
        data = json.loads(out)
        assert data["discrepancy"] == pytest.approx(0.0, abs=1e-7)
        assert data["phi_total"] == pytest.approx(2.0 * math.pi, rel=1e-8)
        assert data["config"]["field"]["gamma"] == 1.0

    def test_shifted(self, capsys):
        code, out, _ = run_cli(
            capsys, "stokes", "--B", "2", "--R", "1", "--kappa", "0.5", "--L", "2"
        )
        assert code == 0
        # tolerance scaled by pi*B*R**2, the flux scale of the configuration
        assert json.loads(out)["discrepancy"] == pytest.approx(math.pi, abs=1e-8 * 2.0 * math.pi)

    def test_pure_gauge(self, capsys):
        code, out, _ = run_cli(
            capsys, "stokes", "--B", "0", "--R", "1", "--gamma", "1", "--L", "2"
        )
        assert code == 0
        assert json.loads(out)["discrepancy"] == pytest.approx(2.0 * math.pi, rel=1e-9)


class TestChartAuditCommand:
    def test_small(self, capsys):
        code, out, _ = run_cli(capsys, "chart-audit", "--B", "2", "--R", "1", "--L", "2")
        assert code == 0
        assert abs(float(out)) <= 1e-8


class TestPhaseCommand:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--q", "1", "--gamma", "0.5", "--w", "1")
        assert code == 0
        assert out.strip() == f"{math.pi:.12g}"

    def test_from_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase", "--q", "1", "--B", "0", "--R", "1", "--gamma", "0.5",
            "--circle", "r=2",
        )
        assert code == 0
        assert float(out) == pytest.approx(math.pi, rel=1e-9)

    def test_rho_squared_overflow_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "phase", "--q", "1", "--B", "1", "--R", "1e-3", "--gamma", "0.25",
            "--circle", "r=1e155",
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "overflow" in err

    def test_winding_beyond_float_range_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "phase", "--q", "1", "--gamma", "0.5", "--w", "1" + "0" * 400
        )
        assert (code, out) == (2, "")
        assert err == "ValueError: w is beyond floating-point range\n"

    def test_turns_without_path_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "phase", "--q", "1", "--gamma", "0.3", "--turns", "3")
        assert (code, out) == (2, "")
        assert err.startswith("ValueError: specify exactly one of")

    def test_closed_form_winds_once_by_default(self, capsys):
        assert run_cli(capsys, "phase", "--q", "1", "--gamma", "0.5") == (
            0, "3.14159265359\n", "")

    @pytest.mark.parametrize("flag, text", [
        ("--circle", None),
        ("--circle-json", '{"center": [0, 0, 0], "radius": 2}'),
        ("--polyline", "2,-2,0\n2,2,0\n-2,2,0\n-2,-2,0\n"),
    ])
    def test_winding_flag_with_path_exit_2(self, capsys, tmp_path, flag, text):
        # a path gives its own winding: --w is refused, not ignored
        value = "r=2"
        if text is not None:
            value = str(tmp_path / "path")
            Path(value).write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "phase", "--q", "1", "--gamma", "0.5", "--w", "2",
                                 flag, value)
        assert (code, out) == (2, "")
        assert err == "ValueError: --w applies to the closed form, not to a path\n"


class TestInterfereCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "interfere", "--q", "1", "--gamma", "0", "--samples", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,intensity"
        assert len(lines) == 6

    def test_integer_q_gamma_byte_identical(self, capsys):
        _, base, _ = run_cli(capsys, "interfere", "--q", "1", "--gamma", "0")
        _, shifted, _ = run_cli(capsys, "interfere", "--q", "1", "--gamma", "1")
        assert base == shifted

    def test_half_fringe_differs(self, capsys):
        _, base, _ = run_cli(capsys, "interfere", "--q", "1", "--gamma", "0")
        _, shifted, _ = run_cli(capsys, "interfere", "--q", "1", "--gamma", "0.5")
        assert base != shifted

    def test_too_many_samples_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "interfere", "--q", "1", "--gamma", "0", "--samples", "1000001"
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

    def test_wavenumber_is_no_flag(self, capsys):
        # lengths are in wavelengths, so the wavenumber is 2*pi: argparse
        # refuses the flag with its usage error
        with pytest.raises(SystemExit) as info:
            main(["interfere", "--q", "1", "--wavenumber", "3"])
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: abflux")
        assert "unrecognized arguments: --wavenumber 3" in captured.err

    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_nonfinite_charge_exit_2(self, capsys, q):
        code, out, err = run_cli(capsys, "interfere", "--q", q, "--gamma", "1")
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "interfere", "--q", "1", "--gamma", "0.5", "--samples", "3",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[1][1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fmt", ['""', "0", "false", "null", '"json"', '"csv"'])
    def test_bad_config_format_exit_2(self, capsys, tmp_path, fmt):
        # the output format is the --format flag's alone
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"format": {fmt}}}', encoding="utf-8")
        code, out, err = run_cli(capsys, "interfere", "--config", str(cfg), "--q", "1")
        assert (code, out) == (2, "")
        assert err.startswith("ValueError: unknown config key 'format'")


class TestQuantizeCommand:
    def test_infer(self, capsys):
        code, out, _ = run_cli(capsys, "quantize", "infer", "2/3", "-1/3", "1")
        assert code == 0
        assert out.strip() == "3"

    def test_check(self, capsys):
        code, out, _ = run_cli(capsys, "quantize", "check", "2/3", "--N", "3")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "quantize", "check", "1/2", "--N", "3")
        assert code == 0 and out.strip() == "false"

    def test_spectrum(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantize", "spectrum", "--N", "3", "--n-min", "-2", "--n-max", "3"
        )
        assert code == 0
        assert json.loads(out) == ["-2/3", "-1/3", "0", "1/3", "2/3", "1"]

    def test_spectrum_too_long_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "quantize", "spectrum", "--N", "1", "--n-min", "0", "--n-max", "1000000"
        )
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

    def test_kappa_alone(self, capsys):
        code, out, _ = run_cli(capsys, "quantize", "kappa", "3")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "quantize", "kappa", "1/2")
        assert code == 0 and out.strip() == "false"

    def test_kappa_against_charges(self, capsys):
        code, out, _ = run_cli(capsys, "quantize", "kappa", "3", "2/3", "-1/3")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "quantize", "kappa", "1", "2/3")
        assert code == 0 and out.strip() == "false"

    def test_empty_infer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["quantize", "infer"])

    def test_bad_charge_named_error(self, capsys):
        code, _, err = run_cli(capsys, "quantize", "infer", "xyz")
        assert code == 2
        assert "ValueError" in err

    def test_charge_exponent_bounded_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "quantize", "check", "1e5000", "--N", "3")
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "exponent" in err
        code, out, _ = run_cli(capsys, "quantize", "check", "1e4300", "--N", "3")
        assert code == 0 and out.strip() == "true"

    def test_unprintable_N_named_exit_2(self, capsys):
        # N = 10**4300 has one digit more than the interpreter prints
        code, out, err = run_cli(capsys, "quantize", "infer", "1e-4300", "1/3")
        assert code == 2 and out == ""
        assert err.startswith("ValueError: N inferred from 1e-4300 1/3 has more than 4300 digits")
        code, out, _ = run_cli(capsys, "quantize", "infer", "1e-4299")
        assert code == 0 and out == f"{10**4299}\n"
        # each denominator prints, their lcm does not
        code, out, err = run_cli(capsys, "quantize", "infer", f"1/{2**9000}", f"1/{3**6000}")
        assert code == 2 and out == "" and "has more than 4300 digits" in err


class TestConfigHandling:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"field": {"B": 2.0, "R": 1.0, "gamma": 1.0}}), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "circulation", "--config", str(cfg), "--circle", "r=3"
        )
        assert code == 0
        assert float(out) == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"field": {"B": 2.0, "R": 1.0, "gamma": 1.0}}), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "circulation", "--config", str(cfg), "--gamma", "2", "--circle", "r=3"
        )
        assert code == 0
        assert float(out) == pytest.approx(4.0 * math.pi, rel=1e-9)

    def test_quadrature_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({
                "field": {"B": 2.0, "R": 1.0, "gamma": 1.0},
                "quadrature": {"max_subdivisions": 0},
            }),
            encoding="utf-8",
        )
        square = tmp_path / "square.csv"
        square.write_text("2,-2,0\n2,2,0\n-2,2,0\n-2,-2,0\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "circulation", "--config", str(cfg), "--polyline", str(square)
        )
        assert code == 1
        assert err.startswith("QuadratureNotConverged")

    @pytest.mark.parametrize("text", ['{"quadrature": {"max_subdivisions": Infinity}}',
                                      '{"quadrature": {"max_subdivisions": 2.5}}',
                                      '{"field": [1, 2]}', '[]', "[" * 100_000,
                                      '{"field": {"B": 2, "R": 1, "gama": 3}}',
                                      '{"quadrature": {"max_subdivison": 10}}',
                                      '{"fromat": "json"}', '{"format": "xml"}'])
    def test_malformed_config_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "circulation", "--config", str(cfg), "--circle", "r=3")
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

    @pytest.mark.parametrize("text", ['{"quadrature": {"bogus": 1}}', '{"quadrature": []}'])
    @pytest.mark.parametrize("argv", [("circulation", "--circle", "r=3"), ("flux", "--L", "2"),
                                      ("stokes", "--L", "2"), ("chart-audit", "--L", "2"),
                                      ("phase", "--q", "1"), ("interfere", "--q", "1")],
                             ids=lambda argv: argv[0])
    def test_every_field_command_checks_the_quadrature_section(self, capsys, tmp_path,
                                                               argv, text):
        # interfere reads no quadrature section, yet refuses a malformed one
        cfg = tmp_path / "run.json"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, argv[0], "--config", str(cfg), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("ValueError: ") and "config 'quadrature'" in err

    def test_integral_float_budget(self, capsys, tmp_path):
        outs = []
        for budget in ("1000", "1000.0"):
            cfg = tmp_path / "run.json"
            cfg.write_text(f'{{"quadrature": {{"max_subdivisions": {budget}}}}}',
                           encoding="utf-8")
            outs.append(run_cli(capsys, "circulation", "--config", str(cfg), "--B", "2",
                                "--R", "1", "--gamma", "0.7", "--circle", "r=2,cx=0.5"))
        assert outs[0] == outs[1] == (0, "4.39822971503\n", "")

    def test_integral_float_budget_flag(self, capsys, tmp_path):
        # the flag reads 1000.0 as the config does, and 0.0 as a budget of 0
        square = tmp_path / "square.csv"
        square.write_text("2,-2,0\n2,2,0\n-2,2,0\n-2,-2,0\n", encoding="utf-8")
        argv = ("circulation", "--B", "2", "--R", "1", "--gamma", "0.7")
        runs = [run_cli(capsys, *argv, "--circle", "r=2,cx=0.5", "--max-subdivisions", budget)
                for budget in ("1000", "1000.0")]
        assert runs == [(0, "4.39822971503\n", "")] * 2
        code, out, err = run_cli(capsys, *argv, "--polyline", str(square),
                                 "--max-subdivisions", "0.0")
        assert (code, out) == (1, "") and err.startswith("QuadratureNotConverged")

    def test_budget_above_its_cap_exit_2(self, capsys, tmp_path):
        # 2**30 splits would hold about 250 GB of heap
        cfg = tmp_path / "run.json"
        cfg.write_text('{"quadrature": {"max_subdivisions": 1073741824}}', encoding="utf-8")
        argv = ("circulation", "--gamma", "1", "--circle", "r=2")
        for extra in (("--max-subdivisions", "1073741824"), ("--config", str(cfg))):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert (code, out) == (2, "")
            assert err.startswith("ValueError: max_subdivisions must be at most 1048576")

    def test_unknown_config_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"field": {"B": 2, "R": 1, "gama": 3}}', encoding="utf-8")
        code, out, err = run_cli(capsys, "circulation", "--config", str(cfg), "--circle", "r=3")
        assert (code, out) == (2, "")
        assert err.startswith("ValueError") and "'gama'" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "circulation", "--config", str(tmp_path / "nope.json"), "--circle", "r=3"
        )
        assert code == 2
        assert "Error" in err or "No such file" in err

    @pytest.mark.parametrize("flag", ["--polyline", "--circle-json"])
    def test_empty_path_file_named(self, capsys, flag):
        # the path the user gave, not the directory "" would resolve to
        code, out, err = run_cli(capsys, "circulation", "--gamma", "1", flag, "")
        assert (code, out) == (2, "")
        assert err == "FileNotFoundError: [Errno 2] No such file or directory: ''\n"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "stokes", "--B", "1.7", "--R", "0.9", "--kappa", "0.3", "--L", "2.5"
            )
            outputs.add(out)
        assert len(outputs) == 1


_flag_floats = st.none() | st.floats()


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    """A config file path that each example of a property rewrites."""
    return tmp_path_factory.mktemp("config") / "run.json"


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        text=st.one_of(
            st.text(),
            st.lists(st.tuples(st.sampled_from(("r", "radius", "turns", "cx", "cy", "cz", "x")),
                               st.one_of(json_numbers.map(str), st.text(max_size=6))),
                     max_size=5).map(lambda items: ",".join(f"{k}={v}" for k, v in items)),
        ),
        turns_flag=st.none() | st.integers(),
    )
    def test_inline_circle(self, text, turns_flag):
        circle = result_or_none(_parse_circle_inline, text, turns_flag)
        assert circle is None or isinstance(circle, Circle)

    @settings(max_examples=200, deadline=None)
    @given(
        config=st.none() | st.dictionaries(
            st.sampled_from(("field", "quadrature", "format")),
            json_values | st.fixed_dictionaries({}, optional={
                key: json_numbers | json_values
                for key in ("B", "R", "gamma", "rel_tol", "abs_tol", "max_subdivisions")
            }),
        ),
        B=_flag_floats, R=_flag_floats, gamma=_flag_floats, kappa=_flag_floats,
        rel_tol=_flag_floats, abs_tol=_flag_floats,
        max_subdivisions=st.none() | st.integers(),
    )
    def test_config_resolvers(self, config_file, config, **flags):
        if config is not None:
            config_file.write_text(json.dumps(config), encoding="utf-8")
        args = argparse.Namespace(config=config_file if config is not None else None, **flags)
        settings = result_or_none(_settings, args)
        if settings is None:
            return
        field = result_or_none(_resolve_field, args, settings)
        assert field is None or isinstance(field, SolenoidField)
        spec = result_or_none(_resolve_quadrature, settings)
        assert spec is None or isinstance(spec, QuadratureSpec)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.fixed_dictionaries({}, optional={
            **{key: st.floats() for key in ("B", "R", "gamma", "rel_tol", "abs_tol")},
            "max_subdivisions": st.integers(),
        }),
    )
    def test_config_file_equals_flags(self, config_file, values):
        field = {key: values[key] for key in ("B", "R", "gamma") if key in values}
        quadrature = {key: v for key, v in values.items() if key not in field}
        config_file.write_text(json.dumps({"field": field, "quadrature": quadrature}),
                               encoding="utf-8")
        parser = build_parser()
        from_file = parser.parse_args(["stokes", "--L", "2", "--config", str(config_file)])
        from_flags = parser.parse_args(
            ["stokes", "--L", "2",
             *(f"--{key.replace('_', '-')}={value!r}" for key, value in values.items())])
        for resolve in (lambda args: _resolve_field(args, _settings(args)),
                        lambda args: _resolve_quadrature(_settings(args))):
            assert result_or_none(resolve, from_file) == result_or_none(resolve, from_flags)
