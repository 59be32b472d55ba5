import argparse
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import json_numbers, json_values, result_or_none, run_python
from abflux.cli import (
    _parse_circle_inline,
    _resolve_field,
    _resolve_quadrature,
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
                                "--screen-distance", "--wavenumber", "--half-extent",
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

    def test_turns_flag_overrides_circle_json(self, capsys, tmp_path):
        circle_path = tmp_path / "circle.json"
        circle_path.write_text('{"center": [0, 0, 0], "radius": 4.0, "turns": 2}', encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "circulation", "--gamma", "1", "--circle-json", str(circle_path),
            "--turns", "-1",
        )
        assert code == 0
        assert out.strip() == f"{-2.0 * math.pi:.12g}"

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

    @pytest.mark.parametrize("spec", ["r=3,r=4", "r=3,radius=9", "r=3,r=4,radius=9",
                                      "r=3,turns=1,turns=2", "r=3,cx=0,cx=1"])
    def test_repeated_inline_key_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "circulation", "--gamma", "1", "--circle", spec)
        assert code == 2 and out == ""
        assert err.startswith("ValueError") and "more than once" in err

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
                                      '{"fromat": "json"}'])
    def test_malformed_config_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "circulation", "--config", str(cfg), "--circle", "r=3")
        assert code == 2 and out == ""
        assert err.startswith("ValueError")

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
        config=st.dictionaries(
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
    def test_config_resolvers(self, config, **flags):
        args = argparse.Namespace(**flags)
        field = result_or_none(_resolve_field, args, config)
        assert field is None or isinstance(field, SolenoidField)
        spec = result_or_none(_resolve_quadrature, args, config)
        assert spec is None or isinstance(spec, QuadratureSpec)
