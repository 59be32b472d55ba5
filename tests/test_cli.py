import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abflux
from abflux.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point():
    # the child imports the package from where this process found it
    paths = (str(Path(abflux.__file__).parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-m", "abflux", "phase", "--q", "1", "--gamma", "0.5", "--w", "1"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert result.stdout.strip() == f"{math.pi:.12g}"


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

    def test_circle_json_file(self, capsys, tmp_path):
        circle_path = tmp_path / "circle.json"
        circle_path.write_text('{"center": [0, 0, 0], "radius": 4.0, "turns": -1}', encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "circulation", "--gamma", "0.5", "--circle-json", str(circle_path)
        )
        assert code == 0
        assert float(out) == pytest.approx(-math.pi, rel=1e-9)

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
