"""The package surface, resolved lazily, and what each subcommand loads."""

import importlib
import json
import math
from pathlib import Path

import pytest

import abflux
from _helpers import run_python
from abflux.cli import main

SUBCOMMANDS = ("circulation", "flux", "stokes", "chart-audit", "phase", "interfere", "quantize")
QUANTIZE_COMMANDS = ("check", "spectrum", "infer", "kappa")


class TestLazySurface:
    def test_every_export_is_its_modules_object(self):
        for module, names in abflux._EXPORTS.items():
            owner = importlib.import_module(f"abflux.{module}")
            for name in names:
                assert getattr(abflux, name) is getattr(owner, name), name
        assert abflux.__all__ == sorted(
            name for names in abflux._EXPORTS.values() for name in names
        )

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from abflux import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == abflux.__all__
        assert set(abflux.__all__) <= set(dir(abflux))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            abflux.no_such_name

    def test_axis_singularity_is_gone(self):
        # only Point.phi raised it, and Point has no azimuth now
        with pytest.raises(AttributeError, match="AxisSingularity"):
            abflux.AxisSingularity
        assert not hasattr(abflux.errors, "AxisSingularity")

    def test_rational_charge_is_gone(self):
        # a charge is a fractions.Fraction: the wrapper record added no rule
        with pytest.raises(AttributeError, match="RationalCharge"):
            abflux.RationalCharge
        assert not hasattr(abflux.quantize, "RationalCharge")
        assert "RationalCharge" not in abflux.__all__

    def test_fixed_bands_are_gone(self):
        # one rounding rule (fields._side) tells a point's or a path's side
        for name, module in (("BOUNDARY_BAND", "fields"), ("PATH_CLEARANCE", "geometry")):
            with pytest.raises(AttributeError, match=name):
                getattr(abflux, name)
            assert not hasattr(getattr(abflux, module), name)
        assert not hasattr(abflux.SolenoidField(1.0, 1.0, 0.0), "boundary_band")

    def test_import_loads_no_layer(self):
        out = run_python(
            "-c",
            "import json, sys\n"
            "import abflux\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('abflux.'))\n"
            "print(json.dumps([loaded, abflux.geometry.circulation.__name__]))\n"
        )
        assert json.loads(out) == [[], "circulation"]

    def test_quadrature_spec_loads_no_integrator(self):
        from abflux import fields, geometry

        assert geometry.QuadratureSpec is fields.QuadratureSpec
        assert geometry._DEFAULT_SPEC is fields._DEFAULT_SPEC
        out = run_python(
            "-c",
            "import sys\n"
            "from abflux import QuadratureSpec\n"
            "print(QuadratureSpec(), 'abflux.geometry' in sys.modules, 'json' in sys.modules)\n"
        )
        assert out == "QuadratureSpec(rel_tol=1e-09, abs_tol=1e-12, max_subdivisions=1048576)" \
                      " False False\n"


def test_readme_library_quick_start():
    # the README's "Library quick start" block, run as it is written
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["report"].discrepancy - math.pi) <= 1e-12
    assert namespace["phases_equivalent"](2.0, 1.0, 1.5) is True


#: the module list is taken before json is imported to print it
FOOTPRINT = """\
import contextlib, io, sys
from abflux import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps([code, loaded]))
"""


#: loaded by no subcommand: the value types are records (abflux._record),
#: and StokesReport, the one dataclass, is built on first use, which the
#: stokes command, printing the split disc's values alone, never makes
DATACLASSES = {"dataclasses", "inspect"}

#: loaded only to read a path file, which only the POLYLINE call below
#: gives; a config file is read through the JSON rules in abflux.fields
LOADERS = {"abflux.loaders", "csv"}

#: stand for a config file and a polyline file in an argv below
CONFIG, POLYLINE = "<config>", "<polyline>"

#: loaded only by a call that reads JSON or prints a JSON object or list:
#: a config or circle file, the stokes report, interfere --format json and
#: quantize spectrum; quantize check and kappa print true or false alone
JSON = {"json"}

#: (argv, modules its process must not load)
FOOTPRINTS = [
    (("quantize", "check", "1/3", "--N", "3"),
     {"abflux.fields", "abflux.geometry", "abflux.stokes", "abflux.phase", *DATACLASSES,
      *LOADERS, *JSON}),
    (("quantize", "spectrum", "--N", "3", "--n-min", "-1", "--n-max", "1"),
     DATACLASSES | LOADERS),
    (("quantize", "infer", "2/3", "-1/3"), DATACLASSES | LOADERS | JSON),
    (("quantize", "kappa", "3", "2/3"), DATACLASSES | LOADERS | JSON),
    (("circulation", "--gamma", "1", "--circle", "r=3"),
     {"abflux.quantize", "abflux.stokes", "fractions", *DATACLASSES, *LOADERS, *JSON}),
    (("circulation", "--gamma", "1", "--polyline", POLYLINE),
     {"abflux.quantize", "abflux.stokes", "fractions", *DATACLASSES, *JSON}),
    (("flux", "--B", "1", "--L", "2"), DATACLASSES | LOADERS | JSON),
    (("chart-audit", "--B", "1", "--L", "2"),
     {"abflux.quantize", "abflux.phase", *DATACLASSES, *LOADERS, *JSON}),
    # the closed form checks the quadrature flags with no integrator loaded
    (("phase", "--q", "1", "--gamma", "0.5"), {"abflux.geometry", *DATACLASSES, *LOADERS, *JSON}),
    (("phase", "--q", "1", "--gamma", "0.5", "--circle", "r=2"), DATACLASSES | LOADERS | JSON),
    (("interfere", "--q", "1", "--samples", "3"),
     {"abflux.geometry", *DATACLASSES, *LOADERS, *JSON}),
    (("stokes", "--B", "1", "--R", "1", "--L", "2"),
     {"abflux.quantize", "abflux.phase", *DATACLASSES, *LOADERS}),
    (("flux", "--config", CONFIG, "--L", "2"), DATACLASSES | LOADERS),
    (("interfere", "--config", CONFIG, "--q", "1", "--samples", "3"),
     {"abflux.geometry", *DATACLASSES, *LOADERS}),
]


def footprint(tmp_path, argv, *options):
    """[exit code, sorted module names] of a fresh interpreter, run with
    options, that runs argv through cli.main; CONFIG in argv is a config
    file giving both sections, POLYLINE a square about the axis."""
    files = {CONFIG: tmp_path / "config.json", POLYLINE: tmp_path / "square.csv"}
    files[CONFIG].write_text('{"field": {"B": 1, "gamma": 0.5}, "quadrature": {"rel_tol": 1e-8}}',
                             encoding="utf-8")
    files[POLYLINE].write_text("2,-2,0\n2,2,0\n-2,2,0\n-2,-2,0\n", encoding="utf-8")
    argv = [str(files.get(arg, arg)) for arg in argv]
    return json.loads(run_python(*options, "-c", FOOTPRINT, *argv))


@pytest.mark.parametrize("argv, absent", FOOTPRINTS)
def test_subcommand_import_footprint(tmp_path, argv, absent):
    code, loaded = footprint(tmp_path, argv)
    assert code == 0
    assert absent.isdisjoint(loaded)


@pytest.mark.parametrize("argv", [argv for argv, _ in FOOTPRINTS])
def test_subcommand_loads_no_typing_without_site(tmp_path, argv):
    # -S: a site .pth file may import typing before abflux runs
    code, loaded = footprint(tmp_path, argv, "-S")
    assert code == 0
    assert "typing" not in loaded


@pytest.mark.parametrize("argv", [argv for argv, _ in FOOTPRINTS if POLYLINE not in argv])
def test_subcommand_without_a_path_file_loads_no_pathlib(tmp_path, argv):
    # -S: a site .pth file may import pathlib before abflux runs; a config
    # file is read with open()
    code, loaded = footprint(tmp_path, argv, "-S")
    assert code == 0
    assert "pathlib" not in loaded


@pytest.mark.parametrize("argv", [argv for argv, _ in FOOTPRINTS if POLYLINE in argv])
def test_path_file_loads_no_pathlib(tmp_path, argv):
    # -S, as above: a path file is read with open()
    code, loaded = footprint(tmp_path, argv, "-S")
    assert code == 0
    assert "pathlib" not in loaded


#: the subcommands that integrate a closed path, whose circulation memo
#: must need no lock from threading.  A site .pth file may load threading
#: (zipfile imports it), so these run without site.
MEMO_FOOTPRINTS = [argv for argv, _ in FOOTPRINTS if "--circle" in argv]


@pytest.mark.parametrize("argv", MEMO_FOOTPRINTS)
def test_circulation_memo_loads_no_threading(argv):
    code, loaded = json.loads(run_python("-S", "-c", FOOTPRINT, *argv))
    assert code == 0
    assert "threading" not in loaded


def test_stokes_report_loads_dataclasses_on_first_use():
    out = run_python(
        "-S", "-c",
        "import sys\n"
        "import abflux.stokes\n"
        "from abflux import SolenoidField\n"
        "print('dataclasses' in sys.modules)\n"
        "abflux.stokes.verify_stokes(SolenoidField(2.0, 1.0, 0.7), 3.0)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert out == "False\nTrue\n"


def test_library_layers_load_no_loader():
    out = run_python(
        "-c",
        "import json, sys\n"
        "import abflux.stokes\n"
        "print(json.dumps(sorted({'csv', 'abflux.loaders'} & set(sys.modules))))\n"
    )
    assert json.loads(out) == []


class TestHelp:
    def test_top_level_lists_every_subcommand(self):
        out = run_python("-m", "abflux", "--help")
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("argv", [
        *((name,) for name in SUBCOMMANDS),
        *(("quantize", name) for name in QUANTIZE_COMMANDS),
    ])
    def test_subcommand_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: abflux " + " ".join(argv))
