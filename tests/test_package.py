"""The package surface, resolved lazily, and what each subcommand loads."""

import importlib
import json

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

    def test_import_loads_no_layer(self):
        out = run_python(
            "-c",
            "import json, sys\n"
            "import abflux\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('abflux.'))\n"
            "print(json.dumps([loaded, abflux.geometry.circulation.__name__]))\n"
        )
        assert json.loads(out) == [[], "circulation"]


FOOTPRINT = """\
import contextlib, io, json, sys
from abflux import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


#: loaded only for StokesReport, the one dataclass; the value types are
#: records (abflux._record), so no other subcommand imports them
DATACLASSES = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, absent", [
    (("quantize", "check", "1/3", "--N", "3"),
     {"abflux.fields", "abflux.geometry", "abflux.stokes", "abflux.phase", *DATACLASSES}),
    (("quantize", "spectrum", "--N", "3", "--n-min", "-1", "--n-max", "1"), DATACLASSES),
    (("quantize", "infer", "2/3", "-1/3"), DATACLASSES),
    (("quantize", "kappa", "3", "2/3"), DATACLASSES),
    (("circulation", "--gamma", "1", "--circle", "r=3"),
     {"abflux.quantize", "abflux.stokes", "fractions", *DATACLASSES}),
    (("flux", "--B", "1", "--L", "2"), DATACLASSES),
    (("phase", "--q", "1", "--gamma", "0.5"), DATACLASSES),
    (("phase", "--q", "1", "--gamma", "0.5", "--circle", "r=2"), DATACLASSES),
    (("interfere", "--q", "1", "--samples", "3"), DATACLASSES),
    (("stokes", "--B", "1", "--R", "1", "--L", "2"),
     {"abflux.quantize", "abflux.phase"}),
])
def test_subcommand_import_footprint(argv, absent):
    code, loaded = json.loads(run_python("-c", FOOTPRINT, *argv))
    assert code == 0
    assert absent.isdisjoint(loaded)


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
