"""The CLI's byte contract: exact stdout, exit status and stderr prefix.

Each row of CONTRACT runs one fresh interpreter, with the interpreter
and environment of _helpers.run_python.  An argv string is the command
line after ``python -m abflux``; a tuple is the interpreter's own
arguments.  "{tmp}" in an argument is the directory that holds FILES.
A row whose stdout is None leaves it unchecked; a row with an empty
stderr prefix needs stderr empty.
"""

import shlex
import subprocess
import sys

import pytest

from _helpers import python_env

#: name -> content of the files the rows read
FILES = {
    "field.json": '{"field": {"B": 2, "R": 1, "gamma": 1}}\n',
    # the edge kernel: a five-point star about the axis, which certifies
    # some of its seed panels and splits others, more of both at 1e-12,
    # and a pentagon beside it, whose circulation is rounding noise and
    # so shows a last-bit change
    "star.csv": "3,0,0\n0.4,1.1,0.5\n-2,1.5,0\n-1.2,-0.9,-0.5\n0.9,-1.3,0\n",
    "beside.csv": "5,0,0\n4.3,1.2,0\n2.6,0.8,0\n2.7,-0.9,0\n4.1,-1.4,0\n",
    "format.json": '{"format": ""}\n',
    "format-json.json": '{"format": "json"}\n',
    "quadrature.json": '{"quadrature": {"bogus": 1}}\n',
    "circle.json": '{"center": [0, 0, 0], "radius": 3, "turns": 1}\n',
    "typo.json": '{"center": [0, 0, 0], "radius": 3, "turn": 2}\n',
}

# exact stdout bytes: a last-bit change in a ring value shows in phi_2
# and in the chart audit, which print rounding noise
STOKES_JSON = """\
{
  "phi_1": 6.28318530718,
  "phi_2": -8.881784197e-16,
  "phi_total": 6.28318530718,
  "circ_outer": 6.28318530718,
  "circ_inner": 6.28318530718,
  "discrepancy": 0.0,
  "config": {
    "field": {
      "B": 2.0,
      "R": 1.0,
      "gamma": 1.0
    },
    "L": 3.0
  }
}
"""

# a split disc whose interior values lie above half the float range:
# the kernel integrates them at half of B and doubles the result
# (geometry._integrate)
STOKES_NEAR_MAX = """\
{
  "phi_1": %s,
  "phi_2": %s,
  "phi_total": %s,
  "circ_outer": 6.28318530718,
  "circ_inner": 6.28318530718,
  "discrepancy": -%s,
  "config": {
    "field": {
      "B": %s,
      "R": %s,
      "gamma": 1.0
    },
    "L": 3.0
  }
}
"""

# a circle about the axis leaves out its centre's zero, of either sign,
# and prints the bytes of one that adds it
CENTRED_TURNS = """
from abflux.fields import Point, SolenoidField
from abflux.geometry import Circle, circulation
f = SolenoidField(B=2, R=1, gamma=0.7)
print(repr(circulation(f, Circle(Point(-0.0, 0.0), 2.0, -3))))
print(repr(circulation(f, Circle(Point(0.0, -0.0), 0.5, 2))))
"""

# one process that keeps its last split disc: flux_direct and
# chart_audit read the integrals verify_stokes stored for the same
# objects, then a second chart_audit and verify_stokes read them again,
# and a third verify_stokes with a new spec equal to the default one
# integrates them again; every repr is the value computed cold
WARM_SPLIT_DISC = """
from abflux.fields import SolenoidField
from abflux.geometry import QuadratureSpec, flux_direct
from abflux.stokes import chart_audit, verify_stokes
f = SolenoidField(B=2, R=1, gamma=1)
first = verify_stokes(f, 3)
values = [first.circ_inner, first.phi_1, first.circ_outer, flux_direct(f, 3),
          chart_audit(f, 3), chart_audit(f, 3)]
second = verify_stokes(f, 3)
values += [second.circ_inner, second.phi_1, second.circ_outer]
third = verify_stokes(f, 3, QuadratureSpec())
values += [third.circ_inner, third.phi_1, third.circ_outer]
print("\\n".join(map(repr, values)))
"""

# one process with a warm circulation memo: holonomy reads the star's
# circulation stored by the call before it, and so does the second
# circulation; every repr is the value computed cold
WARM_CIRCULATION = """
import sys
from abflux.fields import SolenoidField
from abflux.geometry import circulation
from abflux.loaders import load_polyline_csv
from abflux.phase import holonomy
f = SolenoidField(B=2, R=1, gamma=0.7)
star = load_polyline_csv(sys.argv[1])
values = [circulation(f, star), holonomy(f, star, 2).angle, circulation(f, star)]
print("\\n".join(map(repr, values)))
"""

_HELP = ("", "circulation", "flux", "stokes", "chart-audit", "phase", "interfere", "quantize",
         "quantize check", "quantize spectrum", "quantize infer", "quantize kappa")

#: (argv, exit code, stdout, stderr prefix)
CONTRACT = [
    ("circulation --B 2 --R 1 --gamma 1 --circle r=2", 0, "6.28318530718\n", ""),
    *((f"{sub} --help".lstrip(), 0, None, "") for sub in _HELP),
    ("stokes --B 2 --R 1 --gamma 1 --L 3", 0, STOKES_JSON, ""),
    # the same field from a config file prints the same bytes
    ("stokes --config {tmp}/field.json --L 3", 0, STOKES_JSON, ""),
    ("chart-audit --B 2 --R 1 --gamma 1 --L 3", 0, "8.881784197e-16\n", ""),
    ("phase --q 1 --B 0 --R 1 --gamma 0.5 --circle r=2", 0, "3.14159265359\n", ""),
    # the disc flux (geometry._disc) past and inside rho = R
    ("flux --B 2 --R 1 --gamma 1 --L 3", 0, "6.28318530718\n", ""),
    ("flux --B 2 --R 1 --gamma 1 --L 0.5", 0, "1.57079632679\n", ""),
    # a flux at the top of the float range, though pi*B*rho**2 rounds to
    # inf: the disc is refused only where its integral is not finite
    ("flux --B 1.4933147795069277e+58 --R 6.190235362880833e+124 --gamma 0 "
     "--L 6.190235362880833e+124", 0, "1.79769313486e+308\n", ""),
    # a path or rim is refused only where rounding cannot tell its side
    # of rho = R: the disc flux at L = R itself, and a circle 1e-9 outside
    # R, have their values, and a circle on R is refused
    ("flux --B 2 --R 1 --gamma 1 --L 1", 0, "6.28318530718\n", ""),
    ("circulation --B 2 --R 1 --gamma 0.7 --circle r=1.000000001", 0, "4.39822971503\n", ""),
    ("circulation --B 2 --R 1 --gamma 1 --circle r=1", 1, "", "PathCrossesSolenoid: "),
    ("circulation --B 2 --R 1 --gamma 1 --circle r=2,turns=-3,cx=-0.0", 0,
     "-18.8495559215\n", ""),
    ("circulation --B 2 --R 1 --gamma 0.7 --circle r=0.5,cy=-0.0", 0, "1.57079632679\n", ""),
    (("-c", CENTRED_TURNS), 0, "-13.194689145077131\n3.141592653589793\n", ""),
    # 2*pi*gamma overflows, but this circle does not wind: its integral
    # is finite and printed, not refused
    ("circulation --gamma 1e308 --circle r=0.001,cx=10", 0, "-3.88527777847e+288\n", ""),
    # an inline turn count spelled as an integral float, as a circle file
    # may spell it, and so may the --turns and --max-subdivisions flags
    ("circulation --gamma 1 --circle r=2,turns=2.0", 0, "12.5663706144\n", ""),
    ("circulation --gamma 1 --circle r=2 --turns 2.0", 0, "12.5663706144\n", ""),
    ("flux --B 2 --R 1 --gamma 1 --L 3 --max-subdivisions 2.0", 0, "6.28318530718\n", ""),
    # the closed form, which parses its quadrature flags without the
    # quadrature engine
    ("phase --q 1 --gamma 0.5", 0, "3.14159265359\n", ""),
    # the turn count is reduced mod 1 in integers: the float 0.3*w rounds
    # away its fraction 0.05 at this w
    ("phase --q 1 --B 0 --R 1 --gamma 0.3 --w 4503599627370497", 0, "0.314159265359\n", ""),
    # quantize check and kappa print their JSON booleans without json
    ("quantize check 1/3 --N 3", 0, "true\n", ""),
    ("quantize kappa 1/2", 0, "false\n", ""),
    # a charge is a fractions.Fraction, printed "p/d", or "p" when d = 1
    ("quantize spectrum --N 3 --n-min -3 --n-max 3", 0,
     '["-1", "-2/3", "-1/3", "0", "1/3", "2/3", "1"]\n', ""),
    ("quantize infer 2/3 -1/3 1", 0, "3\n", ""),
    (("-c", WARM_SPLIT_DISC), 0,
     "6.283185307179586\n6.283185307179586\n6.283185307179585\n"
     "6.283185307179585\n8.881784197001252e-16\n8.881784197001252e-16\n"
     "6.283185307179586\n6.283185307179586\n6.283185307179585\n"
     "6.283185307179586\n6.283185307179586\n6.283185307179585\n", ""),
    ("circulation --B 2 --R 1 --gamma 0.7 --polyline {tmp}/star.csv", 0, "4.39822971503\n", ""),
    ("circulation --B 2 --R 1 --gamma 1 --polyline {tmp}/beside.csv", 0,
     "-1.12757025938e-17\n", ""),
    ("circulation --B 2 --R 1 --gamma 0.7 --polyline {tmp}/star.csv --rel-tol 1e-12", 0,
     "4.39822971503\n", ""),
    ("circulation --B 2 --R 1 --gamma 1 --polyline {tmp}/beside.csv --rel-tol 1e-12", 0,
     "-1.12757025938e-17\n", ""),
    (("-c", WARM_CIRCULATION, "{tmp}/star.csv"), 0,
     "4.398229715025706\n2.5132741228718256\n4.398229715025706\n", ""),
    # a domain error exits 1, any other ValueError exits 2; both print
    # nothing on stdout and the error class first on stderr
    ("flux --B 2 --R 1 --L -1", 1, "", "InvalidRadius:"),
    # R*R is subnormal: the split disc keeps the exterior range
    ("stokes --B 0 --R 3e-162 --gamma 1e-20 --L 6e-162", 2, "",
     "ValueError: rho*rho underflows"),
    # a disc whose flux pi*B*rho**2 overflows is refused once the kernel
    # finds its integral not finite, naming B and rho
    ("stokes --B 1e308 --R 2 --gamma 1 --L 3", 2, "",
     "ValueError: integral is not finite (inf) at B = 1e+308, rho = 2.0:"),
    ("flux --B 1e308 --R 2 --gamma 1 --L 3", 2, "",
     "ValueError: integral is not finite (inf) at B = 1e+308, rho = 2.0:"),
    # a finite integral above half the float range, whose disc integrand
    # r*(2*pi*B) or Kronrod sum overflows, is integrated at half its
    # coefficient and doubled (geometry._integrate)
    ("flux --B 4e307 --R 0.5 --gamma 1 --L 3", 0, "3.14159265359e+307\n", ""),
    ("stokes --B 4e307 --R 0.5 --gamma 1 --L 3", 0,
     STOKES_NEAR_MAX % ("3.14159265359e+307", "-8.881784197e-16", "3.14159265359e+307",
                        "3.14159265359e+307", "4e+307", "0.5"), ""),
    ("circulation --gamma 2e307 --circle r=3", 0, "1.25663706144e+308\n", ""),
    ("flux --B 2.5e307 --R 1.5 --gamma 1 --L 3", 0, "1.76714586764e+308\n", ""),
    ("flux --B 2.5e307 --R 1.5 --gamma 1 --L 1.2", 0, "1.13097335529e+308\n", ""),
    ("stokes --B 2.5e307 --R 1.5 --gamma 1 --L 3", 0,
     STOKES_NEAR_MAX % ("1.76714586764e+308", "0.0", "1.76714586764e+308",
                        "1.76714586764e+308", "2.5e+307", "1.5"), ""),
    # an integral the kernel finds not finite names the coefficient of
    # the path's side, the turns that overflow, or the disc's B and rho,
    # as the caller gave them
    ("circulation --gamma 1e308 --circle r=3", 2, "",
     "ValueError: integral is not finite (inf) at gamma = 1e+308:"),
    ("circulation --gamma 3e307 --circle r=3", 2, "",
     "ValueError: integral is not finite (inf) at gamma = 3e+307:"),
    ("circulation --B 1e308 --R 10 --gamma 1 --circle r=3", 2, "",
     "ValueError: integral is not finite (inf) at B = 1e+308:"),
    ("circulation --gamma 1e307 --circle r=3,turns=3", 2, "",
     "ValueError: integral is not finite (inf) at gamma = 1e+307, turns = 3:"),
    # lengths are in wavelengths: the wavenumber is 2*pi, not a flag
    ("interfere --q 1 --wavenumber 3", 2, "", "usage: abflux"),
    # the config's envelope and its sections' keys are checked when it is
    # loaded, by every field command, even interfere's quadrature section,
    # which it does not read; the output format is the --format flag's
    # alone, so a "format" key is unknown
    ("interfere --config {tmp}/format.json --q 1", 2, "", "ValueError:"),
    ("interfere --config {tmp}/format-json.json --q 1", 2, "",
     "ValueError: unknown config key 'format'"),
    ("interfere --config {tmp}/quadrature.json --q 1", 2, "", "ValueError:"),
    # --turns alone is not a path
    ("phase --q 1 --gamma 0.3 --turns 3", 2, "", "ValueError:"),
    # --w is the closed form's winding: a path gives its own
    ("phase --q 1 --gamma 0.5 --w 2 --circle r=2", 2, "", "ValueError: --w"),
    # --turns is for an inline circle: a circle file gives its own
    ("circulation --gamma 1 --circle-json {tmp}/circle.json --turns 2", 2, "",
     "ValueError: --turns"),
    # a circle file or inline circle with an unknown key (a mistyped
    # "turns", the old radius= spelling of r=) is refused, not read with a
    # default
    ("circulation --gamma 1 --circle-json {tmp}/typo.json", 2, "",
     "ValueError: unknown circle JSON key"),
    ("circulation --gamma 1 --circle radius=3", 2, "", "ValueError: bad circle spec item"),
    # an inline circle's value that does not parse names its key
    ("circulation --gamma 1 --circle r=2,turns=2.5", 2, "", "ValueError: circle turns"),
    # argparse refuses a turn count that is not integral, naming the flag
    ("circulation --gamma 1 --circle r=2 --turns 2.5", 2, "", "usage: abflux circulation"),
    ("circulation --gamma 1 --circle r=2,cx=abc", 2, "", "ValueError: circle cx"),
    # an empty path file name is named as given, not read as "."
    ('circulation --gamma 1 --polyline ""', 2, "", "FileNotFoundError:"),
    ('circulation --gamma 1 --circle-json ""', 2, "", "FileNotFoundError:"),
]


#: argv -> text that stderr holds past its prefix
STDERR_HOLDS = {
    "interfere --q 1 --wavenumber 3": "unrecognized arguments: --wavenumber 3",
    "circulation --gamma 1 --circle r=2 --turns 2.5":
        "argument --turns: invalid int value: '2.5'",
}

_SCRIPT_IDS = {CENTRED_TURNS: "centred turns", WARM_SPLIT_DISC: "warm split disc",
               WARM_CIRCULATION: "warm circulation memo"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The directory that holds FILES."""
    tmp = tmp_path_factory.mktemp("cli-contract")
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return tmp


@pytest.mark.parametrize("argv, code, stdout, stderr", CONTRACT,
                         ids=[a if isinstance(a, str) else _SCRIPT_IDS[a[1]]
                              for a, *_ in CONTRACT])
def test_cli_contract(files, argv, code, stdout, stderr):
    holds = STDERR_HOLDS.get(argv, "")
    if isinstance(argv, str):
        argv = ("-m", "abflux", *shlex.split(argv))
    argv = [arg.replace("{tmp}", str(files)) for arg in argv]
    result = subprocess.run([sys.executable, *argv], capture_output=True, env=python_env(),
                            timeout=120)
    err = result.stderr.decode()
    assert result.returncode == code, err
    if stdout is not None:
        assert result.stdout == stdout.encode()
    assert err.startswith(stderr) if stderr else err == ""
    assert holds in err
