"""The value types behave as the frozen dataclasses they replace: field
order, equality, hashing, repr, immutability, copying and validation."""

import copy
import dataclasses
import math
import pickle

import pytest

from abflux.errors import InvalidRadius
from abflux.fields import Point, SolenoidField, Vec3, ab_standard, curl_fd
from abflux.geometry import (
    Circle,
    Polyline,
    QuadratureSpec,
    arc_integral,
    flux_direct,
    sector_flux,
)
from abflux.phase import InterferometerGeometry, PhaseFactor, holonomy, phases_equivalent
from abflux.quantize import ChargeSpectrum, RationalCharge
from abflux.stokes import chart_audit, verify_stokes

SQUARE = (Point(2.0, -2.0), Point(2.0, 2.0), Point(-2.0, 2.0), Point(-2.0, -2.0))

#: (record, its field names in order, as the dataclass declared them)
RECORDS = [
    (Vec3(1.0, -2.5, 0.0), ("x", "y", "z")),
    (Point(1.0, 2.0, -0.5), ("x", "y", "z")),
    (SolenoidField(2.0, 1.0, 1.5), ("B", "R", "gamma")),
    (QuadratureSpec(rel_tol=1e-12), ("rel_tol", "abs_tol", "max_subdivisions")),
    (Circle(Point(0.5, 0.0, 1.0), 3.0, -2), ("center", "radius", "turns")),
    (Polyline(SQUARE), ("vertices",)),
    (PhaseFactor(1.25), ("angle",)),
    (InterferometerGeometry(1.0, 2.0, 3.0, 4.0, 11),
     ("slit_separation", "screen_distance", "wavenumber", "half_extent", "samples")),
    (RationalCharge(-1, 3), ("numerator", "denominator")),
    (ChargeSpectrum(3), ("N",)),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def values(record, names):
    return tuple(getattr(record, name) for name in names)


def as_dataclass(record, names):
    """The frozen dataclass the record's class used to be, holding its values."""
    cls = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    return cls(*values(record, names))


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
class TestAsDataclass:
    def test_repr_text(self, record, names):
        assert repr(record) == repr(as_dataclass(record, names))

    def test_eq_and_hash(self, record, names):
        twin = type(record)(*values(record, names))
        assert twin == record and not twin != record
        assert hash(twin) == hash(record) == hash(as_dataclass(record, names))
        assert record != as_dataclass(record, names)
        assert record.__eq__(values(record, names)) is NotImplemented

    def test_keyword_construction(self, record, names):
        assert type(record)(**dict(zip(names, values(record, names)))) == record

    def test_fields_are_read_only(self, record, names):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copy_round_trip(self, record, names, clone):
        twin = clone(record)
        assert type(twin) is type(record)
        assert twin == record and values(twin, names) == values(record, names)


def test_records_of_equal_values_differ_by_class():
    assert Vec3(1.0, 2.0, 3.0) != Point(1.0, 2.0, 3.0)
    assert PhaseFactor(1.0) != PhaseFactor(2.0)


def test_defaults_and_positional_construction():
    assert Point(1.0, 2.0) == Point(1.0, 2.0, 0.0) == Point(x=1.0, y=2.0)
    assert values(QuadratureSpec(), ("rel_tol", "abs_tol", "max_subdivisions")) == (
        1e-9, 1e-12, 2**20)
    assert QuadratureSpec(1e-6, 1e-8, 5) == QuadratureSpec(
        rel_tol=1e-6, abs_tol=1e-8, max_subdivisions=5)
    assert Circle(Point(0.0, 0.0), 2.0).turns == 1
    assert InterferometerGeometry(1.0, 2.0, 3.0, 4.0).samples == 201
    assert RationalCharge(5) == RationalCharge(5, 1)


def test_normalizing_constructors():
    assert values(RationalCharge(4, -6), ("numerator", "denominator")) == (-2, 3)
    assert PhaseFactor(-1.0).angle == -1.0 % math.tau
    assert Polyline(list(SQUARE)).vertices == SQUARE


@pytest.mark.parametrize("build, error, message", [
    (lambda: Vec3(0.0, math.nan, 0.0), ValueError, "Vec3 component must be finite, got nan"),
    (lambda: Point(math.inf, 0.0), ValueError, "Point coordinate must be finite, got inf"),
    (lambda: Point(0.0, 10**400), ValueError, "Point coordinate is beyond floating-point range"),
    (lambda: SolenoidField(1.0, 0.0, 1.0), InvalidRadius,
     "solenoid radius must be positive, got 0.0"),
    (lambda: SolenoidField(math.nan, 1.0, 1.0), ValueError,
     "field parameter must be finite, got nan"),
    (lambda: SolenoidField(1.0, 1.0, -(10**400)), ValueError,
     "field parameter is beyond floating-point range"),
    (lambda: QuadratureSpec(abs_tol=0.0), ValueError,
     "quadrature tolerance must be positive, got 0.0"),
    (lambda: QuadratureSpec(max_subdivisions=True), ValueError,
     "max_subdivisions must be a nonnegative integer, got True"),
    (lambda: Circle(Point(0.0, 0.0), -1.0), ValueError, "circle radius must be positive, got -1.0"),
    (lambda: Circle(Point(0.0, 0.0), 1.0, 0), ValueError,
     "turns must be a nonzero integer, got 0"),
    (lambda: Circle(Point(0.0, 0.0), 1.0, 10**400), ValueError,
     "turns is beyond floating-point range"),
    (lambda: Polyline(SQUARE[:2]), ValueError, "a closed polyline needs at least 3 vertices"),
    (lambda: PhaseFactor(math.inf), ValueError, "phase angle must be finite, got inf"),
    (lambda: PhaseFactor(10**400), ValueError, "phase angle is beyond floating-point range"),
    (lambda: PhaseFactor.from_turns(10**400), ValueError,
     "turn count is beyond floating-point range"),
    (lambda: InterferometerGeometry(1.0, 0.0, 1.0, 1.0), ValueError,
     "screen_distance must be positive, got 0.0"),
    (lambda: InterferometerGeometry(1.0, 1.0, 1.0, 1.0, 2.0), ValueError,
     "samples must be an integer, got 2.0"),
    (lambda: InterferometerGeometry(1.0, 1.0, 1.0, 1.0, 1), ValueError,
     "samples must be between 2 and 1000000, got 1"),
    (lambda: RationalCharge(1, 0), ValueError, "denominator must be nonzero"),
    (lambda: ChargeSpectrum(0), ValueError, "N must be a positive integer, got 0"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


F = SolenoidField(2.0, 1.0, 1.0)
#: numbers an entry point below may refuse, each with its own error class
ODD_NUMBERS = {"nan": math.nan, "inf": math.inf, "0.0": 0.0, "-1.0": -1.0}

#: (entry point with one number x left open, the error it raises for each
#: of ODD_NUMBERS in order, or None where that x is accepted)
POSITIVE_INPUTS = {
    "SolenoidField R": (lambda x: SolenoidField(2.0, x, 1.0), (InvalidRadius,) * 4),
    "curl_fd h": (lambda x: curl_fd(F, Point(3.0, 0.0), x), (ValueError,) * 4),
    "QuadratureSpec abs_tol": (lambda x: QuadratureSpec(abs_tol=x), (ValueError,) * 4),
    "Circle radius": (lambda x: Circle(Point(0.0, 0.0), x), (ValueError,) * 4),
    "arc_integral rho": (lambda x: arc_integral(F, x, 0.0, 1.0), (InvalidRadius,) * 4),
    "flux_direct L": (lambda x: flux_direct(F, x), (InvalidRadius,) * 4),
    "sector_flux rho_max": (lambda x: sector_flux(F, 0.0, x, 0.0, 1.0), (ValueError,) * 4),
    "verify_stokes L": (lambda x: verify_stokes(F, x), (InvalidRadius,) * 4),
    "chart_audit L": (lambda x: chart_audit(F, x), (InvalidRadius,) * 4),
    "InterferometerGeometry screen_distance": (
        lambda x: InterferometerGeometry(1.0, x, 1.0, 1.0), (ValueError,) * 4),
    "ab_standard R": (lambda x: ab_standard(2.0, x), (InvalidRadius,) * 4),
    "holonomy q": (lambda x: holonomy(F, Circle(Point(0.0, 0.0), 2.0), x),
                   (ValueError, ValueError, None, None)),
    "Point.from_cylindrical rho": (lambda x: Point.from_cylindrical(x, 0.0),
                                   (ValueError, ValueError, None, None)),
    "phases_equivalent tol": (lambda x: phases_equivalent(1.0, 0.0, 0.5, tol=x),
                              (ValueError,) * 4),
    "PhaseFactor.isclose tol": (lambda x: PhaseFactor(1.0).isclose(PhaseFactor(1.0), tol=x),
                                (ValueError,) * 4),
}


@pytest.mark.parametrize("value", ["10**400", *ODD_NUMBERS])
@pytest.mark.parametrize("name", POSITIVE_INPUTS)
def test_positive_number_check(name, value):
    # an int past float range is refused as one, never a bare
    # OverflowError; every other value keeps its entry point's error class
    call, errors = POSITIVE_INPUTS[name]
    if value == "10**400":
        with pytest.raises(ValueError, match="is beyond floating-point range$"):
            call(10**400)
        return
    error = dict(zip(ODD_NUMBERS, errors))[value]
    if error is None:
        call(ODD_NUMBERS[value])
        return
    with pytest.raises(error) as info:
        call(ODD_NUMBERS[value])
    assert type(info.value) is error
