"""Solenoid gauge potentials, flux/circulation verification, loop phases,
and exact charge-lattice arithmetic.

``import abflux`` loads no layer module.  Each exported name, and each
layer submodule (``abflux.geometry`` and so on), resolves on first
access: the module that owns it is imported then, and the name is kept
in the package namespace from there on.  ``from abflux import X`` and
``from abflux import *`` work as with eager imports.
"""

import importlib

__version__ = "0.1.0"

#: module -> names it exports through the package
_EXPORTS = {
    "errors": (
        "AbfluxError",
        "AxisSingularity",
        "EmptyChargeSet",
        "FieldUndefinedOnSolenoid",
        "InvalidRadius",
        "PathCrossesSolenoid",
        "PathTouchesAxis",
        "QuadratureNotConverged",
        "StencilCrossesSolenoid",
        "WindingUnresolvable",
    ),
    "fields": (
        "BOUNDARY_BAND",
        "Point",
        "QuadratureSpec",
        "SolenoidField",
        "Vec3",
        "ab_standard",
        "curl_fd",
        "eval_A",
        "eval_B",
        "gauge_shift",
    ),
    "geometry": (
        "PATH_CLEARANCE",
        "Circle",
        "ClosedPath",
        "Polyline",
        "circulation",
        "flux_direct",
        "segment_integral",
        "winding_number",
    ),
    "loaders": ("load_circle_json", "load_polyline_csv"),
    "phase": (
        "InterferometerGeometry",
        "PhaseFactor",
        "holonomy",
        "interference",
        "interference_csv",
        "phase_closed_form",
        "phases_equivalent",
    ),
    "quantize": (
        "ChargeSpectrum",
        "RationalCharge",
        "charge_allowed",
        "infer_minimal_N",
        "kappa_allowed",
        "kappa_constraints",
        "spectrum",
    ),
    "stokes": ("StokesReport", "chart_audit", "verify_stokes"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
