"""Exact rational arithmetic for the charge-lattice conditions.

Charges are measured in units of the reference charge e (the electron's)
and kappa in units of 1/e, so every condition below is a statement about
exact rationals.  No floating point enters this module; denominators may
be arbitrarily large, except that _parse_charge bounds the ones it reads
from text.

The chain of conditions: a loop phase is unobservable iff q*kappa is an
integer for every realizable charge q.  Applying that to the reference
charge forces kappa*e to be an integer N_k; applying it back to an
arbitrary charge forces q = (integer / N_k) * e, and removing the
kappa-dependence leaves a single universal denominator N, i.e. every
charge is an integer multiple of e/N.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from ._record import Record
from .errors import EmptyChargeSet

#: Most charges one spectrum may list; the list is held in memory, so the
#: bound caps the memory a spectrum call uses.
_MAX_CHARGES = 10**6

#: Largest decimal exponent magnitude _parse_charge accepts: Fraction
#: builds 10**exponent.  In lowest terms a parsed numerator or denominator
#: may have one digit more, as 10**_MAX_EXPONENT does.
_MAX_EXPONENT = 4300

#: Most decimal digits an int may have to print under the interpreter's
#: default int-string limit.  _parse_charge reads at most twice as many
#: digits from one text (a numerator and a denominator), whatever that
#: limit is set to, since reading a digit string takes time quadratic in
#: its length.
_MAX_DIGITS = 4300

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _parse_charge(text: str) -> Fraction:
    """Parse "p/d", "p" or a decimal such as "-1.5e3".

    A text of more than 8600 digits, a decimal exponent beyond 4300
    in magnitude, or a numerator or denominator of more than 4301
    digits in lowest terms is a ValueError.
    """
    if sum(map(str.isdecimal, text)) > 2 * _MAX_DIGITS:
        raise ValueError(f"charge text holds more than {2 * _MAX_DIGITS} digits")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
        raise ValueError(f"exponent of {text!r} exceeds {_MAX_EXPONENT} in magnitude")
    try:
        frac = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational charge: {text!r}") from exc
    most = _MAX_EXPONENT + 1
    if _too_long(frac.numerator, most) or _too_long(frac.denominator, most):
        raise ValueError(
            f"{text!r} in lowest terms has a numerator or denominator of more than "
            f"{most} digits"
        )
    return frac


RationalLike = Fraction | int | str


def _too_long(value: int, digits: int) -> bool:
    """True when |value| has more than `digits` decimal digits.  Since
    2**(3*digits) < 10**digits, a shorter value needs no power built."""
    return value.bit_length() > 3 * digits and abs(value) >= 10**digits


def _require_printable(value: int, label: str) -> None:
    """ValueError naming label when value has more digits than the
    interpreter's default int-string limit lets it print."""
    if _too_long(value, _MAX_DIGITS):
        raise ValueError(f"{label} has more than {_MAX_DIGITS} digits, too many to print")


class ChargeSpectrum(Record):
    """Charge lattice {n/N * e : n integer}; N is the universal denominator."""

    __slots__ = _fields = ("N",)

    def __init__(self, N: int):
        if isinstance(N, bool) or not isinstance(N, int) or N < 1:
            raise ValueError(f"N must be a positive integer, got {N!r}")
        object.__setattr__(self, "N", N)


def _as_fraction(value: RationalLike) -> Fraction:
    """The one conversion of a charge or kappa*e: a Fraction as it is, an
    int as a Fraction, a str through _parse_charge; anything else, a
    float or a bool among them, is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_charge(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def kappa_allowed(kappa_times_e: RationalLike) -> bool:
    """True when kappa*e is an integer.

    These are the kappa values whose one-turn phase is inert for the
    reference charge itself.
    """
    return _as_fraction(kappa_times_e).denominator == 1


def charge_allowed(q: RationalLike, lattice: ChargeSpectrum) -> bool:
    """True when q*N is an integer, i.e. q sits on the lattice {n/N}."""
    return (_as_fraction(q) * lattice.N).denominator == 1


def spectrum(lattice: ChargeSpectrum, n_min: int, n_max: int) -> list[Fraction]:
    """Charges n/N for n in [n_min, n_max], ascending; at most 10**6 of them.
    A bound that is not an int, or is a bool, is a ValueError."""
    for label, bound in (("n_min", n_min), ("n_max", n_max)):
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise ValueError(f"{label} must be an integer, got {bound!r}")
    if n_min > n_max:
        raise ValueError(f"empty index range [{n_min}, {n_max}]")
    if n_max - n_min >= _MAX_CHARGES:
        raise ValueError(
            f"index range [{n_min}, {n_max}] holds more than {_MAX_CHARGES} charges"
        )
    return [Fraction(n, lattice.N) for n in range(n_min, n_max + 1)]


def infer_minimal_N(charges: Iterable[RationalLike]) -> ChargeSpectrum:
    """Smallest positive N with q*N integral for every given charge.

    This is the lcm of the lowest-terms denominators; with the observed
    set {2/3, -1/3, 1} it gives N = 3.
    """
    denominators = [_as_fraction(q).denominator for q in charges]
    if not denominators:
        raise EmptyChargeSet("cannot infer a denominator from an empty charge set")
    return ChargeSpectrum(lcm(*denominators))


def kappa_constraints(charges: Iterable[RationalLike], kappa_times_e: RationalLike) -> bool:
    """True when q*kappa is an integer for every charge in the set.

    In e-units this is (q/e) * (kappa*e) integral per charge, the
    condition for the shifted exterior potential to change nothing
    observable for any of them.  Every charge is converted, and so
    checked, before any is tested.
    """
    ke = _as_fraction(kappa_times_e)
    charges = [_as_fraction(q) for q in charges]
    return all((q * ke).denominator == 1 for q in charges)

