import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abflux.errors import EmptyChargeSet
from abflux.phase import phases_equivalent
from abflux.quantize import (
    ChargeSpectrum,
    _parse_charge,
    charge_allowed,
    infer_minimal_N,
    kappa_allowed,
    kappa_constraints,
    spectrum,
)

nonzero_ints = st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0)
small_fractions = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=24)
)


def prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class TestRationalCharge:
    """A charge's text read into a Fraction, the one rational type."""

    def test_parse_and_str(self):
        assert _parse_charge("2/3") == Fraction(2, 3)
        assert _parse_charge("-1/3") == Fraction(-1, 3)
        assert _parse_charge(" 5 ") == Fraction(5)
        # quantize spectrum prints each charge with str: "p/d", or "p" for d = 1
        assert str(Fraction(-2, 3)) == "-2/3"
        assert str(Fraction(7)) == "7"

    def test_parse_rejects_garbage(self):
        for text in ("two thirds", "1/0"):
            with pytest.raises(ValueError, match="not a rational charge"):
                _parse_charge(text)
            with pytest.raises(ValueError, match="not a rational charge"):
                charge_allowed(text, ChargeSpectrum(3))

    def test_parse_bounds_the_exponent(self):
        # Fraction builds 10**exponent, so an unbounded exponent is an
        # unbounded cost
        for text in ("1e5000", "1e-5000", "2.5E+4301"):
            with pytest.raises(ValueError, match="exponent"):
                _parse_charge(text)
            with pytest.raises(ValueError, match="exponent"):
                infer_minimal_N([text])
        assert _parse_charge("1e4300") == Fraction(10**4300)
        assert _parse_charge("-1.5e-3") == Fraction(-3, 2000)

    @pytest.mark.parametrize("int_max_str_digits", [0, 4300])
    def test_parse_bounds_digits_whatever_the_int_limit(self, int_max_str_digits):
        # with the interpreter's limit lifted, reading a digit string takes
        # time quadratic in its length, and only _parse_charge's own bound
        # is left
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(int_max_str_digits)
        try:
            with pytest.raises(ValueError, match="more than 8600 digits"):
                _parse_charge("1" * 200_000)
            with pytest.raises(ValueError, match="more than 8600 digits"):
                kappa_allowed("1" * 200_000)
            for text in ("1" * 4302, "1/" + "3" * 4302, "9" * 4300 + "e2"):
                with pytest.raises(ValueError):
                    _parse_charge(text)
            assert _parse_charge("1e-4300") == Fraction(1, 10**4300)
            assert _parse_charge("6" * 4300 + "/" + "3" * 4300) == Fraction(2)
        finally:
            sys.set_int_max_str_digits(saved)


class TestKappaAllowed:
    def test_integer_allowed(self):
        assert kappa_allowed(Fraction(3))
        assert kappa_allowed(0)

    def test_half_rejected(self):
        assert not kappa_allowed(Fraction(1, 2))

    def test_accepts_strings(self):
        assert kappa_allowed("7")
        assert not kappa_allowed("7/2")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            kappa_allowed(0.5)

    def test_rejects_bools(self):
        # a bool is an int subclass; like a float it is refused, not read as
        # 1 or 0, by every function that takes a charge or kappa*e
        for call in (kappa_allowed, lambda x: infer_minimal_N([x, False]),
                     lambda x: charge_allowed(x, ChargeSpectrum(3)),
                     lambda x: kappa_constraints([x], 1), lambda x: kappa_constraints([1], x)):
            for value, kind in ((True, "bool"), (0.5, "float")):
                with pytest.raises(TypeError, match=f"expected an exact rational, got {kind}$"):
                    call(value)


class TestChargeAllowed:
    def test_quark_like_charges(self):
        lattice = ChargeSpectrum(3)
        assert charge_allowed(Fraction(2, 3), lattice)
        assert charge_allowed(Fraction(-1, 3), lattice)
        assert not charge_allowed(Fraction(1, 2), lattice)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            ChargeSpectrum(0)
        with pytest.raises(ValueError):
            ChargeSpectrum(-3)
        for bad in (True, False, 3.0):
            with pytest.raises(ValueError):
                ChargeSpectrum(bad)


class TestSpectrum:
    def test_enumeration(self):
        values = spectrum(ChargeSpectrum(3), -2, 3)
        assert [str(v) for v in values] == ["-2/3", "-1/3", "0", "1/3", "2/3", "1"]

    def test_integer_lattice(self):
        assert [str(v) for v in spectrum(ChargeSpectrum(1), -1, 1)] == ["-1", "0", "1"]

    def test_sixths(self):
        assert [str(v) for v in spectrum(ChargeSpectrum(6), 1, 3)] == ["1/6", "1/3", "1/2"]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            spectrum(ChargeSpectrum(3), 2, 1)

    def test_too_many_charges_rejected(self):
        with pytest.raises(ValueError):
            spectrum(ChargeSpectrum(3), 0, 10**6)
        with pytest.raises(ValueError):
            spectrum(ChargeSpectrum(3), -10**30, 10**30)

    @pytest.mark.parametrize("n_min, n_max, message", [
        (True, 2, "n_min must be an integer, got True"),
        (0.5, 2, "n_min must be an integer, got 0.5"),
        (0, 2.0, "n_max must be an integer, got 2.0"),
        (0, False, "n_max must be an integer, got False"),
    ])
    def test_non_integer_bound_rejected(self, n_min, n_max, message):
        with pytest.raises(ValueError) as info:
            spectrum(ChargeSpectrum(3), n_min, n_max)
        assert str(info.value) == message

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=-30, max_value=0),
           st.integers(min_value=0, max_value=30))
    def test_sorted_and_on_lattice(self, N, lo, hi):
        lattice = ChargeSpectrum(N)
        values = spectrum(lattice, lo, hi)
        assert all(type(v) is Fraction for v in values)
        assert values == sorted(values)
        assert all(charge_allowed(v, lattice) for v in values)


class TestInferMinimalN:
    def test_integers_only(self):
        assert infer_minimal_N([Fraction(1)]).N == 1

    def test_quark_set(self):
        assert infer_minimal_N(["2/3", "-1/3", "1"]).N == 3

    def test_mixed_denominators(self):
        assert infer_minimal_N([Fraction(1, 2), Fraction(1, 3)]).N == 6

    def test_empty_rejected(self):
        with pytest.raises(EmptyChargeSet):
            infer_minimal_N([])

    def test_huge_denominator_is_exact(self):
        p = 10**9 + 7
        lattice = infer_minimal_N([Fraction(1, p), Fraction(1, 2)])
        assert lattice.N == 2 * p
        assert charge_allowed(Fraction(1, p), lattice)

    @given(st.lists(small_fractions, min_size=1, max_size=8))
    def test_minimality(self, charges):
        lattice = infer_minimal_N(charges)
        assert all(charge_allowed(q, lattice) for q in charges)
        for p in prime_factors(lattice.N):
            smaller = ChargeSpectrum(lattice.N // p)
            assert not all(charge_allowed(q, smaller) for q in charges)


class TestKappaConstraints:
    def test_examples(self):
        assert kappa_constraints(["2/3", "-1/3"], 3)
        assert not kappa_constraints(["2/3"], 1)
        assert kappa_constraints(["2/3", "1/7", "-5"], 0)

    def test_every_charge_is_checked_before_any_is_tested(self):
        # the first charge already fails the test with kappa*e = 1, yet a
        # later one that is no exact rational is still refused, in either order
        for charges in (["1/2", "garbage"], ["garbage", "1/2"]):
            with pytest.raises(ValueError, match="not a rational charge: 'garbage'"):
                kappa_constraints(charges, 1)
        for charges in (["1/2", 1.5], [1.5, "1/2"]):
            with pytest.raises(TypeError, match="expected an exact rational, got float$"):
                kappa_constraints(charges, 1)
        assert not kappa_constraints(iter(["1/2", 1]), 1)

    @given(st.lists(small_fractions, min_size=1, max_size=6),
           st.integers(min_value=-60, max_value=60))
    def test_integer_kappa_oracle(self, charges, ke):
        # for integer kappa*e the constraint is exactly divisibility of
        # kappa*e by the lcm of the charge denominators
        lcm_d = infer_minimal_N(charges).N
        assert kappa_constraints(charges, ke) == (ke % lcm_d == 0)


class TestAntiparticleClosure:
    @pytest.mark.parametrize("N", [1, 2, 3, 6, 12])
    def test_closure(self, N):
        # a sign-symmetric range lists each charge's antiparticle, on the lattice
        lattice = ChargeSpectrum(N)
        charges = spectrum(lattice, -3 * N, 3 * N)
        negated = [-c for c in reversed(charges)]
        assert negated == charges
        assert all(charge_allowed(c, lattice) for c in negated)


class TestExactness:
    def test_no_precision_loss_round_trip(self):
        big = 10**9 + 7
        q = Fraction(big - 1, big)
        assert _parse_charge(str(q)) == q
        assert not charge_allowed(q, ChargeSpectrum(big - 1))
        assert charge_allowed(q, ChargeSpectrum(big))


class TestBridgeToPhases:
    def test_allowed_charges_have_inert_kappa_shift(self):
        # charge on the lattice {n/N} plus kappa*e = N implies the float
        # phases are equivalent: q*kappa = (p/d)*N is an integer
        rng = random.Random(79)
        for _ in range(50):
            d = rng.randint(1, 12)
            p = rng.choice([n for n in range(-12, 13) if n != 0])
            N = d * rng.randint(1, 3)
            q = Fraction(p, d)
            assert charge_allowed(q, ChargeSpectrum(N))
            gamma = rng.uniform(-2.0, 2.0)
            assert phases_equivalent(q.numerator / q.denominator, gamma, gamma + float(N),
                                     tol=1e-9)
