"""Tests for the decimal routes: the doubles of ``--float --unnormalized``
against the mpmath route they replaced, ln Gamma against mpmath within the
route's own error bound, exact rational masses, the double range, and
``nstr`` against mpmath's.  ``errata``'s printed display is held against
mpmath's in ``test_closed_form.py``."""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

import _fraction_reference as reference
from _strategies import SPECS, corner_examples
from hankelinv.closed_form import explicit_det, explicit_inverse
from hankelinv.doubles import _log_gammas, nstr, scaled_doubles
from hankelinv.gram import gram_schmidt, kernel_eval, moment_matrix
from hankelinv.orthopoly import FamilySpec


_COMMANDS = ("gen", "det", "inv", "kernel")
_POINTS = st.fractions(-3, 3, max_denominator=9)


def _command_values(spec: FamilySpec, n: int, command: str, x: Fraction, y: Fraction):
    """The exact values a CLI command prints and the power of the mass that
    --unnormalized multiplies them by."""
    if command == "gen":
        return [v for row in moment_matrix(spec, n).rows for v in row], 1
    if command == "det":
        return [explicit_det(spec, n)], n + 1
    if command == "inv":
        return [v for row in explicit_inverse(spec, n).rows for v in row], -1
    return [kernel_eval(gram_schmidt(spec, n), x, y)], -1


def _at_digits(doubles: list[float], digits: int) -> list[float]:
    return doubles if digits >= 17 else [float(f"{d:.{digits}g}") for d in doubles]


def _log_gamma(s: Fraction, digits: int) -> tuple[Decimal, Decimal]:
    """ln Gamma(s) and its error bound, as a product of one Gamma."""
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        return _log_gammas(Fraction(0), (s,), ())


class TestScaledDoubles:
    @given(
        spec=SPECS,
        n=st.integers(0, 12),
        command=st.sampled_from(_COMMANDS),
        digits=st.integers(1, 300),
        x=_POINTS,
        y=_POINTS,
    )
    @corner_examples(n=12, command="inv", digits=17, x=Fraction(1, 2), y=Fraction(-1, 3))
    def test_equals_the_mpmath_route(self, spec, n, command, digits, x, y):
        values, power = _command_values(spec, n, command, x, y)
        doubles = _at_digits(scaled_doubles(values, spec, power), digits)
        assert doubles == reference.scaled_doubles(values, spec, power, digits)

    @given(
        s=st.fractions(Fraction(1, 10**4), 10**4, max_denominator=10**4),
        digits=st.sampled_from([30, 60, 120, 240, 300]),
    )
    @example(s=Fraction(10**50 + 1, 3), digits=30)  # alpha huge: no shift
    @example(s=Fraction(1, 10**30), digits=30)  # alpha -> -1: s near 0
    @example(s=Fraction(1, 10**30), digits=300)
    def test_log_gamma_within_its_bound(self, s, digits):
        value, error = _log_gamma(s, digits)
        with mp.workdps(digits + 20):
            exact = mp.loggamma(mp.mpf(s.numerator) / s.denominator)
            assert abs(mp.mpf(str(value)) - exact) <= mp.mpf(str(error))
            # within a few digits of the precision, so that 30 digits settle
            # almost every double
            assert mp.mpf(str(error)) <= mp.mpf(10) ** (6 - digits) * max(1, abs(exact))

    @pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 2), (3, 0)])
    def test_rational_mass_is_exact(self, alpha, beta):
        # 2^(a+b+1) a! b! / (a+b+1)! is rational, so each product is an
        # exact rational that float() rounds; the last two values put the
        # product on a midpoint between two doubles, where only the cap ends
        # the loop and the tie goes to even
        spec = FamilySpec.jacobi(alpha, beta)
        mass = Fraction(2) ** (alpha + beta + 1) * factorial(alpha) * factorial(beta)
        mass /= factorial(alpha + beta + 1)
        ties = [Fraction(2**53 + 1, 2**53) / mass, -Fraction(2**53 + 3, 2**53) / mass]
        for command in _COMMANDS:
            values, power = _command_values(spec, 5, command, Fraction(1, 2), Fraction(1, 3))
            values += [tie / mass ** (power - 1) for tie in ties]
            expected = [float(v * mass**power) for v in values]
            assert scaled_doubles(values, spec, power) == expected
            assert expected[-2:] == [1.0, -(1 + 2**-51)]

    def test_out_of_double_range_is_decided_from_the_log(self):
        # Gamma(10^50) has no double; decimal's exp would trap on it
        spec = FamilySpec.laguerre(10**50)
        assert scaled_doubles([Fraction(1), Fraction(-3)], spec, 1) == [math.inf, -math.inf]
        assert scaled_doubles([Fraction(1), Fraction(-3)], spec, -1) == [0.0, -0.0]
        assert scaled_doubles([Fraction(0)], spec, 1) == [0.0]

    def test_double_range_edges_round_as_float_does(self):
        # mass 2 at jacobi (0, 0): 2 v is the exact value float() rounds
        values = [Fraction(2**1024 - 2**970, 2), Fraction(2**1024 - 2**971, 2),
                  Fraction(1, 2**1076), Fraction(3, 2**1077), Fraction(7, 2**1060)]
        expected = [math.inf, *(float(2 * v) for v in values[1:])]
        assert scaled_doubles(values, FamilySpec.jacobi(0, 0), 1) == expected


class TestNstr:
    @given(
        mantissa=st.integers(-(2**200), 2**200),
        exponent=st.integers(-1200, 1200),
        digits=st.integers(1, 500),
    )
    @example(mantissa=1, exponent=0, digits=1)  # 1.0
    @example(mantissa=0, exponent=0, digits=17)
    @example(mantissa=1, exponent=-3, digits=2)  # a tie, rounded away from zero
    @example(mantissa=-5, exponent=-1, digits=1)
    @example(mantissa=99999, exponent=0, digits=4)  # carries into a new digit
    @example(mantissa=2**40 + 1, exponent=-5000, digits=500)  # below 1e-1053
    def test_property_equals_mpmath(self, mantissa, exponent, digits):
        # m 2^e is exact both as a Fraction and as an mpmath number
        value = Fraction(mantissa) * Fraction(2) ** exponent
        expected = mp.nstr(mp.ldexp(mantissa, exponent), digits)
        assert nstr(value, digits) == nstr(_exact_decimal(value), digits) == expected

    @pytest.mark.parametrize("digits", [1, 2, 3, 16, 17, 18, 30, 300])
    def test_fixed_and_exponent_forms_switch_where_mpmath_does(self, digits):
        # fixed point while min(-(digits // 3), -5) < lead < digits, for the
        # decimal exponent lead of the leading digit; at --digits 1, 8.0e-5
        # but 0.0004
        edges = {-(digits // 3), -5, digits}
        for lead in {lead + step for lead in edges for step in (-1, 0, 1)} | {0}:
            for figures in ("1", "8", "123456789"):
                value = Fraction(int(figures)) * Fraction(10) ** (lead - len(figures) + 1)
                with mp.workdps(digits + 30):
                    expected = mp.nstr(mp.mpf(value.numerator) / value.denominator, digits)
                assert nstr(value, digits) == expected, (lead, figures)

    @pytest.mark.parametrize(
        ("value", "expected"),
        [(Decimal("NaN"), "nan"), (Decimal("Infinity"), "+inf"), (Decimal("-Infinity"), "-inf")],
    )
    def test_special_values(self, value, expected):
        number = mp.nan if value.is_nan() else mp.inf if value > 0 else -mp.inf
        assert nstr(value, 5) == mp.nstr(number, 5) == expected


def _exact_decimal(value: Fraction) -> Decimal:
    """A dyadic Fraction as the Decimal of its terminating expansion."""
    places = value.denominator.bit_length() - 1
    return Decimal(f"{value.numerator * 5**places}E-{places}")
