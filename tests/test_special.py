"""Tests for the exact scalar building blocks."""

from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest

from _fraction_reference import rising_factorials
from hankelinv.special import (
    ZeroDenominator,
    barnes_g_int,
    binomial,
    hyp_terminating,
    pochhammer,
)


class TestPochhammer:
    @pytest.mark.parametrize(
        ("a", "n", "expected"),
        [
            (Fraction(1, 2), 3, Fraction(15, 8)),
            (Fraction(1, 2), 0, Fraction(1)),
            (3, 2, Fraction(12)),
            (1, 5, Fraction(120)),
            (0, 3, Fraction(0)),
            (-2, 5, Fraction(0)),
            (Fraction(-5, 2), 2, Fraction(15, 4)),
            (Fraction(7, 3), 1, Fraction(7, 3)),
        ],
    )
    def test_values(self, a, n, expected):
        assert pochhammer(a, n) == expected

    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(-7, 5), 4])
    def test_recurrence(self, a):
        for n in range(8):
            assert pochhammer(a, n + 1) == pochhammer(a, n) * (Fraction(a) + n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)


class TestRisingFactorials:
    @pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(-7, 5), 4, 0, -2])
    def test_entries_are_the_products(self, a):
        values = rising_factorials(a, 7)
        assert all(type(v) is Fraction for v in values)
        assert values == [prod((Fraction(a) + j for j in range(k)), start=Fraction(1)) for k in range(8)]
        assert values[-1] == pochhammer(a, 7)

    def test_negative_n_gives_the_empty_product(self):
        assert rising_factorials(Fraction(1, 2), -1) == [1]


class TestBinomial:
    @pytest.mark.parametrize(
        ("n", "k", "expected"),
        [(5, 2, 10), (0, 0, 1), (6, 6, 1), (6, 0, 1), (4, 7, 0), (4, -1, 0)],
    )
    def test_values(self, n, k, expected):
        assert binomial(n, k) == Fraction(expected)

    def test_pascal(self):
        for n in range(1, 10):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestBarnesG:
    @pytest.mark.parametrize(
        ("n", "expected"), [(1, 1), (2, 1), (3, 1), (4, 2), (5, 12), (6, 288)]
    )
    def test_values(self, n, expected):
        assert barnes_g_int(n) == Fraction(expected)

    def test_recurrence(self):
        # G(n+1) = Gamma(n) G(n) at the integers
        from math import factorial

        for n in range(1, 9):
            assert barnes_g_int(n + 1) == factorial(n - 1) * barnes_g_int(n)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            barnes_g_int(0)


class TestHypTerminating:
    @pytest.mark.parametrize(
        ("m", "upper", "lower", "z", "expected"),
        [
            (0, [Fraction(7, 3)], [Fraction(1, 5)], Fraction(9), Fraction(1)),
            (1, [1], [1], 2, Fraction(-1)),
            (2, [1], [1], 2, Fraction(1)),
            (1, [1], [2], 2, Fraction(0)),
            (2, [3], [Fraction(3, 2)], Fraction(1, 2), Fraction(-1, 5)),
        ],
    )
    def test_values(self, m, upper, lower, z, expected):
        assert hyp_terminating(m, upper, lower, z) == expected

    @pytest.mark.parametrize("z", [Fraction(2, 3), Fraction(-3), Fraction(7, 5)])
    def test_binomial_theorem(self, z):
        # with no other parameters the sum collapses to (1 - z)^m
        for m in range(9):
            assert hyp_terminating(m, [], [], z) == (1 - z) ** m

    def test_chu_vandermonde(self):
        b, c = Fraction(2, 3), Fraction(7, 4)
        for m in range(7):
            assert hyp_terminating(m, [b], [c], 1) == pochhammer(c - b, m) / pochhammer(c, m)

    @pytest.mark.parametrize(("m", "lower"), [(3, Fraction(-2)), (1, Fraction(0))])
    def test_zero_denominator(self, m, lower):
        with pytest.raises(ZeroDenominator, match="lower parameter"):
            hyp_terminating(m, [Fraction(1)], [lower], Fraction(1))

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            hyp_terminating(-1, [], [], 1)
