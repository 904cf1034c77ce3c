"""Tests for the closed-form determinants, inverses, and the float-only paths.

Every closed form is held against the elimination oracle on a parameter
sample that includes the removable-singularity corner alpha + beta = -1; the
full-grid agreement sweep lives in the acceptance battery.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from mpmath import mp

import _fraction_reference as reference
from _strategies import FAMILY_SPECS, SPECS, corner_examples
from hankelinv.closed_form import (
    MAX_DIGITS,
    MAX_ERRATA_DIGITS,
    DiscrepancyNote,
    explicit_det,
    explicit_inverse,
    jacobi_det_as_printed,
    unnormalized_scale,
)
from hankelinv import doubles
from hankelinv.doubles import nstr
from hankelinv.elimination import bareiss_det, gauss_inverse
from hankelinv.gram import ExactMatrix, moment_matrix
from hankelinv.orthopoly import Family, FamilySpec

HERMITE = FamilySpec.hermite()
HILBERT = FamilySpec.shifted_jacobi(0, 0)

SAMPLE = [
    HERMITE,
    FamilySpec.laguerre(0),
    FamilySpec.laguerre(Fraction(-1, 2)),
    FamilySpec.laguerre(Fraction(7, 3)),
    FamilySpec.gegenbauer(Fraction(-1, 4)),
    FamilySpec.gegenbauer(Fraction(3, 2)),
    FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
    FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
    FamilySpec.jacobi(2, 3),
    HILBERT,
    FamilySpec.shifted_jacobi(Fraction(-1, 2), Fraction(-1, 2)),
    FamilySpec.shifted_jacobi(Fraction(1, 2), Fraction(-1, 2)),
]

_IDS = [f"{s.family.value}-{i}" for i, s in enumerate(SAMPLE)]


class TestExplicitDet:
    @pytest.mark.parametrize(
        ("n", "expected"),
        [(0, 1), (1, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(3, 16)), (4, Fraction(9, 32))],
    )
    def test_hermite_frozen(self, n, expected):
        assert explicit_det(HERMITE, n) == expected

    @pytest.mark.parametrize(
        ("spec", "n", "expected"),
        [
            (FamilySpec.laguerre(0), 1, Fraction(1)),
            (FamilySpec.laguerre(0), 2, Fraction(4)),
            (FamilySpec.laguerre(1), 2, Fraction(24)),
            (FamilySpec.laguerre(Fraction(7, 3)), 1, Fraction(10, 3)),
            (FamilySpec.gegenbauer(Fraction(1, 2)), 2, Fraction(4, 135)),
            (FamilySpec.gegenbauer(1), 2, Fraction(1, 64)),
            (FamilySpec.jacobi(0, 0), 2, Fraction(4, 135)),
            (HILBERT, 2, Fraction(1, 2160)),
            # the corners: alpha + beta = -1 and lambda near -1/2
            (FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)), 1, Fraction(4, 9)),
            (FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)), 2, Fraction(320, 6561)),
            (FamilySpec.shifted_jacobi(Fraction(-1, 3), Fraction(-2, 3)), 2, Fraction(5, 6561)),
            (FamilySpec.gegenbauer(Fraction(-4, 9)), 2, Fraction(729, 14000)),
        ],
    )
    def test_frozen_values(self, spec, n, expected):
        assert explicit_det(spec, n) == expected

    @pytest.mark.parametrize("spec", SAMPLE, ids=_IDS)
    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_agrees_with_elimination(self, spec, n):
        assert explicit_det(spec, n) == bareiss_det(moment_matrix(spec, n))


# the three families of the corrected jacobi display, off its c = 0 corner,
# which the properties against the norm products cover
_DISPLAY_SPECS = st.one_of(
    *(FAMILY_SPECS[fam] for fam in (Family.GEGENBAUER, Family.JACOBI, Family.SHIFTED_JACOBI))
).filter(lambda spec: spec.family is Family.GEGENBAUER or spec.alpha + spec.beta != -1)


class TestJacobiDisplay:
    @given(spec=_DISPLAY_SPECS, n=st.integers(0, 12))
    @example(spec=FamilySpec.gegenbauer(Fraction(-4, 9)), n=12)
    @example(spec=FamilySpec.jacobi(Fraction(-8, 9), 9), n=12)
    @example(spec=FamilySpec.shifted_jacobi(9, Fraction(-8, 9)), n=12)
    def test_explicit_det_is_the_display(self, spec, n):
        assert explicit_det(spec, n) == reference.jacobi_det_display(spec, n)

    @given(lam=FAMILY_SPECS[Family.GEGENBAUER].map(lambda spec: spec.lam), n=st.integers(0, 8))
    @example(lam=Fraction(-4, 9), n=8)
    def test_gegenbauer_is_jacobi_at_lambda_minus_half(self, lam, n):
        half = lam - Fraction(1, 2)
        assert moment_matrix(FamilySpec.gegenbauer(lam), n) == moment_matrix(
            FamilySpec.jacobi(half, half), n
        )


class TestExplicitInverse:
    @pytest.mark.parametrize(
        ("spec", "n", "rows"),
        [
            (
                HERMITE,
                2,
                [[Fraction(3, 2), 0, -1], [0, 2, 0], [-1, 0, 2]],
            ),
            (FamilySpec.laguerre(0), 1, [[2, -1], [-1, 1]]),
            (HILBERT, 1, [[4, -6], [-6, 12]]),
            (FamilySpec.jacobi(0, 0), 1, [[1, 0], [0, 3]]),
        ],
    )
    def test_frozen_values(self, spec, n, rows):
        assert explicit_inverse(spec, n) == ExactMatrix(rows)

    @pytest.mark.parametrize("spec", SAMPLE, ids=_IDS)
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_agrees_with_elimination(self, spec, n):
        assert explicit_inverse(spec, n) == gauss_inverse(moment_matrix(spec, n))

    @pytest.mark.parametrize("spec", SAMPLE, ids=_IDS)
    def test_inverts_the_matrix(self, spec):
        n = 6
        product = explicit_inverse(spec, n) @ moment_matrix(spec, n)
        assert product == ExactMatrix.identity(n + 1)

    @given(spec=SPECS, n=st.integers(0, 10))
    @corner_examples(n=10)
    def test_property_matches_elimination(self, spec, n):
        matrix = moment_matrix(spec, n)
        assert explicit_inverse(spec, n) == gauss_inverse(matrix)
        assert explicit_det(spec, n) == bareiss_det(matrix)

    def test_hilbert_inverse_is_integer(self):
        inverse = explicit_inverse(HILBERT, 5)
        assert all(v.denominator == 1 for row in inverse.rows for v in row)


class TestJacobiDetAsPrinted:
    @pytest.mark.parametrize(
        ("alpha", "beta", "n"),
        [(0, 0, 1), (Fraction(1, 2), Fraction(-1, 2), 2), (2, 3, 3)],
    )
    def test_report_structure(self, alpha, beta, n):
        spec = FamilySpec.jacobi(alpha, beta)
        note = jacobi_det_as_printed(spec, n)
        assert isinstance(note, DiscrepancyNote)
        assert note.exact == bareiss_det(moment_matrix(spec, n))
        assert note.digits == 17
        assert note.tolerance == Decimal("3.1623e-9")
        assert isinstance(note.agrees, bool)
        assert note.printed.is_finite() and note.rel_error >= 0
        # the verdict itself is informational and deliberately not asserted

    def test_gamma_pole_corner_is_reported_as_nan(self):
        # alpha + beta = -1 is in the domain but a pole of the printed display
        spec = FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2))
        note = jacobi_det_as_printed(spec, 3)
        assert note.printed.is_nan()
        assert note.exact == bareiss_det(moment_matrix(spec, 3)) == Fraction(1, 512)
        assert note.rel_error == Decimal("Infinity")
        assert note.agrees is False

    @pytest.mark.parametrize(
        ("alpha", "beta", "n"),
        [
            (Fraction(1, 3), Fraction(1, 5), 3),
            (2, 3, 5),
            (Fraction(-1, 2), Fraction(1, 7), 4),
            (Fraction(7, 8), Fraction(-5, 9), 6),
            (Fraction(1, 8), Fraction(1, 9), 10),
        ],
    )
    def test_printed_display_is_off_by_its_per_row_factor(self, alpha, beta, n):
        # the printed per-row factor Gamma(a+b+1) pi / Gamma(a+b+1)^2 should
        # read Gamma(a+b+2) pi / (Gamma(a+1) Gamma(b+1)), so exact / printed
        # is C^(n+1) with C their ratio
        spec = FamilySpec.jacobi(alpha, beta)
        note = jacobi_det_as_printed(spec, n, 60)
        with mp.workdps(75):
            a, b = (mp.mpf(v.numerator) / v.denominator for v in (spec.alpha, spec.beta))
            per_row = (
                mp.gamma(a + b + 1) * mp.gamma(a + b + 2) / (mp.gamma(a + 1) * mp.gamma(b + 1))
            )
            ratio = mp.mpf(note.exact.numerator) / note.exact.denominator / mp.mpf(str(note.printed))
            assert abs(ratio / per_row ** (n + 1) - 1) < mp.mpf(10) ** -50

    @given(
        spec=FAMILY_SPECS[Family.JACOBI], n=st.integers(0, 12), digits=st.integers(1, 60)
    )
    @example(spec=FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2)), n=3, digits=17)
    @example(spec=FamilySpec.jacobi(Fraction(-8, 9), Fraction(-1, 9)), n=12, digits=60)
    @example(spec=FamilySpec.jacobi(Fraction(-8, 9), 9), n=12, digits=1)
    @example(spec=FamilySpec.jacobi(2, 3), n=12, digits=60)
    def test_property_equals_the_mpmath_display(self, spec, n, digits):
        # the mpmath display at 40 more digits, rounded to digits: the
        # printed value, its relative error and the verdict all agree
        note = jacobi_det_as_printed(spec, n, digits)
        printed = reference.printed_jacobi_det(spec, n, digits + 40)
        if mp.isnan(printed):
            assert note.printed.is_nan() and note.rel_error.is_infinite()
            assert note.agrees is False
            return
        assert nstr(note.printed, digits) == mp.nstr(printed, digits)
        with mp.workdps(digits + 40):
            exact = mp.mpf(note.exact.numerator) / note.exact.denominator
            rel_error = abs(printed - exact) / exact
            assert nstr(note.rel_error, 5) == mp.nstr(rel_error, 5)
            assert note.agrees == (rel_error <= mp.mpf(10) ** (-mp.mpf(digits) / 2))

    @given(spec=FAMILY_SPECS[Family.JACOBI], n=st.integers(0, 20))
    @example(spec=FamilySpec.jacobi(Fraction(-8, 9), Fraction(-8, 9)), n=20)
    @example(spec=FamilySpec.jacobi(Fraction(-8, 9), 9), n=20)
    @example(spec=FamilySpec.jacobi(Fraction(-1, 2), Fraction(-4, 9)), n=20)
    @example(spec=FamilySpec.jacobi(9, 9), n=20)
    def test_property_display_ratio_is_c_power_times_corrected_det(self, spec, n):
        # the display's rational part, reduced term by term from its Barnes G
        # form, is c^(n+1) times the corrected determinant; that errata prints
        # it times its Gamma power is test_property_equals_the_mpmath_display's
        c = spec.alpha + spec.beta + 1
        assume(c)
        assert reference.display_ratio(spec, n) == c ** (n + 1) * explicit_det(spec, n)

    @pytest.mark.parametrize(
        ("alpha", "beta", "n", "digits"),
        [
            (Fraction(1, 8), Fraction(1, 9), 10, 17),
            (Fraction(1, 3), Fraction(1, 5), 3, 60),
            (Fraction(-8, 9), Fraction(-1, 3), 12, 5),
            (Fraction(7, 3), 9, 40, 30),
        ],
    )
    def test_ziv_retries_reach_the_same_report(self, alpha, beta, n, digits, monkeypatch):
        # one guard digit leaves the first pass's interval too wide to
        # settle the digits, so the loop must redo it at a higher precision
        spec = FamilySpec.jacobi(alpha, beta)
        expected = jacobi_det_as_printed(spec, n, digits)
        monkeypatch.setattr(doubles, "_ERRATA_GUARD", 1)
        assert jacobi_det_as_printed(spec, n, digits) == expected

    @pytest.mark.parametrize(("alpha", "beta"), [(0, 0), (2, 3), (0, 7)])
    @pytest.mark.parametrize("digits", [5, 17, 60])
    def test_integer_parameters_are_exact(self, alpha, beta, digits):
        # the Gamma part is the rational a! b! / (a+b+1)!^2, so the display
        # is an exact rational; at alpha = beta = 0 it is the exact
        # determinant, with no rounding noise in its relative error
        spec = FamilySpec.jacobi(alpha, beta)
        note = jacobi_det_as_printed(spec, 4, digits)
        c = alpha + beta + 1
        per_row = Fraction(factorial(c - 1) * factorial(c), factorial(alpha) * factorial(beta))
        display = note.exact / per_row**5
        assert Fraction(note.printed) == Fraction(nstr(display, digits))
        if (alpha, beta) == (0, 0):
            assert note.rel_error == 0 and note.agrees is True

    def test_digits_parameter(self):
        note = jacobi_det_as_printed(FamilySpec.jacobi(0, 0), 2, digits=40)
        assert note.digits == 40

    def test_jacobi_only(self):
        with pytest.raises(ValueError):
            jacobi_det_as_printed(HERMITE, 1)
        with pytest.raises(ValueError):
            jacobi_det_as_printed(HILBERT, 1)

    @pytest.mark.parametrize("digits", [0, MAX_ERRATA_DIGITS + 1, MAX_DIGITS + 1])
    def test_digits_bounds(self, digits):
        with pytest.raises(ValueError):
            jacobi_det_as_printed(FamilySpec.jacobi(0, 0), 1, digits=digits)


class TestUnnormalizedScale:
    def test_frozen_values(self):
        with mp.workdps(30):
            for spec, mass in [
                (HERMITE, mp.sqrt(mp.pi)),
                (FamilySpec.laguerre(0), 1),
                (FamilySpec.gegenbauer(Fraction(1, 2)), 2),
                (FamilySpec.jacobi(0, 0), 2),
                (HILBERT, 2),
            ]:
                assert abs(mp.mpf(str(unnormalized_scale(spec, 25))) - mass) < mp.mpf(10) ** -20

    def test_jacobi_mass_against_quadrature(self):
        # integral of (1 - x) over [-1, 1] is exactly 2
        spec = FamilySpec.jacobi(1, 0)
        with mp.workdps(30):
            numeric = mp.quad(lambda x: (1 - x), [-1, 1])
            assert abs(mp.mpf(str(unnormalized_scale(spec, 25))) - numeric) < mp.mpf(10) ** -20

    def test_laguerre_mass_against_quadrature(self):
        spec = FamilySpec.laguerre(Fraction(1, 2))
        with mp.workdps(30):
            numeric = mp.quad(lambda x: mp.sqrt(x) * mp.exp(-x), [0, mp.inf])
            assert abs(mp.mpf(str(unnormalized_scale(spec, 25))) - numeric) < mp.mpf(10) ** -20

    @given(spec=SPECS, digits=st.integers(1, 60))
    @example(spec=FamilySpec.jacobi(Fraction(-8, 9), Fraction(-1, 9)), digits=60)
    @example(spec=FamilySpec.shifted_jacobi(9, Fraction(-8, 9)), digits=60)
    @example(spec=FamilySpec.laguerre(Fraction(-8, 9)), digits=60)
    @example(spec=FamilySpec.gegenbauer(Fraction(-4, 9)), digits=60)
    # large Gamma points, where the log of the mass needs more working digits
    @example(spec=FamilySpec.laguerre(10**12), digits=17)
    @example(spec=FamilySpec.jacobi(10**6, Fraction(1, 3)), digits=17)
    @example(spec=FamilySpec.jacobi(10**12, 10**12), digits=1)
    @example(spec=FamilySpec.gegenbauer(10**15), digits=40)
    def test_property_equals_the_mpmath_mass(self, spec, digits):
        # the textbook mass in mpmath at 10 more digits than the value's own
        value = unnormalized_scale(spec, digits)
        assert isinstance(value, Decimal)
        with mp.workdps(digits + 20):
            mass = reference.unnormalized_scale(spec, digits + 10)
            assert abs(mp.mpf(str(value)) / mass - 1) < mp.mpf(10) ** -digits

    @pytest.mark.parametrize("digits", [0, -3, MAX_DIGITS + 1])
    def test_digits_bounds(self, digits):
        with pytest.raises(ValueError):
            unnormalized_scale(HERMITE, digits)
