"""Tests for the moment sequences, the Gram-Schmidt table, and the kernel.

Cross-routes used here:
  * numeric quadrature of the actual weight functions (mpmath) for moments,
  * the recurrence/bilinear-form consistency triangle tying hankel_moment,
    the three-term-recurrence polynomials and norm_squared together,
  * classical determinant/kernel identities (bordered determinant and the
    Christoffel-Darboux difference form) evaluated in exact arithmetic.
"""

from __future__ import annotations

import random
import re
from decimal import Decimal
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from _fraction_reference import kernel_coeffs, moment
from _recurrences import oracle_polys, taylor_shift
from _strategies import SPECS, corner_examples
from hankelinv.closed_form import _kernel_sum
from hankelinv.elimination import bareiss_det, gauss_inverse
from hankelinv.gram import (
    ExactMatrix,
    det_from_norms,
    gram_schmidt,
    hankel_moment,
    kernel_eval,
    kernel_inverse,
    moment_matrix,
)
from hankelinv.orthopoly import Family, FamilySpec, norm_squared

HERMITE = FamilySpec.hermite()
LAGUERRE = FamilySpec.laguerre(Fraction(1, 2))
GEGENBAUER = FamilySpec.gegenbauer(Fraction(3, 2))
JACOBI = FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5))
SHIFTED = FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5))
HILBERT = FamilySpec.shifted_jacobi(0, 0)

ALL_SPECS = [HERMITE, LAGUERRE, GEGENBAUER, JACOBI, SHIFTED]

# kernel points p/q with |p/q| <= 2 and q <= 9
POINTS = st.fractions(Fraction(-2), Fraction(2), max_denominator=9)


def _not_exact(value):
    """The TypeError message for a float or bool given as a number."""
    return f"^{re.escape(repr(value))} is not an exact rational number$"


class TestExactMatrix:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2]])
        with pytest.raises(ValueError):
            ExactMatrix(())

    def test_identity_and_matmul(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        eye = ExactMatrix.identity(2)
        assert a @ eye == a
        assert eye @ a == a
        b = ExactMatrix([[0, 1], [1, 0]])
        assert (a @ b).to_lists() == [[2, 1], [4, 3]]

    @pytest.mark.parametrize("value", [0.1, True], ids=repr)
    def test_float_and_bool_entries_rejected(self, value):
        # a float would keep its binary value and a bool is no number
        with pytest.raises(TypeError, match=_not_exact(value)):
            ExactMatrix([[value]])

    @pytest.mark.parametrize(
        ("size", "error", "message"),
        [
            (0, ValueError, "square and nonempty"),
            (-1, ValueError, "size must be >= 0"),
            (True, TypeError, "size must be an int"),
            (2.0, TypeError, "float"),
        ],
        ids=repr,
    )
    def test_identity_size_follows_the_size_rule(self, size, error, message):
        # the one size rule, then the nonempty rule of the constructor
        with pytest.raises(error, match=message):
            ExactMatrix.identity(size)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix.identity(2) @ ExactMatrix.identity(3)


class TestMoments:
    @pytest.mark.parametrize(
        ("spec", "seq"),
        [
            (HERMITE, [1, 0, Fraction(1, 2), 0, Fraction(3, 4), 0, Fraction(15, 8)]),
            (FamilySpec.laguerre(0), [1, 1, 2, 6, 24]),
            (FamilySpec.laguerre(1), [1, 2, 6, 24, 120]),
            (
                FamilySpec.gegenbauer(Fraction(1, 2)),
                [1, 0, Fraction(1, 3), 0, Fraction(1, 5)],
            ),
            (FamilySpec.gegenbauer(1), [1, 0, Fraction(1, 4), 0, Fraction(1, 8)]),
            (FamilySpec.jacobi(0, 0), [1, 0, Fraction(1, 3), 0, Fraction(1, 5)]),
            (HILBERT, [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]),
        ],
    )
    def test_hankel_sequences(self, spec, seq):
        assert [hankel_moment(spec, k) for k in range(len(seq))] == [Fraction(v) for v in seq]

    def test_jacobi_asymmetric_value(self):
        # uniform-odd-weight sanity point worked out by hand from the Beta
        # integral: the first moment of the (1, 0) weight is -1/3
        spec = FamilySpec.jacobi(1, 0)
        assert moment(spec, 1) == Fraction(-1, 3)
        assert hankel_moment(spec, 1) == Fraction(1, 3)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_mass_is_one(self, spec):
        assert moment(spec, 0) == 1
        assert hankel_moment(spec, 0) == 1

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_sign_fold(self, spec):
        folded = spec.family in (Family.JACOBI, Family.SHIFTED_JACOBI)
        for k in range(9):
            expected = (-1) ** k * hankel_moment(spec, k) if folded else hankel_moment(spec, k)
            assert moment(spec, k) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            moment(HERMITE, -1)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_against_quadrature(self, spec):
        with mp.workdps(30):
            a = mp.mpf(spec.alpha.numerator) / spec.alpha.denominator if spec.alpha is not None else None
            b = mp.mpf(spec.beta.numerator) / spec.beta.denominator if spec.beta is not None else None
            lam = mp.mpf(spec.lam.numerator) / spec.lam.denominator if spec.lam is not None else None
            fam = spec.family
            if fam is Family.HERMITE:
                mass = mp.sqrt(mp.pi)
                integral = lambda k: mp.quad(lambda x: x**k * mp.exp(-(x**2)), [-mp.inf, mp.inf])
            elif fam is Family.LAGUERRE:
                mass = mp.gamma(a + 1)
                integral = lambda k: mp.quad(lambda x: x ** (k + a) * mp.exp(-x), [0, mp.inf])
            elif fam is Family.GEGENBAUER:
                mass = mp.beta(mp.mpf(1) / 2, lam + mp.mpf(1) / 2)
                integral = lambda k: mp.quad(
                    lambda x: x**k * (1 - x**2) ** (lam - mp.mpf(1) / 2), [-1, 1]
                )
            elif fam is Family.JACOBI:
                mass = mp.power(2, a + b + 1) * mp.beta(a + 1, b + 1)
                integral = lambda k: mp.quad(
                    lambda x: x**k * (1 - x) ** a * (1 + x) ** b, [-1, 1]
                )
            else:
                mass = mp.power(2, a + b + 1) * mp.beta(a + 1, b + 1)
                integral = lambda k: mp.quad(
                    lambda x: ((x - 1) / 2) ** k * (1 - x) ** a * (1 + x) ** b, [-1, 1]
                )
            for k in range(5):
                exact = moment(spec, k)
                exact_f = mp.mpf(exact.numerator) / exact.denominator
                assert abs(integral(k) / mass - exact_f) < mp.mpf(10) ** -18


class TestMomentMatrix:
    @pytest.mark.parametrize(
        ("spec", "n", "rows"),
        [
            (
                HERMITE,
                2,
                [[1, 0, Fraction(1, 2)], [0, Fraction(1, 2), 0], [Fraction(1, 2), 0, Fraction(3, 4)]],
            ),
            (FamilySpec.laguerre(0), 1, [[1, 1], [1, 2]]),
            (
                FamilySpec.jacobi(0, 0),
                2,
                [[1, 0, Fraction(1, 3)], [0, Fraction(1, 3), 0], [Fraction(1, 3), 0, Fraction(1, 5)]],
            ),
            (
                FamilySpec.gegenbauer(1),
                2,
                [[1, 0, Fraction(1, 4)], [0, Fraction(1, 4), 0], [Fraction(1, 4), 0, Fraction(1, 8)]],
            ),
            (
                HILBERT,
                2,
                [
                    [1, Fraction(1, 2), Fraction(1, 3)],
                    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
                    [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
                ],
            ),
        ],
    )
    def test_frozen_matrices(self, spec, n, rows):
        assert moment_matrix(spec, n) == ExactMatrix(rows)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_hankel_structure(self, spec):
        matrix = moment_matrix(spec, 5)
        for i in range(6):
            for j in range(6):
                assert matrix.entry(i, j) == hankel_moment(spec, i + j)


class TestGramSchmidt:
    def test_hermite_table(self):
        table = gram_schmidt(HERMITE, 2)
        assert [p.coeffs for p in table.monic] == [
            (Fraction(1),),
            (Fraction(0), Fraction(1)),
            (Fraction(-1, 2), Fraction(0), Fraction(1)),
        ]
        assert table.norms == (Fraction(1), Fraction(1, 2), Fraction(1, 2))

    def test_hilbert_table(self):
        table = gram_schmidt(HILBERT, 1)
        assert [p.coeffs for p in table.monic] == [(Fraction(1),), (Fraction(-1, 2), Fraction(1))]
        assert table.norms == (Fraction(1), Fraction(1, 12))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_monic_and_orthogonal_under_form(self, spec):
        n = 6
        table = gram_schmidt(spec, n)
        seq = [hankel_moment(spec, k) for k in range(2 * n + 1)]

        def form(p, q):
            return sum(
                pa * qb * seq[a + b]
                for a, pa in enumerate(p)
                for b, qb in enumerate(q)
            )

        for m in range(n + 1):
            coeffs = table.monic[m].coeffs
            assert coeffs[-1] == 1
            assert len(coeffs) == m + 1
            assert table.norms[m] > 0
            assert form(coeffs, coeffs) == table.norms[m]
            for r in range(m):
                assert form(coeffs, table.monic[r].coeffs) == 0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_nested_in_larger_table(self, spec):
        small, large = gram_schmidt(spec, 3), gram_schmidt(spec, 5)
        assert large.monic[: 4] == small.monic
        assert large.norms[: 4] == small.norms


class TestStandardPolynomialsUnderForm:
    """hankel_moment, the three-term recurrences and norm_squared are three
    unrelated routes; the bilinear form must still see the standard
    polynomials as an orthogonal family with exactly the norm_squared
    lengths."""

    @staticmethod
    def _form_coeffs(spec, poly):
        # family-basis coefficients rewritten in the variable the Hankel
        # sequence describes: x, -x (jacobi), or (1-x)/2 (jacobi-shifted)
        if spec.family is Family.JACOBI:
            return [c * (-1) ** s for s, c in enumerate(poly)]
        if spec.family is Family.SHIFTED_JACOBI:
            # the family basis is (x-1)^s
            return [c * (-2) ** s for s, c in enumerate(taylor_shift(poly, 1))]
        return poly

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_orthogonality_and_norms(self, spec):
        n = 6
        seq = [hankel_moment(spec, k) for k in range(2 * n + 1)]
        polys = [self._form_coeffs(spec, poly) for poly in oracle_polys(spec, n)]
        for k in range(n + 1):
            for m in range(k + 1):
                value = sum(
                    pa * qb * seq[a + b]
                    for a, pa in enumerate(polys[k])
                    for b, qb in enumerate(polys[m])
                )
                assert value == (norm_squared(spec, k) if k == m else 0)


class TestKernelSum:
    def test_lower_triangular_rows(self):
        # B(i, j) = sum_k f(k, i) f(k, j) w(k) for the table f = [[1], [2, 3]]
        # (f(0, 1) = 0 implied) and w = [1/2, 1]: columns [1, 2] and [3] over
        # 1, weights [1, 2] over 2
        result = _kernel_sum([(1, [1, 2]), (1, [3])], (2, [1, 2]))
        assert result == ExactMatrix([[Fraction(9, 2), 6], [6, 9]])
        assert all(type(v) is Fraction for row in result.rows for v in row)

    def test_zero_factors_leave_exact_zeros(self):
        # f = [[1], [0, 1], [-1, 0, 1]], w = [1, 1, 1]
        result = _kernel_sum([(1, [1, 0, -1]), (1, [1, 0]), (1, [1])], (1, [1, 1, 1]))
        assert result == ExactMatrix([[2, 0, -1], [0, 1, 0], [-1, 0, 1]])


class TestKernelInverse:
    def test_hermite_frozen(self):
        expected = ExactMatrix(
            [[Fraction(3, 2), 0, -1], [0, 2, 0], [-1, 0, 2]]
        )
        assert kernel_inverse(gram_schmidt(HERMITE, 2)) == expected

    def test_hilbert_frozen(self):
        expected = ExactMatrix([[4, -6], [-6, 12]])
        assert kernel_inverse(gram_schmidt(HILBERT, 1)) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_agrees_with_elimination(self, spec, n):
        assert kernel_inverse(gram_schmidt(spec, n)) == gauss_inverse(moment_matrix(spec, n))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_inverts_the_matrix(self, spec):
        n = 5
        product = kernel_inverse(gram_schmidt(spec, n)) @ moment_matrix(spec, n)
        assert product == ExactMatrix.identity(n + 1)


class TestKernel:
    def test_hermite_value(self):
        table = gram_schmidt(HERMITE, 1)
        assert kernel_eval(table, Fraction(1, 2), Fraction(1, 2)) == Fraction(3, 2)

    def test_kernel_eval_uses_basis_origin(self):
        table = gram_schmidt(HILBERT, 1)
        # monic degree one is (t - 1/2) in the shifted variable t = x - 1, so
        # it vanishes at x = 3/2 and is -1/2 at x = 1; h_0 = 1, h_1 = 1/12
        assert kernel_eval(table, Fraction(3, 2), 7) == 1
        assert kernel_eval(table, 1, 1) == 1 + Fraction(1, 4) * 12

    @pytest.mark.parametrize("value", [0.1, True], ids=repr)
    def test_float_and_bool_points_rejected(self, value):
        # a float would keep its binary value and a bool is no number
        table = gram_schmidt(HERMITE, 1)
        for x, y in ((value, 1), (1, value)):
            with pytest.raises(TypeError, match=_not_exact(value)):
                kernel_eval(table, x, y)

    def test_decimal_point_is_exact(self):
        table = gram_schmidt(HERMITE, 1)
        assert kernel_eval(table, Decimal("0.1"), "1") == Fraction(6, 5)

    @given(spec=SPECS, n=st.integers(0, 12), x=POINTS, y=st.none() | POINTS)
    @corner_examples(n=12, x=Fraction(-1, 3), y=None)
    def test_is_the_inverse_between_power_vectors(self, spec, n, x, y):
        # the paper's identity k_n(x, y) = v(x)^T M^-1 v(y), with
        # v(x) = (1, u, ..., u^n) and u = x - t0; y = None draws x = y
        y = x if y is None else y
        table = gram_schmidt(spec, n)
        inverse = kernel_inverse(table).rows
        vx, vy = ([(t - spec.basis_origin) ** k for k in range(n + 1)] for t in (x, y))
        expected = sum(a * sum(map(mul, row, vy)) for a, row in zip(vx, inverse))
        assert kernel_eval(table, x, y) == expected

    def test_symmetry_random_points(self):
        rng = random.Random(20260814)
        for spec in ALL_SPECS:
            table = gram_schmidt(spec, 4)
            for _ in range(10):
                x = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                y = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                assert kernel_eval(table, x, y) == kernel_eval(table, y, x)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_coeffs_consistent_with_eval(self, spec):
        table = gram_schmidt(spec, 4)
        y = Fraction(2, 3)
        coeffs = kernel_coeffs(table, y)
        for x in (Fraction(0), Fraction(-1, 2), Fraction(3)):
            t = x - spec.basis_origin
            assert kernel_eval(table, x, y) == sum(c * t**s for s, c in enumerate(coeffs))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_reproduces_polynomials(self, spec):
        rng = random.Random(97)
        n = 5
        table = gram_schmidt(spec, n)
        matrix = moment_matrix(spec, n)
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1)]
            for y in (Fraction(0), Fraction(1, 2), Fraction(-2)):
                kc = kernel_coeffs(table, y)
                pairing = sum(
                    kc[a] * matrix.entry(a, b) * coeffs[b]
                    for a in range(n + 1)
                    for b in range(n + 1)
                )
                t = y - spec.basis_origin
                assert pairing == sum(c * t**s for s, c in enumerate(coeffs))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_christoffel_darboux_difference(self, spec):
        n = 4
        table = gram_schmidt(spec, n + 1)
        short = gram_schmidt(spec, n)
        points = [
            (Fraction(1, 2), Fraction(-1, 3)),
            (Fraction(2), Fraction(0)),
            (Fraction(-3, 5), Fraction(1, 7)),
        ]

        def monic(m, x):
            return table.monic[m].eval_at(x - table.spec.basis_origin)

        for x, y in points:
            lhs = kernel_eval(short, x, y) * (x - y)
            rhs = (monic(n + 1, x) * monic(n, y) - monic(n, x) * monic(n + 1, y)) / table.norms[n]
            assert lhs == rhs

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_bordered_determinant_identity(self, spec, n):
        matrix = moment_matrix(spec, n)
        x, y = Fraction(1, 2), Fraction(-2, 3)
        tx, ty = x - spec.basis_origin, y - spec.basis_origin
        size = n + 2
        rows = [[Fraction(0)] * size for _ in range(size)]
        for j in range(n + 1):
            rows[0][j + 1] = ty**j
            rows[j + 1][0] = tx**j
            for i in range(n + 1):
                rows[i + 1][j + 1] = matrix.entry(i, j)
        bordered = ExactMatrix(rows)
        expected = -bareiss_det(bordered) / bareiss_det(matrix)
        assert kernel_eval(gram_schmidt(spec, n), x, y) == expected


class TestDetFromNorms:
    @pytest.mark.parametrize(
        ("spec", "n", "expected"),
        [
            (HERMITE, 2, Fraction(1, 4)),
            (FamilySpec.laguerre(0), 1, Fraction(1)),
            (HILBERT, 2, Fraction(1, 2160)),
            (FamilySpec.gegenbauer(1), 2, Fraction(1, 64)),
        ],
    )
    def test_frozen_values(self, spec, n, expected):
        assert det_from_norms(gram_schmidt(spec, n)) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("n", [0, 2, 6])
    def test_agrees_with_bareiss(self, spec, n):
        assert det_from_norms(gram_schmidt(spec, n)) == bareiss_det(moment_matrix(spec, n))
