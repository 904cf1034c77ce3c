"""Property tests: the integer and recurrence kernels against the straight
Fraction references in ``_fraction_reference``, entry for entry.

* ``bareiss_det``, ``gauss_inverse``, the one-sweep ``_inverse_and_det``
  and ``ExactMatrix.__matmul__`` on square matrices of size 1..8 with mixed
  denominators and signs, reshaped on purpose: a zero row or column, a zero
  leading pivot that forces a row swap, a row that is a combination of two
  others (singular), or a symmetric copy.  Left as drawn they are
  non-symmetric.
* ``ExactMatrix``'s stored form, reduced integer rows, on the same matrices
  and on what each producer builds.
* ``kernel_sum`` on lower-triangular factor tables of size 1..10, drawn the
  same way and taken from the closed forms.
* The moment recurrences, the Chebyshev-algorithm ``gram_schmidt`` and the
  recurrence anchors of the jacobi and gegenbauer inverses, over each
  family's parameters (p/q with |p|, q <= 9, plus the corners) at n <= 10.
* The integer-row ``gram_schmidt`` and ``_jacobi_anchors`` against the same
  recurrences on Fractions, over the same parameters and at n = 24, 40 and
  60 for the five parameter points of ROADMAP's layer table.
* The one-pass ``explicit_det`` at n <= 12 and the running-product
  ``norm_squared`` at degrees m <= 30, over the same parameters, against one
  telescoping product per degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _fraction_reference as reference
from _strategies import CORNERS, SPECS, corner_examples
from hankelinv import closed_form, gram
from hankelinv.closed_form import explicit_det
from hankelinv.elimination import SingularMatrix, _inverse_and_det, bareiss_det, gauss_inverse
from hankelinv.gram import (
    ExactMatrix,
    NotPositiveDefinite,
    gram_schmidt,
    hankel_moment,
    kernel_sum,
    moment_matrix,
)
from hankelinv.orthopoly import Family, FamilySpec, norm_squared

_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 16)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)

# a forced row swap, a singular matrix, a zero pivot column
_EXAMPLES = [
    ExactMatrix.from_rows([[0, 1, 2], [3, 0, 1], [1, 1, 0]]),
    ExactMatrix.from_rows([[1, 2], [2, 4]]),
    ExactMatrix.from_rows([[0, 0], [0, 1]]),
]

_SHAPES = ("drawn", "zero_row", "zero_col", "zero_leading_pivot", "dependent_row", "symmetric")


@st.composite
def matrices(draw, size=None) -> ExactMatrix:
    if size is None:
        size = draw(st.integers(1, 8))
    rows = [draw(st.lists(_ENTRIES, min_size=size, max_size=size)) for _ in range(size)]
    shape = draw(st.sampled_from(_SHAPES))
    pick = st.integers(0, size - 1)
    if shape == "zero_row":
        rows[draw(pick)] = [Fraction(0)] * size
    elif shape == "zero_col":
        col = draw(pick)
        for row in rows:
            row[col] = Fraction(0)
    elif shape == "zero_leading_pivot" and size > 1:
        rows[0][0] = Fraction(0)
        rows[draw(st.integers(1, size - 1))][0] = draw(_ENTRIES.filter(bool))
    elif shape == "dependent_row" and size > 1:
        i = draw(pick)
        others = st.sampled_from([r for r in range(size) if r != i])
        j, k, c, d = draw(others), draw(others), draw(_ENTRIES), draw(_ENTRIES)
        rows[i] = [c * x + d * y for x, y in zip(rows[j], rows[k])]
    elif shape == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    return ExactMatrix.from_rows(rows)


def _all_fractions(matrix: ExactMatrix) -> bool:
    return all(type(v) is Fraction for row in matrix.rows for v in row)


def _with_examples(test):
    for matrix in _EXAMPLES:
        test = example(matrix)(test)
    return test


_N = st.integers(0, 10)


def _stored_form(matrix: ExactMatrix) -> bool:
    """Every row is (s, N) with s > 0 and gcd(s, *N) = 1."""
    return all(scale > 0 and gcd(scale, *ints) == 1 for scale, ints in matrix.scaled_rows())


class TestScaledRows:
    """The stored form: each row as (s, N), s > 0, gcd(s, *N) = 1, row N / s."""

    @given(matrices())
    @_with_examples
    def test_rows_scale_to_ints_by_their_lcm(self, matrix):
        assert _stored_form(matrix)
        for (scale, ints), row in zip(matrix.scaled_rows(), matrix.rows):
            assert all(type(v) is int for v in ints)
            assert [Fraction(v, scale) for v in ints] == list(row)
            # no smaller scale clears every denominator
            assert gcd(*(scale // v.denominator for v in row)) == 1

    def test_frozen(self):
        matrix = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)], [4, 0]])
        assert matrix.scaled_rows() == [(6, [3, -2]), (1, [4, 0])]

    @given(matrices())
    @_with_examples
    def test_round_trip(self, matrix):
        copy = ExactMatrix.from_rows(matrix.to_lists())
        assert copy == matrix and hash(copy) == hash(matrix)
        assert ExactMatrix(matrix.rows) == matrix

    @given(matrices())
    @_with_examples
    def test_scaled_rows_are_copies(self, matrix):
        before = matrix.scaled_rows()
        for scale, ints in matrix.scaled_rows():
            ints[:] = [v + 1 for v in ints]
        assert matrix.scaled_rows() == before
        assert matrix == ExactMatrix.from_rows(matrix.to_lists())

    @given(matrices())
    @_with_examples
    def test_rows_are_fractions(self, matrix):
        assert _all_fractions(matrix)
        assert [[matrix.entry(i, j) for j in range(matrix.size)] for i in range(matrix.size)] == (
            matrix.to_lists()
        )

    @given(st.integers(1, 8).flatmap(lambda size: st.tuples(matrices(size), matrices(size))))
    def test_products_and_inverses_are_stored_reduced(self, pair):
        left, right = pair
        built = [left @ right]
        try:
            built.append(gauss_inverse(left))
        except SingularMatrix:
            pass
        for matrix in built:
            assert _stored_form(matrix)
            copy = ExactMatrix.from_rows(matrix.to_lists())
            assert copy == matrix and hash(copy) == hash(matrix)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_moment_matrices_and_kernel_sums_are_stored_reduced(self, spec, n):
        assert _stored_form(moment_matrix(spec, n))
        assert _stored_form(closed_form.explicit_inverse(spec, n))
        assert _stored_form(ExactMatrix.identity(n + 1))



class TestBareissDetMatchesFraction:
    @given(matrices())
    @_with_examples
    def test_property(self, matrix):
        det = bareiss_det(matrix)
        assert type(det) is Fraction
        assert det == reference.bareiss_det(matrix)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_moment_matrices(self, spec, n):
        matrix = moment_matrix(spec, n)
        assert bareiss_det(matrix) == reference.bareiss_det(matrix)


class TestGaussInverseMatchesFraction:
    @given(matrices())
    @_with_examples
    def test_property(self, matrix):
        try:
            expected = reference.gauss_inverse(matrix)
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix) as caught:
                gauss_inverse(matrix)
            assert str(caught.value) == str(exc)
            assert bareiss_det(matrix) == 0
            return
        actual = gauss_inverse(matrix)
        assert actual == expected and _all_fractions(actual)


class TestOneSweepMatchesTwo:
    @given(matrices())
    @_with_examples
    def test_property(self, matrix):
        try:
            inverse = gauss_inverse(matrix)
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix) as caught:
                _inverse_and_det(matrix)
            assert str(caught.value) == str(exc)
            return
        actual, det = _inverse_and_det(matrix)
        assert actual == inverse
        assert type(det) is Fraction
        assert det == bareiss_det(matrix) == reference.bareiss_det(matrix)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_moment_matrices(self, spec, n):
        matrix = moment_matrix(spec, n)
        assert _inverse_and_det(matrix)[1] == reference.bareiss_det(matrix)


class TestMatmulMatchesFraction:
    @given(st.integers(1, 8).flatmap(lambda size: st.tuples(matrices(size), matrices(size))))
    def test_property(self, pair):
        left, right = pair
        product = left @ right
        assert product == reference.matmul(left, right) and _all_fractions(product)

    @given(matrices(), st.integers(1, 8))
    def test_size_mismatch(self, matrix, size):
        eye = ExactMatrix.identity(size)
        if size == matrix.size:
            assert matrix @ eye == matrix == eye @ matrix
            return
        for left, right in ((matrix, eye), (eye, matrix)):
            with pytest.raises(ValueError, match="size mismatch"):
                left @ right


@st.composite
def factor_tables(draw) -> tuple[list[list[Fraction]], list[Fraction]]:
    size = draw(st.integers(1, 10))
    factors = [draw(st.lists(_ENTRIES, min_size=k + 1, max_size=k + 1)) for k in range(size)]
    return factors, draw(st.lists(_ENTRIES, min_size=size, max_size=size))


class TestKernelSumMatchesFraction:
    @given(factor_tables())
    @example(([[Fraction(0)], [Fraction(0), Fraction(0)]], [Fraction(1), Fraction(0)]))
    def test_property(self, table):
        factors, weights = table
        result = kernel_sum(factors, weights)
        assert result == reference.kernel_sum(factors, weights) and _all_fractions(result)
        assert _stored_form(result)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_closed_form_tables(self, spec, n):
        factors, weights = closed_form._FACTOR_TABLES[spec.family](spec, n)
        assert kernel_sum(factors, weights) == reference.kernel_sum(factors, weights)


class TestMomentRecurrenceMatchesClosedForm:
    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_property(self, spec, n):
        expected = [reference.hankel_moment(spec, k) for k in range(2 * n + 1)]
        assert [hankel_moment(spec, k) for k in range(2 * n + 1)] == expected
        matrix = moment_matrix(spec, n)
        assert matrix.rows == tuple(tuple(expected[i : i + n + 1]) for i in range(n + 1))
        assert _all_fractions(matrix)


class TestChebyshevMatchesGramSchmidt:
    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_property(self, spec, n):
        assert gram_schmidt(spec, n) == reference.gram_schmidt(spec, n)

    @pytest.mark.parametrize(
        "seq",
        [
            [1, 0, -1, 0, 1, 0, 1],  # h_1 = -1
            [1, 1, 1, 1, 1, 1, 1],  # h_1 = 0
            [1, 0, 1, 0, 1, 0, 1],  # h_2 = 0
            [1, 0, 1, 0, 0, 0, 1],  # h_2 = -1 after h_0 = h_1 = 1
        ],
    )
    def test_not_positive_definite(self, monkeypatch, seq):
        # an indefinite moment sequence stops all three at the same degree
        # with the same message
        seq = [Fraction(v) for v in seq]
        monkeypatch.setattr(gram, "_moment_sequence", lambda spec, count: seq[:count])
        monkeypatch.setattr(reference, "hankel_moment", lambda spec, k: seq[k])
        spec = FamilySpec.hermite()
        with pytest.raises(NotPositiveDefinite) as expected:
            reference.gram_schmidt(spec, 3)
        with pytest.raises(NotPositiveDefinite) as chebyshev:
            reference.chebyshev(spec, 3)
        with pytest.raises(NotPositiveDefinite) as actual:
            gram_schmidt(spec, 3)
        assert str(actual.value) == str(chebyshev.value) == str(expected.value)


# the five parameter points of ROADMAP's layer table
_TABLE_POINTS = [
    FamilySpec.hermite(),
    FamilySpec.laguerre(Fraction(7, 3)),
    FamilySpec.gegenbauer(Fraction(3, 2)),
    FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
    FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
]


def _large_examples(specs):
    """Decorator: run the test on every spec at n = 24, 40 and 60."""

    def apply(test):
        for spec in specs:
            for n in (24, 40, 60):
                test = example(spec=spec, n=n)(test)
        return test

    return apply


class TestIntegerChebyshevMatchesFraction:
    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    @_large_examples(_TABLE_POINTS)
    def test_property(self, spec, n):
        table = gram_schmidt(spec, n)
        assert table == reference.chebyshev(spec, n)
        assert all(type(h) is Fraction for h in table.norms)
        assert all(type(c) is Fraction for p in table.monic for c in p.coeffs)


def _has_beta(spec: FamilySpec) -> bool:
    return spec.beta is not None


def _jacobi_corners(test):
    for spec in filter(_has_beta, CORNERS):
        test = example(spec=spec, n=10)(test)
    return test


class TestIntegerJacobiAnchorsMatchFraction:
    # both jacobi variants, read as the (alpha, beta) of the recurrence; the
    # two table points share (1/3, 1/5), so one of them is enough
    @given(spec=SPECS.filter(_has_beta), n=_N)
    @_jacobi_corners
    @_large_examples(_TABLE_POINTS[3:4])
    def test_property(self, spec, n):
        anchors = closed_form._jacobi_anchors(spec.alpha, spec.beta, n)
        assert anchors == reference.jacobi_anchors(spec.alpha, spec.beta, n)
        assert all(type(v) is Fraction for row in anchors for v in row)


_ANCHORS = {
    Family.JACOBI: lambda spec, n: closed_form._jacobi_anchors(spec.alpha, spec.beta, n),
    Family.GEGENBAUER: lambda spec, n: closed_form._gegenbauer_anchors(spec.lam, n),
}


def _anchored_corners(test):
    for spec in CORNERS:
        if spec.family in _ANCHORS:
            test = example(spec=spec, n=10)(test)
    return test


class TestAnchorRecurrenceMatchesSpecialValue:
    @given(spec=SPECS.filter(lambda spec: spec.family in _ANCHORS), n=_N)
    @_anchored_corners
    def test_property(self, spec, n):
        anchors = _ANCHORS[spec.family](spec, n)
        assert anchors == reference.shifted_anchors(spec, n)
        assert all(type(v) is Fraction for row in anchors for v in row)


class TestExplicitDetMatchesPerDegree:
    @given(spec=SPECS, n=st.integers(0, 12))
    @corner_examples(12)
    def test_property(self, spec, n):
        det = explicit_det(spec, n)
        assert type(det) is Fraction
        assert det == reference.explicit_det(spec, n)


class TestNormSequenceMatchesTelescoping:
    # n is the largest degree m checked
    @given(spec=SPECS, n=st.integers(0, 30))
    @corner_examples(30)
    def test_property(self, spec, n):
        norms = [norm_squared(spec, m) for m in range(n + 1)]
        assert all(type(h) is Fraction for h in norms)
        assert norms == [reference.norm_squared(spec, m) for m in range(n + 1)]
