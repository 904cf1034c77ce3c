"""Property tests: the row-scaled integer kernels (``bareiss_det``,
``gauss_inverse``, ``ExactMatrix.__matmul__``) against the straight Fraction
references in ``_fraction_reference``, entry for entry.

Matrices are square, of size 1..8, with mixed denominators and signs, and
are reshaped on purpose: a zero row or column, a zero leading pivot that
forces a row swap, a row that is a combination of two others (singular), or
a symmetric copy.  Left as drawn they are non-symmetric.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _fraction_reference as reference
from hankelinv.elimination import SingularMatrix, bareiss_det, gauss_inverse
from hankelinv.gram import ExactMatrix

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


class TestScaledRows:
    @given(matrices())
    def test_rows_scale_to_ints_by_their_lcm(self, matrix):
        for (scale, ints), row in zip(matrix.scaled_rows(), matrix.rows):
            assert scale >= 1 and all(type(v) is int for v in ints)
            assert [Fraction(v, scale) for v in ints] == list(row)
            # no smaller scale clears every denominator
            assert gcd(*(scale // v.denominator for v in row)) == 1

    def test_frozen(self):
        matrix = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)], [4, 0]])
        assert matrix.scaled_rows() == [(6, [3, -2]), (1, [4, 0])]


def _with_examples(test):
    for matrix in _EXAMPLES:
        test = example(matrix)(test)
    return test


class TestBareissDetMatchesFraction:
    @given(matrices())
    @_with_examples
    def test_property(self, matrix):
        det = bareiss_det(matrix)
        assert type(det) is Fraction
        assert det == reference.bareiss_det(matrix)


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
