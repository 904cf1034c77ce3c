"""Property tests: the integer and recurrence kernels against the straight
Fraction references in ``_fraction_reference``, entry for entry.

* ``bareiss_det``, ``gauss_inverse`` and ``ExactMatrix.__matmul__`` on
  square matrices of size 1..8 with mixed denominators and signs, reshaped
  on purpose: a zero row or column, a zero leading pivot that forces a row
  swap, a row that is a combination of two others (singular), or a
  symmetric copy.  Left as drawn they are non-symmetric.
* ``_inverse_and_det`` (forward sweep and back-substitution) against the
  integer Gauss-Jordan sweep it replaced, on those matrices, on shuffled
  and scaled rows with leading zeros that force row exchanges at several
  steps (sizes 1..10), on symmetric matrices of sizes 1..10, whose inverse
  it back-substitutes by mirroring unless a zero diagonal entry makes it
  exchange rows, on the moment matrices at n <= 10 and at n = 40 for the
  five parameter points of ROADMAP's layer table.
* ``ExactMatrix``'s stored form, reduced integer rows, on the same matrices
  and on what each producer builds; and the kernel engine's rows, which
  ``_reduced`` leaves primitive with a positive last entry, at n <= 40.
* The integer kernel sum ``closed_form._kernel_sum`` on lower-triangular
  factor tables of size 1..10, drawn the same way and taken from the closed
  forms.
* ``kernel_inverse`` of a ``gram_schmidt`` table and the Christoffel-Darboux
  kernel of the integer rows ``verify`` reads (``_monic_rows`` into
  ``_darboux_kernel``) against the Fraction kernel sum, over each family's
  parameters at n <= 10 and at n = 24 for the five parameter points of
  ROADMAP's layer table; and that kernel against the integer sum over every
  degree it replaced, at n <= 40, the corners and the table points
  included.
* The moment recurrences, the Chebyshev-algorithm ``gram_schmidt`` and the
  recurrence anchors of the jacobi (the ratio rows times P_d(1)) and
  gegenbauer inverses, over each family's parameters (p/q with |p|, q <= 9,
  plus the corners) at n <= 10.
* The integer moment sequence, the integer-row ``gram_schmidt`` and
  ``_jacobi_ratios``, and each family's integer factor columns and weights
  against the same recurrences and tables on Fractions, over the same
  parameters and at n = 24, 40 and 60 for the five parameter points of
  ROADMAP's layer table; the hermite anchors of the running product against
  ``special_value`` up to degree 60.
* The integer ``explicit_det`` at n <= 12 (and the table points at n = 24,
  40 and 60) against the Fraction one-pass product and against one
  telescoping product per degree, and the integer-ratio ``norm_squared`` at
  degrees m <= 30 against the Fraction running and telescoping products.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _fraction_reference as reference
from _strategies import CORNERS, FAMILY_SPECS, SPECS, corner_examples
from hankelinv import closed_form, gram
from hankelinv.closed_form import explicit_det
from hankelinv.elimination import SingularMatrix, _inverse_and_det, bareiss_det, gauss_inverse
from hankelinv.gram import (
    ExactMatrix,
    NotPositiveDefinite,
    _asymmetric,
    gram_schmidt,
    hankel_moment,
    kernel_inverse,
    moment_matrix,
)
from hankelinv.orthopoly import Family, FamilySpec, norm_squared, special_value

_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 16)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)

# a forced row swap, a singular matrix, a zero pivot column
_EXAMPLES = [
    ExactMatrix([[0, 1, 2], [3, 0, 1], [1, 1, 0]]),
    ExactMatrix([[1, 2], [2, 4]]),
    ExactMatrix([[0, 0], [0, 1]]),
]

# the five parameter points of ROADMAP's layer table
_TABLE_POINTS = [
    FamilySpec.hermite(),
    FamilySpec.laguerre(Fraction(7, 3)),
    FamilySpec.gegenbauer(Fraction(3, 2)),
    FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
    FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
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
    return ExactMatrix(rows)


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
        matrix = ExactMatrix([[Fraction(1, 2), Fraction(-1, 3)], [4, 0]])
        assert matrix.scaled_rows() == [(6, [3, -2]), (1, [4, 0])]

    @given(matrices())
    @_with_examples
    def test_round_trip(self, matrix):
        copy = ExactMatrix(matrix.to_lists())
        assert copy == matrix and hash(copy) == hash(matrix)
        assert ExactMatrix(matrix.rows) == matrix

    @given(matrices())
    @_with_examples
    def test_scaled_rows_are_copies(self, matrix):
        before = matrix.scaled_rows()
        for scale, ints in matrix.scaled_rows():
            ints[:] = [v + 1 for v in ints]
        assert matrix.scaled_rows() == before
        assert matrix == ExactMatrix(matrix.to_lists())

    @given(matrices())
    @_with_examples
    def test_rows_are_fractions(self, matrix):
        assert _all_fractions(matrix)
        assert [[matrix.entry(i, j) for j in range(matrix.size)] for i in range(matrix.size)] == (
            matrix.to_lists()
        )

    @given(matrices())
    @_with_examples
    def test_only_the_integer_rows_are_kept(self, matrix):
        # the Fractions are built anew on each read of rows
        assert ExactMatrix.__slots__ == ("_stored",)
        first, second = matrix.rows, matrix.rows
        assert first == second and first is not second

    @given(
        st.integers(1, 8).flatmap(lambda size: st.tuples(matrices(size), matrices(size))),
        st.integers(-12, 12).filter(bool),
    )
    @example((ExactMatrix([[4, -6], [0, 0]]), ExactMatrix.identity(2)), -2)
    def test_products_and_inverses_are_stored_reduced(self, pair, divisor):
        left, right = pair
        # the rows of the left factor over a scale of either sign, reduced
        # into the stored form, keep their values
        for _, ints in left.scaled_rows():
            scale, reduced = gram._reduced(divisor, ints)
            assert scale > 0 and gcd(scale, *reduced) == 1
            assert [Fraction(v, scale) for v in reduced] == [Fraction(v, divisor) for v in ints]
        built = [left @ right]
        try:
            built.append(gauss_inverse(left))
        except SingularMatrix:
            pass
        for matrix in built:
            assert _stored_form(matrix)
            copy = ExactMatrix(matrix.to_lists())
            assert copy == matrix and hash(copy) == hash(matrix)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_moment_matrices_and_kernel_sums_are_stored_reduced(self, spec, n):
        assert _stored_form(moment_matrix(spec, n))
        assert _stored_form(closed_form.explicit_inverse(spec, n))
        assert _stored_form(ExactMatrix.identity(n + 1))

    @given(spec=SPECS, n=st.integers(0, 40))
    @corner_examples(40)
    def test_engine_rows_are_primitive_with_a_positive_last_entry(self, spec, n):
        # _darboux_kernel and _darboux_inverts read L_k as row k's last entry
        rows, norms = gram._monic_rows(gram._moment_sequence(spec, 2 * n + 1))
        assert len(rows) == len(norms) == n + 1
        for k, q in enumerate(rows):
            assert type(q) is tuple and len(q) == k + 1
            assert all(type(v) is int for v in q)
            assert gcd(*q) == 1 and q[-1] > 0
        assert all(h > 0 for h in norms)



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


@st.composite
def exchanging_matrices(draw) -> ExactMatrix:
    """Rows with runs of leading zeros, shuffled and each scaled by a nonzero
    Fraction, sizes 1..10: the row at the diagonal often has a zero there,
    so the sweep exchanges rows at several steps.  Row i starts with at most
    i zeros, so the matrix is almost always invertible; ``matrices`` draws
    the singular ones."""
    size = draw(st.integers(1, 10))
    entries = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 16))
    nonzero = st.builds(Fraction, st.integers(1, 30), st.integers(-16, 16).filter(bool))
    rows = []
    for i in range(size):
        zeros = draw(st.integers(0, i))
        tail = draw(st.lists(entries, min_size=size - zeros - 1, max_size=size - zeros - 1))
        scale = draw(nonzero)
        rows.append([Fraction(0)] * zeros + [scale * v for v in [draw(nonzero), *tail]])
    return ExactMatrix(draw(st.permutations(rows)))


@st.composite
def symmetric_matrices(draw) -> ExactMatrix:
    """Symmetric matrices of sizes 1..10 with mixed denominators and signs:
    left as drawn; with zero diagonal entries, so that the sweep often
    exchanges rows and back-substitutes in full; or singular, with row and
    column i a copy of row and column j or zero."""
    size = draw(st.integers(1, 10))
    entries = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 16))
    upper = {(i, j): draw(entries) for i in range(size) for j in range(i, size)}
    shape = draw(st.sampled_from(("drawn", "zero_diagonal", "repeated", "zero")))
    pick = st.integers(0, size - 1)
    index = list(range(size))
    if shape == "zero_diagonal":
        for i in draw(st.sets(pick, min_size=1)):
            upper[i, i] = Fraction(0)
    elif shape == "repeated":
        index[draw(pick)] = draw(pick)
    elif shape == "zero":
        zeroed = draw(pick)
        for k in range(size):
            upper[min(zeroed, k), max(zeroed, k)] = Fraction(0)
    rows = [
        [upper[min(index[i], index[j]), max(index[i], index[j])] for j in range(size)]
        for i in range(size)
    ]
    return ExactMatrix(rows)


def _symmetric(matrix: ExactMatrix) -> bool:
    """The oracle's symmetry verdict, from one scan of the stored ints."""
    return next(_asymmetric(matrix), None) is None


class TestOneSweepMatchesTwo:
    """``_inverse_and_det``, one forward sweep of the augmented rows and
    back-substitution, against the integer Gauss-Jordan sweep it replaced:
    the same stored rows, determinant and SingularMatrix message.  The
    determinant also matches the determinant-only sweep."""

    @staticmethod
    def _check(matrix: ExactMatrix) -> None:
        try:
            expected, expected_det = reference.gauss_jordan_inverse_and_det(matrix)
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix) as caught:
                _inverse_and_det(matrix, _symmetric(matrix))
            assert str(caught.value) == str(exc)
            assert bareiss_det(matrix) == 0
            return
        actual, det = _inverse_and_det(matrix, _symmetric(matrix))
        assert actual.scaled_rows() == expected.scaled_rows()
        assert type(det) is Fraction
        assert det == expected_det == bareiss_det(matrix)

    @given(matrices())
    @_with_examples
    # rows with content 2 and 3 but scale 1: a pivot row's content is taken
    # together with its scale, so neither sweep reduces the first row, and the
    # second reduces only by the p = 2 that its update brings to row and scale
    @example(ExactMatrix([[6, 4], [9, 3]]))
    def test_property(self, matrix):
        self._check(matrix)

    @given(exchanging_matrices())
    @example(ExactMatrix([[0, 0, 1], [0, 2, 3], [4, 5, 6]]))
    @example(ExactMatrix([[0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 2, 0]]))
    # an exchange, then pivot rows whose content, 2 and 3, their scale 1 does
    # not share
    @example(ExactMatrix([[0, 3], [6, 4]]))
    def test_row_exchanges(self, matrix):
        self._check(matrix)

    @given(symmetric_matrices())
    # symmetric, but the sweep exchanges rows, and a mirrored inverse of the
    # 3 x 3 one would be wrong
    @example(ExactMatrix([[0, 1], [1, 0]]))
    @example(ExactMatrix([[0, 1, 2], [1, 1, 3], [2, 3, 1]]))
    # rows over different scales, so each mirrored entry is rescaled; the
    # first row of the 3 x 3 Hilbert matrix mirrors two finished rows, each
    # over its own scale
    @example(ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]))
    @example(ExactMatrix([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]))
    # symmetric but for one entry below the diagonal
    @example(ExactMatrix([[2, 1, Fraction(1, 3)], [1, 3, Fraction(1, 2)], [Fraction(1, 3), 1, 5]]))
    def test_symmetric(self, matrix):
        self._check(matrix)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    @example(spec=FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)), n=6)
    @example(spec=FamilySpec.gegenbauer(Fraction(-4, 9)), n=6)
    @example(spec=FamilySpec.laguerre(Fraction(-8, 9)), n=6)
    def test_moment_matrices(self, spec, n):
        matrix = moment_matrix(spec, n)
        self._check(matrix)
        assert _inverse_and_det(matrix, _symmetric(matrix))[1] == reference.bareiss_det(matrix)

    @pytest.mark.parametrize("spec", _TABLE_POINTS, ids=lambda s: s.family.value)
    def test_table_points_at_n_40(self, spec):
        self._check(moment_matrix(spec, 40))


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

    @pytest.mark.parametrize("other", [3, Fraction(1, 2), [[1, 0], [0, 1]]], ids=repr)
    def test_non_matrix_operand(self, other):
        eye = ExactMatrix.identity(2)
        for left, right in ((eye, other), (other, eye)):
            with pytest.raises(TypeError, match="unsupported operand"):
                left @ right
        assert eye != other
        assert eye.__eq__(other) is NotImplemented


@st.composite
def factor_tables(draw) -> tuple[list[list[Fraction]], list[Fraction]]:
    size = draw(st.integers(1, 10))
    factors = [draw(st.lists(_ENTRIES, min_size=k + 1, max_size=k + 1)) for k in range(size)]
    return factors, draw(st.lists(_ENTRIES, min_size=size, max_size=size))


def _integer_kernel_sum(factors, weights) -> ExactMatrix:
    """``closed_form._kernel_sum`` of a Fraction factor table: each column
    and the weights scaled by the lcm of their denominators."""
    size = len(factors)
    columns = [gram._scaled([factors[k][i] for k in range(i, size)]) for i in range(size)]
    return closed_form._kernel_sum(columns, gram._scaled(weights))


class TestKernelSumMatchesFraction:
    @given(factor_tables())
    @example(([[Fraction(0)], [Fraction(0), Fraction(0)]], [Fraction(1), Fraction(0)]))
    def test_property(self, table):
        factors, weights = table
        result = _integer_kernel_sum(factors, weights)
        assert result == reference.kernel_sum(factors, weights) and _all_fractions(result)
        assert _stored_form(result)

    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_closed_form_tables(self, spec, n):
        # the Fraction tables scaled to integer columns, and the closed forms'
        # own integer columns, give the same inverse
        factors, weights = reference.FACTOR_TABLES[spec.family](spec, n)
        expected = reference.kernel_sum(factors, weights)
        assert _integer_kernel_sum(factors, weights) == expected
        integer_table = closed_form._FACTOR_TABLES[spec.family](spec, n)
        assert closed_form._kernel_sum(*integer_table) == expected


def _large_examples(specs, sizes=(24, 40, 60)):
    """Decorator: run the test on every spec at each of the sizes."""

    def apply(test):
        for spec in specs:
            for n in sizes:
                test = example(spec=spec, n=n)(test)
        return test

    return apply


def _as_fractions(scaled: tuple[int, Sequence[int]]) -> list[Fraction]:
    """The values of an integer vector over one denominator."""
    denom, ints = scaled
    return [Fraction(v, denom) for v in ints]


def _reduced_form(scaled: tuple[int, Sequence[int]]) -> bool:
    denom, ints = scaled
    return denom > 0 and gcd(denom, *ints) == 1 and all(type(v) is int for v in ints)


def _darboux_inverse(rows, norms) -> ExactMatrix:
    """The Christoffel-Darboux kernel's integer rows over D, reduced."""
    denom, totals = gram._darboux_kernel(rows, norms)
    return ExactMatrix._from_scaled(gram._reduced(denom, row) for row in totals)


class TestIntegerKernelInverseMatchesFraction:
    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    @_large_examples(_TABLE_POINTS, sizes=(24,))
    def test_property(self, spec, n):
        # the public wrapper, from the table's Fractions, and the integer
        # rows of the engine's core give the Fraction kernel sum over every
        # degree
        table = gram_schmidt(spec, n)
        expected = reference.kernel_inverse(table)
        rows, norms = gram._monic_rows(gram._moment_sequence(spec, 2 * n + 1))
        actual = _darboux_inverse(rows, norms)
        assert actual == expected and _stored_form(actual)
        assert kernel_inverse(table) == expected


class TestDarbouxKernelMatchesSumForm:
    @given(spec=SPECS, n=st.integers(0, 40))
    @corner_examples(40)
    @_large_examples(_TABLE_POINTS, sizes=(40,))
    def test_property(self, spec, n):
        # on the engine's rows and norms, the Christoffel-Darboux kernel of
        # the top two rows is the integer sum over all n + 1 it replaced
        rows, norms = gram._monic_rows(gram._moment_sequence(spec, 2 * n + 1))
        assert _darboux_inverse(rows, norms) == reference.sum_form_kernel(rows, norms)


class TestMomentRecurrenceMatchesClosedForm:
    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    def test_property(self, spec, n):
        expected = [reference.hankel_moment(spec, k) for k in range(2 * n + 1)]
        assert [hankel_moment(spec, k) for k in range(2 * n + 1)] == expected
        matrix = moment_matrix(spec, n)
        assert matrix.rows == tuple(tuple(expected[i : i + n + 1]) for i in range(n + 1))
        assert _all_fractions(matrix)


class TestIntegerMomentsMatchFraction:
    @given(spec=SPECS, n=_N)
    @corner_examples(10)
    @_large_examples(_TABLE_POINTS)
    def test_property(self, spec, n):
        scaled = gram._moment_sequence(spec, 2 * n + 1)
        assert _reduced_form(scaled)
        assert _as_fractions(scaled) == reference.moment_sequence(spec, 2 * n + 1)


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
        monkeypatch.setattr(gram, "_moment_sequence", lambda spec, count: (1, seq[:count]))
        monkeypatch.setattr(reference, "hankel_moment", lambda spec, k: Fraction(seq[k]))
        spec = FamilySpec.hermite()
        with pytest.raises(NotPositiveDefinite) as expected:
            reference.gram_schmidt(spec, 3)
        with pytest.raises(NotPositiveDefinite) as chebyshev:
            reference.chebyshev(spec, 3)
        with pytest.raises(NotPositiveDefinite) as actual:
            gram_schmidt(spec, 3)
        assert str(actual.value) == str(chebyshev.value) == str(expected.value)


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
        rows = closed_form._jacobi_ratios(spec, n)
        assert all(_reduced_form(row) for row in rows)
        assert [_as_fractions(row) for row in rows] == reference.jacobi_ratios(
            spec.alpha, spec.beta, n
        )


def _jacobi_ratio_anchors(spec: FamilySpec, n: int) -> list[list[Fraction]]:
    """The integer ratio rows times P_d^(a+i, b+i)(1) = (a+i+1)_d / d!."""
    rows = []
    for i, row in enumerate(closed_form._jacobi_ratios(spec, n)):
        at_one = reference.rising_factorials(spec.alpha + i + 1, n - i)
        rows.append([r * at_one[d] / factorial(d) for d, r in enumerate(_as_fractions(row))])
    return rows


_ANCHORS = {
    Family.JACOBI: _jacobi_ratio_anchors,
    Family.GEGENBAUER: lambda spec, n: reference.gegenbauer_anchors(spec.lam, n),
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


class TestHermiteAnchorsMatchSpecialValue:
    def test_running_product(self):
        # column 0 of the hermite table is H_k(0) over 1, k = 0..60
        spec = FamilySpec.hermite()
        columns, _ = closed_form._hermite_table(spec, 60)
        assert columns[0] == (1, [special_value(spec, k) for k in range(61)])


def _family_examples(*families: Family):
    """Decorator: the corners at n = 10 and the table points at n = 24, 40
    and 60, of the given families."""

    def apply(test):
        for spec in CORNERS:
            if spec.family in families:
                test = example(spec=spec, n=10)(test)
        return _large_examples([s for s in _TABLE_POINTS if s.family in families])(test)

    return apply


class TestIntegerFactorTablesMatchFraction:
    """Each integer table builder, column by column and weight by weight,
    against its Fraction version."""

    def check(self, spec, n):
        columns, weights = closed_form._FACTOR_TABLES[spec.family](spec, n)
        factors, expected_weights = reference.FACTOR_TABLES[spec.family](spec, n)
        assert len(columns) == n + 1
        for i, column in enumerate(columns):
            assert _reduced_form(column)
            assert _as_fractions(column) == [factors[k][i] for k in range(i, n + 1)]
        assert _reduced_form(weights)
        assert _as_fractions(weights) == expected_weights

    @given(spec=FAMILY_SPECS[Family.HERMITE], n=_N)
    @_family_examples(Family.HERMITE)
    def test_hermite(self, spec, n):
        self.check(spec, n)

    @given(spec=FAMILY_SPECS[Family.LAGUERRE], n=_N)
    @_family_examples(Family.LAGUERRE)
    def test_laguerre(self, spec, n):
        self.check(spec, n)

    @given(spec=FAMILY_SPECS[Family.GEGENBAUER], n=_N)
    @_family_examples(Family.GEGENBAUER)
    def test_gegenbauer(self, spec, n):
        self.check(spec, n)

    @given(spec=FAMILY_SPECS[Family.JACOBI], n=_N)
    @_family_examples(Family.JACOBI)
    def test_jacobi(self, spec, n):
        self.check(spec, n)

    @given(spec=FAMILY_SPECS[Family.SHIFTED_JACOBI], n=_N)
    @_family_examples(Family.SHIFTED_JACOBI)
    def test_shifted_jacobi(self, spec, n):
        self.check(spec, n)


_DET_FAMILIES = (Family.GEGENBAUER, Family.JACOBI, Family.SHIFTED_JACOBI)


class TestIntegerExplicitDetMatchesFraction:
    @given(spec=st.one_of(*map(FAMILY_SPECS.get, _DET_FAMILIES)), n=st.integers(0, 12))
    @_family_examples(*_DET_FAMILIES)
    def test_property(self, spec, n):
        det = explicit_det(spec, n)
        assert type(det) is Fraction
        assert det == reference.explicit_det_one_pass(spec, n)


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
        assert norms == reference.norm_sequence(spec, n + 1)
