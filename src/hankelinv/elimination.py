"""Independent elimination oracle: one forward elimination sweep on integer
rows, alone for the determinant and, on the rows augmented by their
scales, followed by back-substitution for the inverse, which yields the
determinant as well.

Each row is first scaled by the lcm of its denominators
(``ExactMatrix.scaled_rows``) and updated as row <- p * row - q * pivot_row.
A row's content comes out once, when the row becomes the pivot row, and not
after each update: on moment matrices an update's content is small (2-6 bits
on average at n = 24), so a gcd over the whole row after every update cost
as much as the update and saved little size.  The inverse comes out in
``ExactMatrix``'s stored integer form, each row reduced by one gcd
(``gram._reduced``), and the determinant is one Fraction.

The inverse of a symmetric matrix is symmetric, so when the input is
symmetric and the sweep exchanged no rows, back-substitution solves only the
lower triangle and mirrors the rest from the finished rows: about a third of
its products, with the same stored rows.  Symmetry is the caller's verdict,
from one scan of the input's stored ints (``gram._asymmetric``), a property
of any matrix; every other input is back-substituted in full.

Deliberately knows nothing about moments, polynomial families, or kernels, so
it can arbitrate between the engine and the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .gram import ExactMatrix, _asymmetric, _reduced

__all__ = ["SingularMatrix", "bareiss_det", "gauss_inverse"]


class SingularMatrix(ArithmeticError):
    """gauss_inverse was asked to invert a singular matrix."""


def _sweep(rows: list[list[int]], scales: list[int] | None = None) -> tuple[int, int, list[int]]:
    """Eliminate below the diagonal of the square integer ``rows`` in place,
    pivoting in each column on the first nonzero entry at or below the
    diagonal, so that rows[k][k:size] ends as row k of an upper-triangular U.

    With ``scales``, the rows carry the right block diag(scales) as well.
    Each row exchange also exchanges the two right-block columns, so the
    block stays lower triangular: before step k the row at position r holds
    right-block columns 0..k-1, appended to ``rows[r]``, and its own scale in
    column r, kept as ``scales[r]``; its other entries are 0 and never
    stored.  An update combines just the left tail, right columns 0..k and
    the own scale, all the row's nonzero entries.

    Once step k has its pivot row, that row is divided by its content, the
    gcd of all its nonzero entries, so U and the right block come out
    primitive row by row.  This is the sweep's one reduction: rows below the
    pivot keep the factors p that their updates bring, until their own step.
    On moment matrices the content an update leaves averages 2-6 bits at
    n = 24, and taking it after each update cost as much as the update.

    On return, rows[k][size:] + [scales[k]] is row k of the right block over
    columns 0..k, and order[c] is the original index of the row that ended
    at position c, whose scale started in column order[c].

    Returns (numerator, denominator, order), the determinant of the left
    block as given being numerator / denominator = sign * prod(pivots) *
    prod(contents) / prod(p), the contents those of the pivot rows: each
    update multiplies the block's determinant by p, each reduction divides
    it by the content, and each row exchange flips its sign.  Raises
    SingularMatrix when a column has no pivot.
    """
    size = len(rows)
    numerator, denominator = 1, 1
    order = list(range(size))
    for k in range(size):
        pivot_index = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot_index is None:
            raise SingularMatrix(f"no pivot in column {k}")
        if pivot_index != k:
            rows[k], rows[pivot_index] = rows[pivot_index], rows[k]
            order[k], order[pivot_index] = order[pivot_index], order[k]
            if scales is not None:
                scales[k], scales[pivot_index] = scales[pivot_index], scales[k]
            numerator = -numerator
        pivot_row = rows[k]
        # the row's nonzero entries: its left tail from column k, right-block
        # columns 0..k-1 and, with scales, its own scale in column k, last
        entries = pivot_row[k:] if scales is None else [*pivot_row[k:], scales[k]]
        content = gcd(*entries)
        if content > 1:
            entries = [v // content for v in entries]
            if scales is None:
                pivot_row[k:] = entries
            else:
                pivot_row[k:] = entries[:-1]
                scales[k] = entries[-1]
            numerator *= content
        pivot = entries[0]
        numerator *= pivot
        # entries left of column k are already 0 below the pivot, and with
        # scales right-block column k is 0 in the rows below
        pivot_tail = entries[1:]
        if scales is not None:
            for row in rows[k + 1 :]:
                row.append(0)
        for r in range(k + 1, size):
            row = rows[r]
            factor = row[k]
            if not factor:
                continue
            g = gcd(pivot, factor)
            p, q = pivot // g, factor // g
            row[k] = 0
            row[k + 1 :] = [p * v - q * w for v, w in zip(row[k + 1 :], pivot_tail)]
            if scales is not None:
                scales[r] *= p
            denominator *= p
    return numerator, denominator, order


def bareiss_det(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by forward elimination on integer rows.

    Runs ``_sweep`` on the scaled integer rows, so det(matrix) is their
    determinant over the product of the row scales.  Unlike the Bareiss
    recurrence, whose leading minors carry the product of every row scale,
    each pivot row is used primitive.  Row exchanges flip the sign; a column
    without a pivot means determinant 0.
    """
    scaled = matrix.scaled_rows()
    try:
        numerator, denominator, _ = _sweep([row for _, row in scaled])
    except SingularMatrix:
        return Fraction(0)
    return Fraction(numerator, denominator * prod(scale for scale, _ in scaled))


def gauss_inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by forward elimination and back-substitution; see
    ``_inverse_and_det``.

    The sweep reduces a row only when it becomes the pivot row, which suits
    moment matrices; on matrices whose updates leave contents of hundreds of
    bits it is slower than reducing after each update: 1.3x and 1.5x on
    random dense p/q matrices (|p| <= 10**6, q <= 1000) at 20x20 and 30x30,
    and 1.7x on the jacobi 1/3,1/5 closed-form inverse at n = 24 and 40.
    The inverse of a symmetric matrix that needs no row exchange, such as a
    moment matrix, is back-substituted on its lower triangle and mirrored.
    """
    return _inverse_and_det(matrix, next(_asymmetric(matrix), None) is None)[0]


def _inverse_and_det(matrix: ExactMatrix, symmetric: bool) -> tuple[ExactMatrix, Fraction]:
    """Inverse and determinant from one forward ``_sweep`` of the augmented
    integer matrix [S M | S], S = diag(s) the row scales, then
    back-substitution.

    The sweep leaves U = L S M upper triangular and R = L S lower triangular
    with its columns in pivot order, so X = U^-1 R is M^-1 with its columns
    in that order.  From the last row up, row i is X_i = (R_i - sum_{k>i}
    U_ik X_k) / U_ii.  With each finished row X_k = N_k / d_k and D the lcm
    of those d_k, that is (D R_i - sum_k U_ik (D / d_k) N_k) / (D U_ii),
    reduced by one gcd, and its columns go back in place as the row is
    stored.  The sweep's determinant is that of S M.

    When M is symmetric and the sweep exchanged no rows, X = M^-1 is
    symmetric with its columns in place.  Row i then back-substitutes only
    columns 0..i, and each column c > i is the mirror X_c(i) = N_c(i) / d_c,
    put over D U_ii as N_c(i) (D / d_c) U_ii; the finished rows keep only
    columns 0..i, all the rows above them read.  That leaves about n^3/6 of
    the n^3/2 products, and the stored rows are the same ints: the totals
    are the same exact values over the same D U_ii.  ``symmetric`` is the
    caller's verdict on M, from one scan of its stored ints.
    """
    size = matrix.size
    scaled = matrix.scaled_rows()
    rows = [row for _, row in scaled]
    scales = [scale for scale, _ in scaled]
    numerator, denominator, order = _sweep(rows, scales)
    # the exchanges leave their mark in order, so identity order means none
    mirrored = symmetric and order == list(range(size))
    # N_k column by column, and d_k, of the finished rows, last row first;
    # mirrored, column j holds only the rows k >= j
    columns: list[list[int]] = [[] for _ in range(size)]
    finished: list[int] = []
    common = 1
    stored = []
    for i in reversed(range(size)):
        row = rows[i]
        pivot = row[i]
        width = i + 1 if mirrored else size
        # D / d_k of the finished rows, last row first
        ratios = [common // d for d in finished]
        weights = list(map(mul, row[size - 1 : i : -1], ratios))
        right = [*row[size:], scales[i]] + [0] * (width - 1 - i)
        totals = [common * v - sum(map(mul, weights, col)) for v, col in zip(right, columns)]
        if mirrored:
            # columns i+1..size-1 from column i of the finished rows, first row first
            totals += [v * (r * pivot) for v, r in zip(reversed(columns[i]), reversed(ratios))]
        scale, numerators = _reduced(common * pivot, totals)
        for col, v in zip(columns[:width], numerators):
            col.append(v)
        finished.append(scale)
        common = lcm(common, scale)
        # column c of X is column order[c] of M^-1
        inverse_row = [0] * size
        for c, v in zip(order, numerators):
            inverse_row[c] = v
        stored.append((scale, tuple(inverse_row)))
    inverse = ExactMatrix._from_scaled(reversed(stored))
    return inverse, Fraction(numerator, denominator * prod(scale for scale, _ in scaled))
