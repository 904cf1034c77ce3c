"""Independent elimination oracle: one elimination sweep on primitive integer
rows, run forward for the determinant alone and as Gauss-Jordan for the
inverse, which yields the determinant as well.

Each row is first scaled by the lcm of its denominators
(``ExactMatrix.scaled_rows``) and kept a primitive integer vector through one
update, row <- (p * row - q * pivot_row) / content.  The inverse comes out in
``ExactMatrix``'s stored integer form, and the determinant is one Fraction.

Deliberately knows nothing about moments, polynomial families, or kernels, so
it can arbitrate between the engine and the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .gram import ExactMatrix

__all__ = ["SingularMatrix", "bareiss_det", "gauss_inverse"]


class SingularMatrix(ArithmeticError):
    """gauss_inverse was asked to invert a singular matrix."""


def _eliminate(
    row: list[int], pivot_row: list[int], pivot: int, factor: int
) -> tuple[int, int, list[int]]:
    """(p, content, (p * row - q * pivot_row) / content), with p / q = pivot /
    factor in lowest terms: the entry under the pivot becomes 0 and the row
    stays primitive.  A row that comes out 0 has content 0 and is kept as is."""
    g = gcd(pivot, factor)
    p, q = pivot // g, factor // g
    combined = [p * v - q * w for v, w in zip(row, pivot_row)]
    content = gcd(*combined)
    if content > 1:
        combined = [v // content for v in combined]
    return p, content, combined


def _sweep(rows: list[list[int]], jordan: bool) -> tuple[int, int]:
    """Eliminate the square left block of the integer ``rows`` in place,
    pivoting in each column on the first nonzero entry at or below the
    diagonal.  Rows below the pivot are cleared, and with ``jordan`` the rows
    above it too, so the left block ends diagonal.

    Returns the determinant of the left block as given, as (numerator,
    denominator) = (sign * prod(pivots) * prod(contents), prod(p)) over the
    updates of rows below a pivot: each multiplies the block's determinant by
    p / content, and each row exchange flips its sign.  The updates above a
    pivot touch only rows whose pivots are already counted and which no later
    step reads, so both modes return the same value.  Raises SingularMatrix
    when a column has no pivot.
    """
    size = len(rows)
    numerator, denominator = 1, 1
    for k in range(size):
        pivot_index = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot_index is None:
            raise SingularMatrix(f"no pivot in column {k}")
        if pivot_index != k:
            rows[k], rows[pivot_index] = rows[pivot_index], rows[k]
            numerator = -numerator
        pivot_row = rows[k]
        pivot = pivot_row[k]
        numerator *= pivot
        # entries left of column k are already 0 below the pivot
        pivot_tail = pivot_row[k + 1 :]
        for row in rows[k + 1 :]:
            if row[k]:
                p, content, row[k + 1 :] = _eliminate(row[k + 1 :], pivot_tail, pivot, row[k])
                row[k] = 0
                numerator *= content
                denominator *= p
        if jordan:
            for i in range(k):
                if rows[i][k]:
                    _, _, rows[i] = _eliminate(rows[i], pivot_row, pivot, rows[i][k])
    return numerator, denominator


def bareiss_det(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by forward elimination on primitive integer rows.

    Runs ``_sweep`` on the scaled integer rows, so det(matrix) is their
    determinant over the product of the row scales.  Unlike the Bareiss
    recurrence, whose leading minors carry the product of every row scale,
    the entries stay as small as the rows allow.  Row exchanges flip the
    sign; a column without a pivot means determinant 0.
    """
    scaled = matrix.scaled_rows()
    try:
        numerator, denominator = _sweep([row for _, row in scaled], jordan=False)
    except SingularMatrix:
        return Fraction(0)
    return Fraction(numerator, denominator * prod(scale for scale, _ in scaled))


def gauss_inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination (``_sweep``); see
    ``_inverse_and_det``."""
    return _inverse_and_det(matrix)[0]


def _inverse_and_det(matrix: ExactMatrix) -> tuple[ExactMatrix, Fraction]:
    """Inverse and determinant from one Gauss-Jordan ``_sweep`` on the
    augmented integer matrix [diag(s) M | diag(s)].

    The left half ends diagonal, and row i of the inverse is the right half
    over its diagonal entry.  Every update keeps the rows primitive, so that
    pair, its sign made positive, is already the stored form of the row.  The
    rows below each pivot go through the same updates as in a forward sweep
    of the augmented matrix, so the sweep's determinant is that of diag(s) M.
    """
    size = matrix.size
    scaled = matrix.scaled_rows()
    rows = [
        row + [scale if i == j else 0 for j in range(size)]
        for i, (scale, row) in enumerate(scaled)
    ]
    numerator, denominator = _sweep(rows, jordan=True)
    inverse = ExactMatrix._from_scaled(
        (row[i], tuple(row[size:])) if row[i] > 0 else (-row[i], tuple(-v for v in row[size:]))
        for i, row in enumerate(rows)
    )
    return inverse, Fraction(numerator, denominator * prod(scale for scale, _ in scaled))
