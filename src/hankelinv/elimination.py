"""Independent elimination oracle: determinant by forward elimination and
Gauss-Jordan inverse.

Both run on Python ints: each row is first scaled by the lcm of its
denominators (``ExactMatrix.scaled_rows``) and kept a primitive integer vector
through one update, row <- (p * row - q * pivot_row) / content.  Fractions
appear again only in the result.

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


def bareiss_det(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by forward elimination on primitive integer rows.

    Runs on the scaled integer rows, so det(matrix) is their determinant over
    the product of the row scales.  Each update p * row - q * pivot_row
    multiplies the determinant by p and each division by a content divides it,
    so det = sign * prod(pivots) * prod(contents) / (prod(p) * prod(scales)).
    Unlike the Bareiss recurrence, whose leading minors carry the product of
    every row scale, the entries stay as small as the rows allow.  Row
    exchanges flip the tracked sign; a fully zero pivot column means
    determinant 0.
    """
    size = matrix.size
    scaled = matrix.scaled_rows()
    # rows[k:] hold the columns k.. of the block still to eliminate
    rows = [row for _, row in scaled]
    sign = 1
    numerator, denominator = 1, prod(scale for scale, _ in scaled)
    for k in range(size):
        if rows[k][0] == 0:
            for r in range(k + 1, size):
                if rows[r][0] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot, *pivot_tail = rows[k]
        numerator *= pivot
        for i in range(k + 1, size):
            factor, *tail = rows[i]
            if factor == 0:
                rows[i] = tail
                continue
            p, content, rows[i] = _eliminate(tail, pivot_tail, pivot, factor)
            numerator *= content
            denominator *= p
    return Fraction(sign * numerator, denominator)


def gauss_inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination on the augmented integer
    matrix [diag(s) M | diag(s)], pivoting on the first nonzero entry of each
    column.

    Each row stays a primitive integer vector through the same update as the
    determinant's (``_eliminate``).  The left half ends diagonal, and row i of
    the inverse is the right half over its diagonal entry.
    """
    size = matrix.size
    a = [
        row + [scale if i == j else 0 for j in range(size)]
        for i, (scale, row) in enumerate(matrix.scaled_rows())
    ]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot_values = a[col]
        pivot = pivot_values[col]
        for r in range(size):
            factor = a[r][col]
            if r == col or factor == 0:
                continue
            _, _, a[r] = _eliminate(a[r], pivot_values, pivot, factor)
    return ExactMatrix(
        tuple(tuple(Fraction(v, row[i]) for v in row[size:]) for i, row in enumerate(a))
    )
