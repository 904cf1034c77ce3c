"""Independent elimination oracle: fraction-free Bareiss determinant and
Gauss-Jordan inverse.

Both run on Python ints: each row is first scaled by the lcm of its
denominators (``ExactMatrix.scaled_rows``), and Fractions appear again only
in the result.

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


def bareiss_det(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by the fraction-free Bareiss recurrence.

    Runs on the scaled integer rows, so det(matrix) is their determinant over
    the product of the row scales.  Every division is exact (the running
    entries are determinants of leading minors, which keeps intermediate
    growth polynomial).  Row exchanges flip the tracked sign; a fully zero
    pivot column means determinant 0.
    """
    size = matrix.size
    scaled = matrix.scaled_rows()
    a = [row for _, row in scaled]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        pivot_tail = a[k][k + 1 :]
        for i in range(k + 1, size):
            row = a[i]
            factor = row[k]
            a[i] = [0] * (k + 1) + [
                (v * pivot - factor * p) // prev for v, p in zip(row[k + 1 :], pivot_tail)
            ]
        prev = pivot
    return Fraction(sign * a[size - 1][size - 1], prod(scale for scale, _ in scaled))


def gauss_inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination on the augmented integer
    matrix [diag(s) M | diag(s)], pivoting on the first nonzero entry of each
    column.

    Each row stays a primitive integer vector: eliminating with the pivot row
    replaces it by p * row - q * pivot_row, with p / q = pivot / factor in
    lowest terms, divided by its content.  The left half ends diagonal, and
    row i of the inverse is the right half over its diagonal entry.
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
            g = gcd(pivot, factor)
            p, q = pivot // g, factor // g
            row = [p * v - q * w for v, w in zip(a[r], pivot_values)]
            content = gcd(*row)
            a[r] = [v // content for v in row] if content != 1 else row
    return ExactMatrix(
        tuple(tuple(Fraction(v, row[i]) for v in row[size:]) for i, row in enumerate(a))
    )
