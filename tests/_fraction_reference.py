"""Straight Fraction versions of the elimination oracle and the matrix
product, kept as references for the integer kernels in the library.

Every scalar operation here is a normalised Fraction operation: slow, but
plainly the textbook algorithms, so the property tests can compare the
row-scaled integer code against them entry for entry.
"""

from __future__ import annotations

from fractions import Fraction

from hankelinv.elimination import SingularMatrix
from hankelinv.gram import ExactMatrix


def bareiss_det(matrix: ExactMatrix) -> Fraction:
    """Bareiss recurrence on Fractions, with the library's row-swap rule."""
    size = matrix.size
    a = [list(row) for row in matrix.rows]
    sign = 1
    prev = Fraction(1)
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
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[size - 1][size - 1]


def gauss_inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Gauss-Jordan on the augmented Fraction matrix, pivoting on the first
    nonzero entry of each column."""
    size = matrix.size
    a = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(size)]
         for i, row in enumerate(matrix.rows)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [v / pivot for v in a[col]]
        for r in range(size):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return ExactMatrix(tuple(tuple(row[size:]) for row in a))


def matmul(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """Row-by-column Fraction dot products."""
    if left.size != right.size:
        raise ValueError("size mismatch")
    cols = list(zip(*right.rows))
    return ExactMatrix(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in left.rows)
    )
