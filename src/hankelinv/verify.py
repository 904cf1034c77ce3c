"""Cross-route verification: run every exact path against the others and the
elimination oracle, and report per-check results with witnesses.

Mismatches are reported, never raised, so a failing closed form still yields
a complete report.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .closed_form import explicit_det, explicit_inverse
from .elimination import bareiss_det, gauss_inverse
from .gram import ExactMatrix, det_from_norms, gram_schmidt, kernel_inverse, moment_matrix
from .orthopoly import Family, FamilySpec

__all__ = ["Witness", "CheckResult", "VerifyReport", "verify"]

_PARITY_FAMILIES = (Family.HERMITE, Family.GEGENBAUER)


@dataclass(frozen=True)
class Witness:
    """First offending entry of a failed check.  (row, col) = (-1, -1) marks a
    scalar (determinant) comparison."""

    row: int
    col: int
    expected: Fraction
    actual: Fraction


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class VerifyReport:
    spec: FamilySpec
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


# one compared position: (row, col, expected, actual)
_Cell = tuple[int, int, Fraction, Fraction]


def _first_mismatch(name: str, cells: Iterable[_Cell]) -> CheckResult:
    for row, col, expected, actual in cells:
        if expected != actual:
            return CheckResult(name, False, Witness(row, col, expected, actual))
    return CheckResult(name, True)


def _check(name: str, holds: bool, cells: Iterable[_Cell]) -> CheckResult:
    """A check decided on whole rows; only a failed one scans ``cells`` for
    its witness."""
    return CheckResult(name, True) if holds else _first_mismatch(name, cells)


def _entrywise(expected: ExactMatrix, actual: ExactMatrix) -> Iterator[_Cell]:
    size = range(actual.size)
    return ((i, j, expected.entry(i, j), actual.entry(i, j)) for i in size for j in size)


def _against_identity(matrix: ExactMatrix) -> Iterator[_Cell]:
    """Each entry against the identity's."""
    size = range(matrix.size)
    return ((i, j, Fraction(int(i == j)), matrix.entry(i, j)) for i in size for j in size)


def _mirrored(matrix: ExactMatrix) -> Iterator[_Cell]:
    """Each entry below the diagonal against its mirror above it."""
    size = range(matrix.size)
    return ((i, j, matrix.entry(j, i), matrix.entry(i, j)) for i in size for j in range(i))


def _odd_zeros(matrix: ExactMatrix) -> Iterator[_Cell]:
    """Each entry at odd i + j against zero."""
    size = range(matrix.size)
    return ((i, j, Fraction(0), matrix.entry(i, j)) for i in size for j in size if (i + j) % 2)


def _is_symmetric(matrix: ExactMatrix) -> bool:
    return tuple(zip(*matrix.rows)) == matrix.rows


def _is_identity(matrix: ExactMatrix) -> bool:
    rows = matrix.rows
    return all(row[i] == 1 and row.count(0) == len(rows) - 1 for i, row in enumerate(rows))


def _has_odd_zeros(matrix: ExactMatrix) -> bool:
    rows = matrix.rows
    return not any(row[j] for i, row in enumerate(rows) for j in range((i + 1) % 2, len(rows), 2))


def verify(spec: FamilySpec, n: int) -> VerifyReport:
    """Run the full battery for one (family, parameters, n):

      a. explicit_inverse x moment_matrix equals the identity exactly
      b. explicit, kernel, and elimination inverses agree entrywise
      c. explicit, norm-product, and elimination (bareiss_det) determinants agree
      d. symmetry everywhere; checkerboard zeros for the even-weight families
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    matrix = moment_matrix(spec, n)
    table = gram_schmidt(spec, n)
    explicit_inv = explicit_inverse(spec, n)
    kernel_inv = kernel_inverse(table)
    oracle_inv = gauss_inverse(matrix)
    det_explicit = explicit_det(spec, n)
    det_norms = det_from_norms(table)
    det_oracle = bareiss_det(matrix)
    product = explicit_inv @ matrix

    checks = [
        _check("matrix_symmetric", _is_symmetric(matrix), _mirrored(matrix)),
        _check("inverse_identity", _is_identity(product), _against_identity(product)),
        _check(
            "explicit_equals_kernel",
            explicit_inv.rows == kernel_inv.rows,
            _entrywise(explicit_inv, kernel_inv),
        ),
        _check(
            "explicit_equals_elimination",
            explicit_inv.rows == oracle_inv.rows,
            _entrywise(explicit_inv, oracle_inv),
        ),
        _first_mismatch("det_explicit_equals_norm_product", [(-1, -1, det_explicit, det_norms)]),
        _first_mismatch("det_explicit_equals_bareiss", [(-1, -1, det_explicit, det_oracle)]),
        _check("inverse_symmetric", _is_symmetric(explicit_inv), _mirrored(explicit_inv)),
    ]
    if spec.family in _PARITY_FAMILIES:
        checks += [
            _check("matrix_checkerboard_zeros", _has_odd_zeros(matrix), _odd_zeros(matrix)),
            _check(
                "inverse_checkerboard_zeros", _has_odd_zeros(explicit_inv), _odd_zeros(explicit_inv)
            ),
        ]
    return VerifyReport(spec=spec, n=n, checks=tuple(checks))
