"""Cross-route verification: run every exact path against the others and the
elimination oracle, and report per-check results with witnesses.

Each matrix check is one comparison of expected rows with actual rows: the
identity, the other route's inverse, the rows mirrored below the diagonal, or
the rows with zeros at odd i + j.  Equal rows pass; otherwise the first
differing entry in row-major order is the witness.  Mismatches are reported,
never raised, so a failing closed form still yields a complete report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closed_form import explicit_det, explicit_inverse
from .elimination import bareiss_det, gauss_inverse
from .gram import det_from_norms, gram_schmidt, kernel_inverse, moment_matrix
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


# square rows of Fractions; expected rows may hold the ints 0 and 1
_Rows = tuple[tuple[Fraction | int, ...], ...]


def _compare(name: str, expected: _Rows, actual: _Rows) -> CheckResult:
    """Pass on equal rows; otherwise the first differing entry in row-major
    order is the witness."""
    if actual != expected:
        for i, (want, got) in enumerate(zip(expected, actual)):
            for j, (e, a) in enumerate(zip(want, got)):
                if e != a:
                    return CheckResult(name, False, Witness(i, j, Fraction(e), a))
    return CheckResult(name, True)


def _compare_det(name: str, expected: Fraction, actual: Fraction) -> CheckResult:
    """A determinant check; its witness sits at (-1, -1)."""
    if expected == actual:
        return CheckResult(name, True)
    return CheckResult(name, False, Witness(-1, -1, expected, actual))


def _identity(size: int) -> _Rows:
    """The size x size identity as rows of ints."""
    return tuple((0,) * i + (1,) + (0,) * (size - 1 - i) for i in range(size))


def _symmetrized(rows: _Rows) -> _Rows:
    """The rows with each entry below the diagonal replaced by its mirror."""
    return tuple(col[:i] + row[i:] for i, (row, col) in enumerate(zip(rows, zip(*rows))))


def _odd_zeroed(rows: _Rows) -> _Rows:
    """The rows with each entry at odd i + j replaced by 0."""
    expected = []
    for i, row in enumerate(rows):
        row = list(row)
        odd = slice(1 - i % 2, None, 2)  # the columns j with i + j odd
        row[odd] = [0] * len(row[odd])
        expected.append(tuple(row))
    return tuple(expected)


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

    checks = [
        _compare("matrix_symmetric", _symmetrized(matrix.rows), matrix.rows),
        _compare("inverse_identity", _identity(n + 1), (explicit_inv @ matrix).rows),
        _compare("explicit_equals_kernel", explicit_inv.rows, kernel_inv.rows),
        _compare("explicit_equals_elimination", explicit_inv.rows, oracle_inv.rows),
        _compare_det("det_explicit_equals_norm_product", det_explicit, det_norms),
        _compare_det("det_explicit_equals_bareiss", det_explicit, det_oracle),
        _compare("inverse_symmetric", _symmetrized(explicit_inv.rows), explicit_inv.rows),
    ]
    if spec.family in _PARITY_FAMILIES:
        checks += [
            _compare("matrix_checkerboard_zeros", _odd_zeroed(matrix.rows), matrix.rows),
            _compare(
                "inverse_checkerboard_zeros", _odd_zeroed(explicit_inv.rows), explicit_inv.rows
            ),
        ]
    return VerifyReport(spec=spec, n=n, checks=tuple(checks))
