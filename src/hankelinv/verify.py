"""Cross-route verification: run every exact path against the others and the
elimination oracle, and report per-check results with witnesses.

The identity check E M = I needs no product when the closed-form inverse E
equals the kernel engine's K and the engine's rows certify K M = I: its monic
polynomials are M-orthogonal with its norms (``gram._kernel_inverts``).
Otherwise E @ M is formed and compared with the identity.

Each matrix check is decided on the stored integer rows of ``ExactMatrix``:
equality with the identity or with the other route's inverse by ``==``,
symmetry by cross-multiplying mirrored entries over their row scales, and
checkerboard zeros by the integers at odd i + j.  Only a failed check reads
the Fraction rows: it compares the expected rows (the identity, the other
route's inverse, the rows mirrored below the diagonal, or the rows with zeros
at odd i + j) with the actual rows, and the first differing entry in
row-major order is the witness.  Mismatches are reported, never raised, so a
failing closed form still yields a complete report.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .closed_form import explicit_det, explicit_inverse
from .elimination import _inverse_and_det
from .gram import ExactMatrix, _kernel_inverts, _monic_kernel, _monic_rows, moment_matrix
from .orthopoly import Family, FamilySpec, _Record

__all__ = ["Witness", "CheckResult", "VerifyReport", "verify"]

_PARITY_FAMILIES = (Family.HERMITE, Family.GEGENBAUER)


class Witness(_Record):
    """First offending entry of a failed check.  (row, col) = (-1, -1) marks a
    scalar (determinant) comparison."""

    __slots__ = ("row", "col", "expected", "actual")
    row: int
    col: int
    expected: Fraction
    actual: Fraction

    def __init__(self, row: int, col: int, expected: Fraction, actual: Fraction) -> None:
        super().__init__(row, col, expected, actual)


class CheckResult(_Record):
    __slots__ = ("name", "passed", "witness")
    name: str
    passed: bool
    witness: Witness | None

    def __init__(self, name: str, passed: bool, witness: Witness | None = None) -> None:
        super().__init__(name, passed, witness)


class VerifyReport(_Record):
    __slots__ = ("spec", "n", "checks")
    spec: FamilySpec
    n: int
    checks: tuple[CheckResult, ...]

    def __init__(self, spec: FamilySpec, n: int, checks: tuple[CheckResult, ...]) -> None:
        super().__init__(spec, n, checks)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


# square rows of Fractions; expected rows may hold the int 0
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


def _check_equal(name: str, expected: ExactMatrix, actual: ExactMatrix) -> CheckResult:
    """Pass on equal matrices; a failure is scanned for its witness."""
    if expected == actual:
        return CheckResult(name, True)
    return _compare(name, expected.rows, actual.rows)


def _check_symmetric(name: str, matrix: ExactMatrix) -> CheckResult:
    """Pass when N_i(j) s_j = N_j(i) s_i below the diagonal, i.e. each entry
    equals its mirror; a failure is scanned for its witness."""
    scaled = matrix.scaled_rows()
    if all(
        ints[j] * scaled[j][0] == scaled[j][1][i] * scale
        for i, (scale, ints) in enumerate(scaled)
        for j in range(i)
    ):
        return CheckResult(name, True)
    rows = matrix.rows
    return _compare(name, _symmetrized(rows), rows)


def _check_odd_zeros(name: str, matrix: ExactMatrix) -> CheckResult:
    """Pass when every entry at odd i + j is 0; a failure is scanned for its
    witness."""
    if not any(any(ints[1 - i % 2 :: 2]) for i, (_, ints) in enumerate(matrix.scaled_rows())):
        return CheckResult(name, True)
    rows = matrix.rows
    return _compare(name, _odd_zeroed(rows), rows)


def verify(spec: FamilySpec, n: int) -> VerifyReport:
    """Run the full battery for one (family, parameters, n):

      a. explicit_inverse x moment_matrix equals the identity exactly: it
         holds when E equals the kernel inverse K and the engine's monic rows
         are M-orthogonal with its norms, which gives K M = I; otherwise
         E @ M is formed and compared with the identity, for its witness
      b. explicit, kernel, and elimination inverses agree entrywise
      c. explicit, norm-product, and elimination determinants agree (the last
         from the same forward sweep as the elimination inverse)
      d. symmetry everywhere; checkerboard zeros for the even-weight families
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    matrix = moment_matrix(spec, n)
    rows, norms = _monic_rows(spec, n)
    explicit_inv = explicit_inverse(spec, n)
    kernel_inv = _monic_kernel(rows, norms)
    oracle_inv, det_oracle = _inverse_and_det(matrix)
    det_explicit = explicit_det(spec, n)
    det_norms = prod(norms, start=Fraction(1))

    equals_kernel = _check_equal("explicit_equals_kernel", explicit_inv, kernel_inv)
    if equals_kernel.passed and _kernel_inverts(rows, norms, matrix):
        inverts = CheckResult("inverse_identity", True)
    else:
        inverts = _check_equal(
            "inverse_identity", ExactMatrix.identity(n + 1), explicit_inv @ matrix
        )
    checks = [
        _check_symmetric("matrix_symmetric", matrix),
        inverts,
        equals_kernel,
        _check_equal("explicit_equals_elimination", explicit_inv, oracle_inv),
        _compare_det("det_explicit_equals_norm_product", det_explicit, det_norms),
        _compare_det("det_explicit_equals_bareiss", det_explicit, det_oracle),
        _check_symmetric("inverse_symmetric", explicit_inv),
    ]
    if spec.family in _PARITY_FAMILIES:
        checks += [
            _check_odd_zeros("matrix_checkerboard_zeros", matrix),
            _check_odd_zeros("inverse_checkerboard_zeros", explicit_inv),
        ]
    return VerifyReport(spec=spec, n=n, checks=tuple(checks))
