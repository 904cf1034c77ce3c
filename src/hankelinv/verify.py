"""Cross-route verification: run every exact path against the others and the
elimination oracle, and report per-check results with witnesses.

The identity check E M = I needs no product when the closed-form inverse E
equals the kernel engine's K and the engine's top two rows certify K M = I:
its polynomials of degree n and n - 1 are orthogonal under M to every lower
power, with its norms (``gram._darboux_inverts``).  Otherwise E @ M is
formed and compared with the identity.  K is the Christoffel-Darboux form of
those two rows (``gram._darboux_kernel``), not the factor-table sum that
gives E, so a fault in that sum makes E differ from K, and the check falls
back to the product.

K is only compared, never returned, so it stays integer rows T over one
denominator D, row i being T_i / D.  The moment sequence is built once, for
M, the engine (its one input) and the certificate, and M's symmetry scan is
the verdict the elimination oracle requires on whether to mirror its inverse.

Every check is one of ``gram``'s scans of stored integer rows that yields,
in row-major order, only the cells that differ: entries of two matrices
cross-multiplied by their row scales (E against K's totals or the oracle's
stored rows, or the identity against E @ M), entries below the diagonal
against their mirrors, entries at odd i + j against 0, or the two
determinants as one cell at (-1, -1).  A check passes when its scan
yields nothing; otherwise the first cell is the witness, the only entry
whose Fractions are built.  Mismatches are reported, never raised, so a
failing closed form still yields a complete report.  The one exception: the
engine raises ``NotPositiveDefinite`` out of ``verify`` on a moment sequence
that is not positive definite, which no valid ``FamilySpec`` gives.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import prod

from .closed_form import explicit_det, explicit_inverse
from .elimination import _inverse_and_det
from .gram import (
    ExactMatrix,
    _asymmetric,
    _Cell,
    _differing,
    _differing_rows,
    _darboux_inverts,
    _darboux_kernel,
    _hankel,
    _moment_sequence,
    _monic_rows,
    _odd_nonzero,
)
from .orthopoly import Family, FamilySpec, _Record, _size

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

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _check(name: str, mismatches: Iterator[_Cell]) -> CheckResult:
    """Pass when the stream yields nothing; otherwise its first cell is the
    witness, and only that cell's two Fractions are built."""
    for row, col, expected, actual in mismatches:
        return CheckResult(name, False, Witness(row, col, Fraction(*expected), Fraction(*actual)))
    return CheckResult(name, True)


def _det_differs(expected: Fraction, actual: Fraction) -> Iterator[_Cell]:
    """The scalar comparison as one cell at (-1, -1), when the two differ."""
    if expected != actual:
        yield -1, -1, expected.as_integer_ratio(), actual.as_integer_ratio()


def verify(spec: FamilySpec, n: int) -> VerifyReport:
    """Run the full battery for one (family, parameters, n), reporting each
    mismatch; a moment sequence that is not positive definite, which no valid
    spec gives, raises ``NotPositiveDefinite``:

      a. explicit_inverse x moment_matrix equals the identity exactly: it
         holds when E equals the kernel inverse K and the engine's top two
         rows are M-orthogonal to every lower power with its norms, which
         gives K M = I; otherwise E @ M is formed and compared with the
         identity, for its witness
      b. explicit, kernel, and elimination inverses agree entrywise
      c. explicit, norm-product, and elimination determinants agree (the last
         from the same forward sweep as the elimination inverse)
      d. symmetry everywhere; checkerboard zeros for the even-weight families
    """
    n = _size(n)
    moments = _moment_sequence(spec, 2 * n + 1)
    matrix = _hankel(moments)
    rows, norms = _monic_rows(moments)
    explicit_inv = explicit_inverse(spec, n)
    symmetric = _check("matrix_symmetric", _asymmetric(matrix))
    oracle_inv, det_oracle = _inverse_and_det(matrix, symmetric.passed)
    det_explicit = explicit_det(spec, n)
    det_norms = prod(norms, start=Fraction(1))

    denom, totals = _darboux_kernel(rows, norms)
    kernel = ((denom, row) for row in totals)
    equals_kernel = _check("explicit_equals_kernel", _differing_rows(explicit_inv, kernel))
    if equals_kernel.passed and _darboux_inverts(rows, norms, moments, matrix):
        inverts = CheckResult("inverse_identity", True)
    else:
        identity = ExactMatrix.identity(matrix.size)
        inverts = _check("inverse_identity", _differing(identity, explicit_inv @ matrix))
    checks = [
        symmetric,
        inverts,
        equals_kernel,
        _check("explicit_equals_elimination", _differing(explicit_inv, oracle_inv)),
        _check("det_explicit_equals_norm_product", _det_differs(det_explicit, det_norms)),
        _check("det_explicit_equals_bareiss", _det_differs(det_explicit, det_oracle)),
        _check("inverse_symmetric", _asymmetric(explicit_inv)),
    ]
    if spec.family in _PARITY_FAMILIES:
        checks += [
            _check("matrix_checkerboard_zeros", _odd_nonzero(matrix)),
            _check("inverse_checkerboard_zeros", _odd_nonzero(explicit_inv)),
        ]
    return VerifyReport(spec=spec, n=n, checks=tuple(checks))
