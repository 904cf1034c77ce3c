"""Cross-route verification: run every exact path against the others and the
elimination oracle, and report per-check results with witnesses.

The identity check E M = I needs no product when the closed-form inverse E
equals the kernel engine's K and the engine's rows certify K M = I: its monic
polynomials are M-orthogonal with its norms (``gram._kernel_inverts``).
Otherwise E @ M is formed and compared with the identity.

K is only compared, never returned, so it stays the integer totals T of the
kernel sum over its one weight denominator D, row i being T_i / D.  The
moment sequence is built once, for M and for the engine (its one input),
and M's symmetry scan is the verdict the elimination oracle requires on
whether to mirror its inverse.

Every check is one of ``gram``'s scans of stored integer rows that yields,
in row-major order, only the cells that differ: entries of two matrices
cross-multiplied by their row scales (E against K's totals, or against the
oracle's stored rows), entries of a product against the identity, entries
below the diagonal against their mirrors, entries at odd i + j against 0,
or the two determinants as one cell at (-1, -1).  A check passes when its
scan yields nothing; otherwise the first cell is the witness, the only entry
whose Fractions are built.  Mismatches are reported, never raised, so a
failing closed form still yields a complete report.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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
    _hankel,
    _kernel_inverts,
    _kernel_totals,
    _moment_sequence,
    _monic_factors,
    _monic_rows,
    _odd_nonzero,
    _off_identity,
)
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


def _differs_from_kernel(
    expected: ExactMatrix, rows: Sequence[Sequence[int]], norms: Sequence[Fraction]
) -> Iterator[_Cell]:
    """The entries where a matrix differs from the kernel inverse K of the
    engine's rows and norms, in row-major order.  K is left as its integer
    totals T over its one weight denominator D (``gram._kernel_totals``),
    row i being T_i / D, and never normalized into an ``ExactMatrix``."""
    columns, (common, weights) = _monic_factors(rows, norms)
    return _differing_rows(expected, ((common, row) for row in _kernel_totals(columns, weights)))


def _det_differs(expected: Fraction, actual: Fraction) -> Iterator[_Cell]:
    """The scalar comparison as one cell at (-1, -1), when the two differ."""
    if expected != actual:
        yield -1, -1, expected.as_integer_ratio(), actual.as_integer_ratio()


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
    moments = _moment_sequence(spec, 2 * n + 1)
    matrix = _hankel(moments)
    rows, norms = _monic_rows(moments)
    explicit_inv = explicit_inverse(spec, n)
    symmetric = _check("matrix_symmetric", _asymmetric(matrix))
    oracle_inv, det_oracle = _inverse_and_det(matrix, symmetric.passed)
    det_explicit = explicit_det(spec, n)
    det_norms = prod(norms, start=Fraction(1))

    equals_kernel = _check(
        "explicit_equals_kernel", _differs_from_kernel(explicit_inv, rows, norms)
    )
    if equals_kernel.passed and _kernel_inverts(rows, norms, matrix):
        inverts = CheckResult("inverse_identity", True)
    else:
        inverts = _check("inverse_identity", _off_identity(explicit_inv @ matrix))
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
