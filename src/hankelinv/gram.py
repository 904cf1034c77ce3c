"""Moment matrices and the kernel-polynomial engine.

Builds the normalized Hankel moment matrix of a family, orthogonalizes the
family basis against it by classical Gram-Schmidt, and recovers the exact
inverse through the Christoffel-Darboux kernel sum

    B(j, k) = sum_m a_{m,j} a_{m,k} / h_m,

where a_{m,i} are the basis coefficients of the monic orthogonal polynomial
of degree m and h_m its squared norm.  This engine is the authoritative
exact-inverse path; the closed forms in ``closed_form`` must agree with it.

The engine works against the abstract basis index.  For both Jacobi variants
the matrix entries are the sign-folded sequence entry(i,j) =
(-1)^(i+j) * moment(i+j) (the convention under which the shifted-Jacobi
matrix at alpha = beta = 0 is exactly the Hilbert matrix); for the other
families entry(i,j) = moment(i+j).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .orthopoly import Family, FamilySpec, PolyCoeffs
from .special import hyp_terminating, pochhammer

__all__ = [
    "ExactMatrix",
    "NotPositiveDefinite",
    "OrthoTable",
    "moment",
    "hankel_moment",
    "moment_matrix",
    "gram_schmidt",
    "kernel_sum",
    "kernel_inverse",
    "kernel_coeffs",
    "kernel_eval",
    "det_from_norms",
]


class NotPositiveDefinite(ArithmeticError):
    """A pivot norm came out <= 0; unreachable for a valid FamilySpec."""


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable square matrix of Fractions, row-major."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.rows)
        if size == 0 or any(len(row) != size for row in self.rows):
            raise ValueError("ExactMatrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows: list[list[Fraction | int]]) -> "ExactMatrix":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, size: int) -> "ExactMatrix":
        return cls(
            tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(size))
                for i in range(size)
            )
        )

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        """Largest index: the matrix is (n+1) x (n+1)."""
        return self.size - 1

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def scaled_rows(self) -> list[tuple[int, list[int]]]:
        """Each row as (s, s * row), with s the lcm of the row's denominators,
        so that s * row is a list of ints."""
        return [_scaled(row) for row in self.rows]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        # integer dot products of the scaled rows and columns, then one
        # normalisation per entry
        if self.size != other.size:
            raise ValueError("size mismatch")
        cols = [_scaled(col) for col in zip(*other.rows)]
        return ExactMatrix(
            tuple(
                tuple(Fraction(sum(map(mul, row, col)), r * c) for c, col in cols)
                for r, row in self.scaled_rows()
            )
        )

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.rows]


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def moment(spec: FamilySpec, k: int) -> Fraction:
    """k-th moment of the probability-normalized family weight, taken against
    the family basis variable (x, or (x-1)/2 for jacobi-shifted).  Exact;
    moment(spec, 0) = 1 for every family."""
    if k < 0:
        raise ValueError("k must be >= 0")
    fam = spec.family
    if fam in (Family.JACOBI, Family.SHIFTED_JACOBI):
        return (-1) ** k * hankel_moment(spec, k)
    return hankel_moment(spec, k)


def hankel_moment(spec: FamilySpec, k: int) -> Fraction:
    """Entry value of the moment matrix: moment_matrix(spec, n).entry(i, j)
    equals hankel_moment(spec, i + j).  Differs from ``moment`` only by the
    (-1)^k sign fold of the two Jacobi variants."""
    if k < 0:
        raise ValueError("k must be >= 0")
    fam = spec.family
    if fam is Family.HERMITE:
        if k % 2:
            return Fraction(0)
        return pochhammer(Fraction(1, 2), k // 2)
    if fam is Family.LAGUERRE:
        return pochhammer(spec.alpha + 1, k)
    if fam is Family.GEGENBAUER:
        if k % 2:
            return Fraction(0)
        m = k // 2
        return pochhammer(Fraction(1, 2), m) / pochhammer(spec.lam + 1, m)
    a, b = spec.alpha, spec.beta
    if fam is Family.JACOBI:
        # lower parameter a+b+2: fixed by the Beta-integral expansion of the
        # moments (a+b+1 would make the alpha=beta=0 matrix singular)
        return hyp_terminating(k, [b + 1], [a + b + 2], 2)
    return pochhammer(a + 1, k) / pochhammer(a + b + 2, k)


def moment_matrix(spec: FamilySpec, n: int) -> ExactMatrix:
    """The (n+1) x (n+1) normalized Hankel/Gram matrix of the family."""
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = [hankel_moment(spec, k) for k in range(2 * n + 1)]
    return ExactMatrix(tuple(tuple(seq[i + j] for j in range(n + 1)) for i in range(n + 1)))


@dataclass(frozen=True)
class OrthoTable:
    """Monic orthogonal polynomials of degree 0..n (family-basis coefficients)
    together with their squared norms under the matrix bilinear form."""

    spec: FamilySpec
    n: int
    monic: tuple[PolyCoeffs, ...]
    norms: tuple[Fraction, ...]

    def eval_monic(self, m: int, x: Fraction | int) -> Fraction:
        """Value of the degree-m monic polynomial at the point x."""
        return self.monic[m].eval_at(Fraction(x) - self.spec.basis_origin)


def gram_schmidt(spec: FamilySpec, n: int) -> OrthoTable:
    """Classical Gram-Schmidt of the family basis against the Hankel form
    <e_a, e_b> = hankel_moment(a + b).  Exact rational arithmetic throughout."""
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = [hankel_moment(spec, k) for k in range(2 * n + 1)]
    monic: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for m in range(n + 1):
        coeffs = [Fraction(0)] * m + [Fraction(1)]
        for r in range(m):
            # <e_m, monic_r> via the moment sequence
            proj = sum(monic[r][a] * seq[m + a] for a in range(r + 1)) / norms[r]
            for a in range(r + 1):
                coeffs[a] -= proj * monic[r][a]
        # by orthogonality h_m = <monic_m, e_m>
        h = sum(coeffs[a] * seq[m + a] for a in range(m + 1))
        if h <= 0:
            raise NotPositiveDefinite(
                f"norm of degree {m} came out {h}; the moment matrix is not positive definite"
            )
        monic.append(coeffs)
        norms.append(h)
    return OrthoTable(
        spec=spec,
        n=n,
        monic=tuple(PolyCoeffs(tuple(c)) for c in monic),
        norms=tuple(norms),
    )


def kernel_sum(factors: Sequence[Sequence[Fraction]], weights: Sequence[Fraction]) -> ExactMatrix:
    """Symmetric matrix B(i, j) = sum_k f(k, i) f(k, j) w(k).

    ``factors`` is lower triangular: row k holds f(k, 0..k) and f(k, i) = 0
    for i > k, so row k contributes to the entries with max(i, j) <= k.  Both
    the kernel engine (monic coefficients, w = 1 / h) and the closed forms
    (printed factor tables) sum their inverses here."""
    size = len(factors)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for row, weight in zip(factors, weights):
        nonzero = [(i, f) for i, f in enumerate(row) if f]
        for start, (i, f_i) in enumerate(nonzero):
            scaled = f_i * weight
            target = rows[i]
            for j, f_j in nonzero[start:]:
                target[j] += scaled * f_j
    for i in range(size):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return ExactMatrix(tuple(tuple(row) for row in rows))


def kernel_inverse(table: OrthoTable) -> ExactMatrix:
    """Exact inverse of the moment matrix via the kernel coefficient sum
    B(j, k) = sum_m a_{m,j} a_{m,k} / h_m."""
    return kernel_sum([p.coeffs for p in table.monic], [1 / h for h in table.norms])


def kernel_coeffs(table: OrthoTable, y: Fraction | int) -> tuple[Fraction, ...]:
    """Family-basis coefficients of the kernel section k_n(., y)."""
    y = Fraction(y)
    n = table.n
    out = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        weight = table.eval_monic(m, y) / table.norms[m]
        coeffs = table.monic[m].coeffs
        for b in range(m + 1):
            out[b] += weight * coeffs[b]
    return tuple(out)


def kernel_eval(table: OrthoTable, x: Fraction | int, y: Fraction | int) -> Fraction:
    """Exact kernel value k_n(x, y) = sum_m monic_m(x) monic_m(y) / h_m."""
    return sum(
        table.eval_monic(m, x) * table.eval_monic(m, y) / table.norms[m]
        for m in range(table.n + 1)
    )


def det_from_norms(table: OrthoTable) -> Fraction:
    """Determinant of the moment matrix as the product of the monic norms."""
    result = Fraction(1)
    for h in table.norms:
        result *= h
    return result
