"""Straight Fraction versions of the library's fast paths, kept as
references: the elimination oracle, the matrix product, the moment
sequences, classical Gram-Schmidt, the Chebyshev algorithm, the kernel sum,
the shifted-parameter anchor values of the closed forms, the jacobi anchor
recurrence, the closed-form determinant with one telescoping norm product
per degree, and the cell-by-cell scans of verify's checks.

Every scalar operation here is a normalised Fraction operation, and every
value comes from its defining formula: slow, but plainly the textbook
algorithms, so the property tests can compare the integer and recurrence
code against them entry for entry.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import factorial

from hankelinv.elimination import SingularMatrix
from hankelinv.gram import ExactMatrix, NotPositiveDefinite, OrthoTable
from hankelinv.orthopoly import Family, FamilySpec, PolyCoeffs, special_value
from hankelinv.special import barnes_g_int, hyp_terminating, pochhammer
from hankelinv.verify import CheckResult, Witness


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


def hankel_moment(spec: FamilySpec, k: int) -> Fraction:
    """Moment-matrix entry of index sum k from its closed form: rising
    factorials, and for jacobi the terminating Gauss sum of the Beta-integral
    expansion."""
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
        return hyp_terminating(k, [b + 1], [a + b + 2], 2)
    return pochhammer(a + 1, k) / pochhammer(a + b + 2, k)


def gram_schmidt(spec: FamilySpec, n: int) -> OrthoTable:
    """Classical Gram-Schmidt of the basis against the Hankel form
    <e_a, e_b> = hankel_moment(a + b)."""
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


def chebyshev(spec: FamilySpec, n: int) -> OrthoTable:
    """The Chebyshev algorithm (Gautschi 2004, section 2.1.7) on Fractions:
    mixed moments sigma_k(l), recurrence coefficients a_k, b_k and norms
    h_k = sigma_k(k) from the 2n+1 moments, then the monic coefficients from
    p_{k+1} = (t - a_k) p_k - b_k p_{k-1}."""
    size = 2 * n + 1
    # sigma_k(l) for l = k..2n-k, and sigma_{k-1}; sigma_0 is the moments
    sigma = [hankel_moment(spec, k) for k in range(size)]
    sigma_before = [Fraction(0)] * size
    p, p_before = [Fraction(1)], []
    # stands in for h_{-1}: at k = 0 it only meets sigma_{-1} = 0 and p_{-1} = 0
    norm_before = Fraction(1)
    monic: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for k in range(n + 1):
        h = sigma[k]
        if h <= 0:
            raise NotPositiveDefinite(
                f"norm of degree {k} came out {h}; the moment matrix is not positive definite"
            )
        monic.append(p)
        norms.append(h)
        if k == n:
            break
        a_k = sigma[k + 1] / h - sigma_before[k] / norm_before
        b_k = h / norm_before
        p_next = [Fraction(0)] + p
        for i, c in enumerate(p):
            p_next[i] -= a_k * c
        for i, c in enumerate(p_before):
            p_next[i] -= b_k * c
        sigma_next = [Fraction(0)] * size
        for l in range(k + 1, size - k - 1):
            sigma_next[l] = sigma[l + 1] - a_k * sigma[l] - b_k * sigma_before[l]
        sigma_before, sigma = sigma, sigma_next
        p_before, p = p, p_next
        norm_before = h
    return OrthoTable(
        spec=spec,
        n=n,
        monic=tuple(PolyCoeffs(tuple(c)) for c in monic),
        norms=tuple(norms),
    )


def kernel_sum(factors, weights) -> ExactMatrix:
    """B(i, j) = sum_k f(k, i) f(k, j) w(k) by Fraction multiply-adds over
    the lower-triangular rows f(k, 0..k)."""
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


def shifted_anchors(spec: FamilySpec, n: int) -> list[list[Fraction]]:
    """Row i holds the anchor values of degrees 0..n-i with every parameter
    raised by i, one ``special_value`` call per entry."""
    return [[special_value(spec, d, shift=i) for d in range(n - i + 1)] for i in range(n + 1)]


def jacobi_anchors(a: Fraction, b: Fraction, n: int) -> list[list[Fraction]]:
    """Row i holds P_d^(a+i, b+i)(0) for d = 0..n-i by the three-term
    recurrence (DLMF 18.9.1) at x = 0 on Fractions, with s = a + b:

        2 (d+1) (d+s+1) (2d+s) P_{d+1}(0)
            = (a^2 - b^2) (2d+s+1) P_d(0) - 2 (d+a) (d+b) (2d+s+2) P_{d-1}(0)"""
    rows = []
    for i in range(n + 1):
        a_i, b_i = a + i, b + i
        s = a_i + b_i
        row = [Fraction(1), (a_i - b_i) / 2]
        for d in range(1, n - i):
            row.append(
                (
                    (a_i * a_i - b_i * b_i) * (2 * d + s + 1) * row[d]
                    - 2 * (d + a_i) * (d + b_i) * (2 * d + s + 2) * row[d - 1]
                )
                / (2 * (d + 1) * (d + s + 1) * (2 * d + s))
            )
        rows.append(row[: n - i + 1])
    return rows


def norm_squared(spec: FamilySpec, m: int) -> Fraction:
    """Squared norm h_m as the telescoping product of the ratios
    h_r / h_{r-1}, r = 1..m, rebuilt from degree 1 (the jacobi ratio at
    r = 1 with its removable a+b+1 factor cancelled)."""
    fam = spec.family
    if fam is Family.HERMITE:
        return Fraction(2) ** m * factorial(m)
    if fam is Family.LAGUERRE:
        return pochhammer(spec.alpha + 1, m) / factorial(m)
    if fam is Family.GEGENBAUER:
        lam = spec.lam
        result = Fraction(1)
        for r in range(1, m + 1):
            result *= (2 * lam + r - 1) * (lam + r - 1) / (r * (lam + r))
        return result
    a, b = spec.alpha, spec.beta
    result = Fraction(1)
    if m >= 1:
        result *= (a + 1) * (b + 1) / (a + b + 3)
    for r in range(2, m + 1):
        result *= (a + r) * (b + r) * (a + b + 2 * r - 1) / (r * (a + b + 2 * r + 1) * (a + b + r))
    return result


def explicit_det(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form determinant with a fresh norm product and a fresh rising
    factorial per degree k: prod_k h_k / (leading coefficient)^2."""
    fam = spec.family
    if fam is Family.HERMITE:
        return barnes_g_int(n + 2) / Fraction(2) ** (n * (n + 1) // 2)
    if fam is Family.LAGUERRE:
        result = Fraction(1)
        for k in range(n + 1):
            result *= factorial(k) * pochhammer(spec.alpha + 1, k)
        return result
    if fam is Family.GEGENBAUER:
        lam = spec.lam
        result = Fraction(1)
        for k in range(n + 1):
            # leading coefficient of the degree-k polynomial: 2^k (lam)_k / k!
            result *= norm_squared(spec, k) * Fraction(factorial(k)) ** 2 / (
                Fraction(4) ** k * pochhammer(lam, k) ** 2
            )
        return result
    c = spec.alpha + spec.beta + 1
    result = Fraction(1)
    for k in range(n + 1):
        lead = pochhammer(k + c, k) / factorial(k)  # times 2^-k in the monomial basis
        if fam is Family.JACOBI:
            lead /= Fraction(2) ** k
        result *= norm_squared(spec, k) / lead**2
    return result


# one compared position of a verify check: (row, col, expected, actual)
_Cell = tuple[int, int, Fraction, Fraction]


def first_mismatch(name: str, cells: Iterable[_Cell]) -> CheckResult:
    """The check's result, with the first cell whose two values differ as the
    witness."""
    for row, col, expected, actual in cells:
        if expected != actual:
            return CheckResult(name, False, Witness(row, col, expected, actual))
    return CheckResult(name, True)


def entrywise(expected: ExactMatrix, actual: ExactMatrix) -> Iterator[_Cell]:
    size = range(actual.size)
    return ((i, j, expected.entry(i, j), actual.entry(i, j)) for i in size for j in size)


def against_identity(matrix: ExactMatrix) -> Iterator[_Cell]:
    """Each entry against the identity's."""
    size = range(matrix.size)
    return ((i, j, Fraction(int(i == j)), matrix.entry(i, j)) for i in size for j in size)


def mirrored(matrix: ExactMatrix) -> Iterator[_Cell]:
    """Each entry below the diagonal against its mirror above it."""
    size = range(matrix.size)
    return ((i, j, matrix.entry(j, i), matrix.entry(i, j)) for i in size for j in range(i))


def odd_zeros(matrix: ExactMatrix) -> Iterator[_Cell]:
    """Each entry at odd i + j against zero."""
    size = range(matrix.size)
    return ((i, j, Fraction(0), matrix.entry(i, j)) for i in size for j in size if (i + j) % 2)
