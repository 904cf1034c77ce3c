"""Straight Fraction versions of the library's fast paths, kept as
references: the elimination oracle, the matrix product, the moment
sequences (closed forms, with and without the Jacobi sign fold, and the
two-step recurrence), rising factorials, classical
Gram-Schmidt, the Chebyshev algorithm, the kernel sum and the kernel
engine's inverse, the Christoffel-Darboux kernel of the top two
polynomials and its certificate with all three checks, the
shifted-parameter
anchor values of the closed forms, the jacobi anchor recurrence, its
values over P_d(1) (the ratios of the integer jacobi table) and the
gegenbauer rising-factorial anchors, the five closed-form factor tables
(the printed jacobi display also rescaled to the integer table's rows),
the norm sequence, the closed-form determinant with one telescoping norm
product per degree and in one pass, the corrected jacobi determinant
display, the cell-by-cell scans of verify's
checks, and its comparison of E with the kernel inverse normalized into an
``ExactMatrix``.  Also the coefficients of the kernel section k_n(., y),
which the reproducing-property tests pair with the moment matrix, and the
mpmath route of ``--float --unnormalized`` (``unnormalized_scale``,
``scaled_doubles``) that the decimal route replaced.

Every scalar operation here is a normalised Fraction operation, and every
value comes from its defining formula: slow, but plainly the textbook
algorithms, so the property tests can compare the integer and recurrence
code against them entry for entry.  The exceptions are integer code that
the library ran before a faster form replaced it, which the new code must
agree with: ``gauss_jordan_inverse_and_det``, the integer Gauss-Jordan
sweep the oracle ran before forward elimination and back-substitution
(same stored rows, determinant and SingularMatrix message), and the kernel
engine's sum over every degree (``monic_factors``, ``sum_form_kernel``)
with its certificate on every row (``kernel_inverts``), which the
Christoffel-Darboux kernel and certificate of the top two rows replaced.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import mul

from hankelinv.closed_form import _kernel_sum
from hankelinv.elimination import SingularMatrix
from hankelinv.gram import ExactMatrix, NotPositiveDefinite, OrthoTable, _differing_rows
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


def _eliminate(
    row: list[int], pivot_row: list[int], pivot: int, factor: int
) -> tuple[int, int, list[int]]:
    """(p, content, (p * row - q * pivot_row) / content), with p / q = pivot /
    factor in lowest terms.  A row that comes out 0 has content 0."""
    g = gcd(pivot, factor)
    p, q = pivot // g, factor // g
    combined = [p * v - q * w for v, w in zip(row, pivot_row)]
    content = gcd(*combined)
    if content > 1:
        combined = [v // content for v in combined]
    return p, content, combined


def _gauss_jordan_sweep(rows: list[list[int]]) -> tuple[int, int]:
    """Gauss-Jordan on the integer ``rows`` in place, pivoting on the first
    nonzero entry at or below the diagonal and clearing the rows below and
    then above each pivot over their full width.  Returns the determinant of
    the left block as (sign * prod(pivots) * prod(contents), prod(p)) over
    the updates below a pivot."""
    size = len(rows)
    numerator, denominator = 1, 1
    for k in range(size):
        pivot_index = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot_index is None:
            raise SingularMatrix(f"no pivot in column {k}")
        if pivot_index != k:
            rows[k], rows[pivot_index] = rows[pivot_index], rows[k]
            numerator = -numerator
        pivot_row = rows[k]
        pivot = pivot_row[k]
        numerator *= pivot
        pivot_tail = pivot_row[k + 1 :]
        for row in rows[k + 1 :]:
            if row[k]:
                p, content, row[k + 1 :] = _eliminate(row[k + 1 :], pivot_tail, pivot, row[k])
                row[k] = 0
                numerator *= content
                denominator *= p
        for i in range(k):
            if rows[i][k]:
                _, _, rows[i] = _eliminate(rows[i], pivot_row, pivot, rows[i][k])
    return numerator, denominator


def gauss_jordan_inverse_and_det(matrix: ExactMatrix) -> tuple[ExactMatrix, Fraction]:
    """Inverse and determinant from one integer Gauss-Jordan sweep on
    [diag(s) M | diag(s)], s the row scales: row i of the inverse is the
    right half over its diagonal entry, already primitive."""
    size = matrix.size
    scaled = matrix.scaled_rows()
    rows = [
        row + [scale if i == j else 0 for j in range(size)]
        for i, (scale, row) in enumerate(scaled)
    ]
    numerator, denominator = _gauss_jordan_sweep(rows)
    inverse = ExactMatrix._from_scaled(
        (row[i], tuple(row[size:])) if row[i] > 0 else (-row[i], tuple(-v for v in row[size:]))
        for i, row in enumerate(rows)
    )
    return inverse, Fraction(numerator, denominator * prod(scale for scale, _ in scaled))


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


def moment(spec: FamilySpec, k: int) -> Fraction:
    """k-th moment of the probability-normalized family weight, taken against
    the family basis variable (x, or (x-1)/2 for jacobi-shifted): the closed
    form ``hankel_moment`` without the (-1)^k sign fold of the two Jacobi
    variants."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if spec.family in (Family.JACOBI, Family.SHIFTED_JACOBI):
        return (-1) ** k * hankel_moment(spec, k)
    return hankel_moment(spec, k)


def rising_factorials(a: Fraction | int, n: int) -> list[Fraction]:
    """[(a)_0, (a)_1, ..., (a)_n] by the step (a)_{k+1} = (a)_k (a + k); just
    [1] for n < 0."""
    a = Fraction(a)
    values = [Fraction(1)]
    for k in range(n):
        values.append(values[-1] * (a + k))
    return values


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


def kernel_inverse(table: OrthoTable) -> ExactMatrix:
    """B(j, k) = sum_m a_{m,j} a_{m,k} / h_m, the Fraction kernel sum of the
    table's monic coefficients with weights 1 / h_m."""
    return kernel_sum([p.coeffs for p in table.monic], [1 / h for h in table.norms])


def monic_factors(
    rows: Sequence[Sequence[int]], norms: Sequence[Fraction]
) -> tuple[list[tuple[int, list[int]]], tuple[int, list[int]]]:
    """The factor table of B(i, j) = sum_k q_k(i) q_k(j) / (h_k lead_k^2) in
    ``closed_form._kernel_sum``'s form: the integer columns q_k(i) over 1,
    and the weights h_k.denominator / (h_k.numerator lead_k^2), each reduced
    by one gcd, over the lcm D of their denominators.  The engine's integer sum
    form, which the Christoffel-Darboux form replaced."""
    size = len(rows)
    columns = [(1, [rows[k][i] for k in range(i, size)]) for i in range(size)]
    weights = []
    for q, h in zip(rows, norms):
        content = gcd(h.denominator, h.numerator * q[-1] ** 2)
        weights.append((h.denominator // content, h.numerator * q[-1] ** 2 // content))
    common = lcm(*(den for _, den in weights))
    return columns, (common, [num * (common // den) for num, den in weights])


def sum_form_kernel(rows: Sequence[Sequence[int]], norms: Sequence[Fraction]) -> ExactMatrix:
    """The kernel inverse of the engine's rows and norms summed over every
    degree, sum_k q_k q_k^T / (h_k lead_k^2), by the integer kernel sum."""
    return _kernel_sum(*monic_factors(rows, norms))


def kernel_inverts(
    rows: Sequence[Sequence[int]], norms: Sequence[Fraction], matrix: ExactMatrix
) -> bool:
    """The certificate that ``sum_form_kernel(rows, norms)`` inverts
    ``matrix``, on every degree: each row of ``matrix`` is its window of
    mu_0..mu_2n, and for every k, sum_i q_k(i) mu_{i+j} = 0 for j < k and
    h_k lead_k for j = k (P M upper triangular with diagonal h_k), about
    n^3 / 3 integer products.  The engine's certificate before the
    Christoffel-Darboux one, which reads only the top two rows."""
    stored = matrix._stored
    (first_scale, first), (last_scale, last) = stored[0], stored[-1]
    denom = lcm(first_scale, last_scale)
    seq = [v * (denom // first_scale) for v in first[:-1]]
    seq += [v * (denom // last_scale) for v in last]
    width = len(stored)
    if next(_differing_rows(matrix, ((denom, seq[i : i + width]) for i in range(width))), None):
        return False
    for k, (q, h) in enumerate(zip(rows, norms)):
        sums = [sum(map(mul, q, seq[j : j + k + 1])) for j in range(k + 1)]
        if any(sums[:-1]) or sums[-1] * h.denominator != h.numerator * q[-1] * denom:
            return False
    return True


def _top_monic(rows: Sequence[Sequence[int]]) -> tuple[list[Fraction], list[Fraction]]:
    """The top two polynomials p_n = q_n / lead_n and p_{n-1}, each as n + 1
    Fraction coefficients; p_{n-1} is all zeros when n = 0."""
    size = len(rows[-1])
    f = [Fraction(v, rows[-1][-1]) for v in rows[-1]]
    if size == 1:
        return f, [Fraction(0)]
    return f, [Fraction(v, rows[-2][-1]) for v in rows[-2]] + [Fraction(0)]


def darboux_kernel(rows: Sequence[Sequence[int]], norms: Sequence[Fraction]) -> ExactMatrix:
    """K = p_n p_n^T / h_n + Bez(p_n, p_{n-1}) / h_{n-1} on Fractions, every
    entry on its own: the Bezoutian (f(x) g(y) - g(x) f(y)) / (x - y) of
    f = p_n and g = p_{n-1} has coefficients
    B(i, j) = sum_{t >= 0} C(i+1+t, j-t), C(a, b) = f_a g_b - g_a f_b, over
    the t with i+1+t <= n and j-t >= 0."""
    f, g = _top_monic(rows)
    size = len(f)
    h_before = norms[-2] if size > 1 else Fraction(1)

    def bezout(i: int, j: int) -> Fraction:
        terms = range(min(size - 2 - i, j) + 1)
        return sum((f[i + 1 + t] * g[j - t] - g[i + 1 + t] * f[j - t] for t in terms), Fraction(0))

    return ExactMatrix(
        [f[i] * f[j] / norms[-1] + bezout(i, j) / h_before for j in range(size)]
        for i in range(size)
    )


def darboux_certifies(
    rows: Sequence[Sequence[int]], norms: Sequence[Fraction], matrix: ExactMatrix
) -> bool:
    """The Christoffel-Darboux certificate on Fractions with its third check
    spelled out: every entry of ``matrix`` is mu_{i+j} of its first and last
    rows; (1) L(f y^j) = 0 for j < n and h_n at j = n, f = p_n;
    (2) L(g y^j) = 0 for j < n-1 and h_{n-1} at j = n-1, g = p_{n-1}; and
    (3) W = g F - f G is the constant h_{n-1}, with the associated
    polynomials F(x) = sum_d x^d sum_{i>d} f_i mu_{i-1-d} and G likewise."""
    entries = matrix.rows
    size = matrix.size
    mu = [*entries[0], *entries[-1][1:]]
    if any(entries[i][j] != mu[i + j] for i in range(size) for j in range(size)):
        return False
    f, g = _top_monic(rows)
    g = g[:-1]
    for p, h in zip([f, g][:size], norms[::-1]):
        sums = [sum(c * mu[i + j] for i, c in enumerate(p)) for j in range(len(p))]
        if any(sums[:-1]) or sums[-1] != h:
            return False
    if size == 1:
        return True

    def associated(p: list[Fraction]) -> list[Fraction]:
        return [sum(p[i] * mu[i - 1 - d] for i in range(d + 1, len(p))) for d in range(len(p) - 1)]

    def times(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (2 * size - 3)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    wronskian = [x - y for x, y in zip(times(g, associated(f)), times(f, associated(g)))]
    return wronskian == [norms[-2]] + [Fraction(0)] * (2 * size - 4)


def kernel_coeffs(table: OrthoTable, y: Fraction | int) -> tuple[Fraction, ...]:
    """Family-basis coefficients of the kernel section k_n(., y)."""
    y = Fraction(y)
    n = len(table.monic) - 1
    out = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        weight = table.monic[m].eval_at(y - table.spec.basis_origin) / table.norms[m]
        coeffs = table.monic[m].coeffs
        for b in range(m + 1):
            out[b] += weight * coeffs[b]
    return tuple(out)


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


def jacobi_ratios(a: Fraction, b: Fraction, n: int) -> list[list[Fraction]]:
    """Row i holds P_d^(a+i, b+i)(0) / P_d^(a+i, b+i)(1) for d = 0..n-i: the
    ``jacobi_anchors`` row over P_d^(a+i, b+i)(1) = (a+i+1)_d / d!."""
    rows = []
    for i, row in enumerate(jacobi_anchors(a, b, n)):
        at_one = rising_factorials(a + i + 1, len(row) - 1)
        rows.append([value * factorial(d) / at_one[d] for d, value in enumerate(row)])
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


def moment_sequence(spec: FamilySpec, count: int) -> list[Fraction]:
    """hankel_moment(spec, k) for k = 0..count-1 by the family's two-step
    relation d(k) mu_{k+1} = e(k) mu_k + f(k) mu_{k-1} on Fractions, one
    division per step."""
    fam = spec.family
    a, b, lam = spec.alpha, spec.beta, spec.lam
    if fam is Family.HERMITE:
        step = lambda k: (2, 0, k)
    elif fam is Family.LAGUERRE:
        step = lambda k: (1, a + k + 1, 0)
    elif fam is Family.GEGENBAUER:
        step = lambda k: (2 * lam + k + 1, 0, k)
    elif fam is Family.JACOBI:
        step = lambda k: (a + b + k + 2, a - b, k)
    else:
        step = lambda k: (a + b + k + 2, a + k + 1, 0)
    seq = [Fraction(1)]
    before = Fraction(0)
    for k in range(count - 1):
        d, e, f = step(k)
        seq.append((e * seq[k] + f * before) / d)
        before = seq[k]
    return seq


def norm_sequence(spec: FamilySpec, count: int) -> list[Fraction]:
    """norm_squared(spec, m) for m = 0..count-1 as one running product of
    the Fraction ratios h_m / h_{m-1}, from h_0 = 1."""
    fam = spec.family
    a, b, lam = spec.alpha, spec.beta, spec.lam
    if fam is Family.HERMITE:
        ratio = lambda m: 2 * m
    elif fam is Family.LAGUERRE:
        ratio = lambda m: (a + m) / m
    elif fam is Family.GEGENBAUER:
        ratio = lambda m: (2 * lam + m - 1) * (lam + m - 1) / (m * (lam + m))
    else:
        ratio = lambda m: (
            (a + 1) * (b + 1) / (a + b + 3)
            if m == 1
            else (a + m) * (b + m) * (a + b + 2 * m - 1) / (m * (a + b + 2 * m + 1) * (a + b + m))
        )
    seq = [Fraction(1)]
    for m in range(1, count):
        seq.append(seq[-1] * ratio(m))
    return seq


def explicit_det_one_pass(spec: FamilySpec, n: int) -> Fraction:
    """The gegenbauer and jacobi determinants on Fractions: one norm
    sequence and one list of rising factorials, prod_k h_k / lead_k^2."""
    fam = spec.family
    if fam is Family.GEGENBAUER:
        # leading coefficient of the degree-k polynomial: 2^k (lam)_k / k!
        rising = rising_factorials(spec.lam, n)
        leads = [2**k * rising[k] / factorial(k) for k in range(n + 1)]
    else:
        # leading coefficient (k+c)_k / k!, times 2^-k in the jacobi monomial
        # basis; for k >= 1, (k+c)_k = (c+1)_{2k-1} / (c+1)_{k-1}
        c = spec.alpha + spec.beta + 1
        rising = rising_factorials(c + 1, 2 * n - 1)
        scale = 2 if fam is Family.JACOBI else 1
        leads = [Fraction(1)] + [
            rising[2 * k - 1] / (rising[k - 1] * factorial(k) * scale**k) for k in range(1, n + 1)
        ]
    result = Fraction(1)
    for norm, lead in zip(norm_sequence(spec, n + 1), leads):
        result *= norm / lead**2
    return result


def jacobi_det_display(spec: FamilySpec, n: int) -> Fraction:
    """The corrected jacobi determinant display, literally, c = a + b + 1:

        G(n+2) 2^((n+1)(n-1)) c^(n+1) / (c/2)_(n+1)
            * prod_{j=0..n} (c)_j (a+1)_j (b+1)_j / (c)_(2j)^2,

    over 2^(n(n+1)) for jacobi-shifted, and at a = b = lambda - 1/2 for
    gegenbauer.  Undefined at c = 0, where every factor of c cancels."""
    if spec.family is Family.GEGENBAUER:
        a = b = spec.lam - Fraction(1, 2)
    else:
        a, b = spec.alpha, spec.beta
    c = a + b + 1
    result = barnes_g_int(n + 2) * Fraction(2) ** ((n + 1) * (n - 1)) * c ** (n + 1)
    result /= pochhammer(c / 2, n + 1)
    for j in range(n + 1):
        result *= pochhammer(c, j) * pochhammer(a + 1, j) * pochhammer(b + 1, j)
        result /= pochhammer(c, 2 * j) ** 2
    if spec.family is Family.SHIFTED_JACOBI:
        result /= Fraction(2) ** (n * (n + 1))
    return result


# a family's inverse as Fraction factor rows f(k, 0..k) and weights w(k)
_Table = tuple[list[list[Fraction]], list[Fraction]]


def hermite_table(spec: FamilySpec, n: int) -> _Table:
    """f(k, i) = 2^i C(k, i) H_{k-i}(0),  w(k) = 1 / (k! 2^k), the anchors by
    ``special_value``."""
    anchor = [special_value(spec, m) for m in range(n + 1)]
    factors = [[2**i * comb(k, i) * anchor[k - i] for i in range(k + 1)] for k in range(n + 1)]
    weights = [Fraction(1, factorial(k) * 2**k) for k in range(n + 1)]
    return factors, weights


def laguerre_table(spec: FamilySpec, n: int) -> _Table:
    """f(k, i) = (-1)^i C(k, i) / (a+1)_i,  w(k) = (a+1)_k / k!"""
    rising = rising_factorials(spec.alpha + 1, n)
    factors = [[(-1) ** i * comb(k, i) / rising[i] for i in range(k + 1)] for k in range(n + 1)]
    weights = [rising[k] / factorial(k) for k in range(n + 1)]
    return factors, weights


def gegenbauer_anchors(lam: Fraction, n: int) -> list[list[Fraction]]:
    """Row i holds C_d^(lam+i)(0) for d = 0..n-i: (-1)^m (lam+i)_m / m! at
    d = 2m, and 0 at odd d."""
    rows = []
    for i in range(n + 1):
        rising = rising_factorials(lam + i, (n - i) // 2)
        even = [(-1) ** m * r / factorial(m) for m, r in enumerate(rising)]
        rows.append([even[d // 2] if d % 2 == 0 else Fraction(0) for d in range(n - i + 1)])
    return rows


def gegenbauer_table(spec: FamilySpec, n: int) -> _Table:
    """f(k, i) = 2^i (lam)_i / i! * C_{k-i}^(lam+i)(0),
    w(k) = k! (lam + k) / ((2 lam)_k lam)."""
    lam = spec.lam
    rising = rising_factorials(lam, n)
    double = rising_factorials(2 * lam, n)
    prefactor = [2**i * rising[i] / factorial(i) for i in range(n + 1)]
    anchors = gegenbauer_anchors(lam, n)
    factors = [
        [prefactor[i] * anchors[i][k - i] for i in range(k + 1)] for k in range(n + 1)
    ]
    weights = [factorial(k) * (lam + k) / (double[k] * lam) for k in range(n + 1)]
    return factors, weights


def _jacobi_weights(c: Fraction, n: int) -> list[Fraction]:
    """(2k + c) (c)_k / c, the removable c = 0 pole cancelled, for k = 0..n."""
    tail = rising_factorials(c + 1, n - 1)
    return [Fraction(1)] + [(2 * k + c) * tail[k - 1] for k in range(1, n + 1)]


def jacobi_table(spec: FamilySpec, n: int) -> _Table:
    """f(k, i) = (-1)^i / (2^i i!) * (k+c)_i P_{k-i}^(a+i, b+i)(0),
    w(k) = k! (2k+c) (c)_k / c / ((a+1)_k (b+1)_k),  c = a + b + 1."""
    a, b = spec.alpha, spec.beta
    c = a + b + 1
    upper = [rising_factorials(k + c, k) for k in range(n + 1)]
    prefactor = [Fraction((-1) ** i, 2**i * factorial(i)) for i in range(n + 1)]
    anchors = jacobi_anchors(a, b, n)
    factors = [
        [prefactor[i] * upper[k][i] * anchors[i][k - i] for i in range(k + 1)]
        for k in range(n + 1)
    ]
    rising_a, rising_b = rising_factorials(a + 1, n), rising_factorials(b + 1, n)
    weights = [
        factorial(k) * wf / (rising_a[k] * rising_b[k])
        for k, wf in enumerate(_jacobi_weights(c, n))
    ]
    return factors, weights


def shifted_jacobi_table(spec: FamilySpec, n: int) -> _Table:
    """f(k, i) = (-1)^i C(k, i) (k+c)_i / (a+1)_i,
    w(k) = (2k+c) (c)_k / c * (a+1)_k / (k! (b+1)_k)."""
    a, b = spec.alpha, spec.beta
    c = a + b + 1
    upper = [rising_factorials(k + c, k) for k in range(n + 1)]
    rising_a, rising_b = rising_factorials(a + 1, n), rising_factorials(b + 1, n)
    factors = [
        [(-1) ** i * comb(k, i) * upper[k][i] / rising_a[i] for i in range(k + 1)]
        for k in range(n + 1)
    ]
    weights = [
        wf * rising_a[k] / (factorial(k) * rising_b[k])
        for k, wf in enumerate(_jacobi_weights(c, n))
    ]
    return factors, weights


def rescaled_jacobi_table(spec: FamilySpec, n: int) -> _Table:
    """``jacobi_table`` with row k of f times k! / (a+1)_k and w(k) over that
    factor squared, the form of the integer table: the same kernel sum."""
    factors, weights = jacobi_table(spec, n)
    rising_a = rising_factorials(spec.alpha + 1, n)
    scales = [factorial(k) / rising_a[k] for k in range(n + 1)]
    return (
        [[scale * value for value in row] for scale, row in zip(scales, factors)],
        [weight / scale**2 for scale, weight in zip(scales, weights)],
    )


FACTOR_TABLES = {
    Family.HERMITE: hermite_table,
    Family.LAGUERRE: laguerre_table,
    Family.GEGENBAUER: gegenbauer_table,
    Family.JACOBI: rescaled_jacobi_table,
    Family.SHIFTED_JACOBI: shifted_jacobi_table,
}


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


def kernel_mismatches(
    explicit: ExactMatrix, rows: list[list[int]], norms: list[Fraction]
) -> Iterator[tuple[int, int, tuple[int, int], tuple[int, int]]]:
    """``explicit_equals_kernel``'s cells as verify would find them with the
    kernel inverse built as an ``ExactMatrix``: the Fraction
    Christoffel-Darboux kernel of the engine's top two rows, then every entry
    of E cross-multiplied with it."""
    kernel = darboux_kernel(rows, norms)
    for i, ((s, want), (t, got)) in enumerate(zip(explicit._stored, kernel._stored)):
        for j, (e, a) in enumerate(zip(want, got)):
            if e * t != a * s:
                yield i, j, (e, s), (a, t)


def unnormalized_scale(spec: FamilySpec, digits: int):
    """The family's total mass as an mpmath number at ``digits`` + 10
    working digits, from the textbook formula of each family: sqrt(pi),
    Gamma(alpha + 1), B(1/2, lambda + 1/2) and, for both jacobi variants,
    2^(alpha + beta + 1) Gamma(alpha + 1) Gamma(beta + 1) / Gamma(alpha + beta + 2)."""
    from mpmath import mp

    def exact(value: Fraction):
        return mp.mpf(value.numerator) / value.denominator

    with mp.workdps(digits + 10):
        fam = spec.family
        if fam is Family.HERMITE:
            return mp.sqrt(mp.pi)
        if fam is Family.LAGUERRE:
            return mp.gamma(exact(spec.alpha) + 1)
        if fam is Family.GEGENBAUER:
            return mp.beta(mp.mpf(1) / 2, exact(spec.lam) + mp.mpf(1) / 2)
        a, b = exact(spec.alpha), exact(spec.beta)
        return mp.power(2, a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)


def scaled_doubles(values: list[Fraction], spec: FamilySpec, power: int, digits: int) -> list[float]:
    """``--float --unnormalized``'s doubles, as the CLI printed them before
    the decimal route: each value times ``unnormalized_scale`` to ``power``
    at ``digits`` + 10 working digits, converted by mpmath's ``float``, then
    rounded to ``digits`` significant figures below 17."""
    from mpmath import mp

    scale = unnormalized_scale(spec, digits)
    out = []
    for value in values:
        with mp.workdps(digits + 10):
            result = float(mp.mpf(value.numerator) / value.denominator * scale**power)
        if digits < 17:
            result = float(f"{result:.{digits}g}")
        out.append(result)
    return out
