"""Closed-form determinants and inverses of the normalized moment matrices.

These are independent second routes to the values the kernel engine in
``gram`` produces; tests require exact agreement between the two (and with
the elimination oracle).  Transcendental-looking printed factors (pi, Gamma
and Barnes-G at non-integer points) cancel under the mass-1 normalization, so
each determinant is reduced factor-by-factor to a rational product before
evaluation.  The inverses are built from factor tables held as integer
columns: each column of f(k, i) is one integer vector over one positive
denominator, and the weights one integer vector over another, from rising
products of the parameters over their common denominator, the hermite
anchors' running product, and, for jacobi, the recurrence of the ratios
P_d(0) / P_d(1) run on ints (1 for jacobi-shifted).  The local ``_kernel_sum``
sums them on ints.  The determinants come from three displays: hermite's,
laguerre's and the jacobi one, of which gegenbauer and jacobi-shifted are cases.

That jacobi display is printed with a wrong per-row factor, which
``explicit_det`` corrects.  ``jacobi_det_as_printed`` keeps it as printed
(including its prefactor), which is the corrected determinant times a power
of c = alpha + beta + 1 and of a Gamma ratio, and evaluates that in
``decimal`` next to the exact elimination value, reporting — never
asserting — the comparison.  ``unnormalized_scale``, the family's total
mass, is the one other non-rational value, also in ``decimal``.
"""

from __future__ import annotations

from collections.abc import Sequence
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul

from .elimination import bareiss_det
from .gram import ExactMatrix, _over_products, _reduced, moment_matrix
from .orthopoly import Family, FamilySpec, _Record, _size
from .special import _rising, barnes_g_int, pochhammer

__all__ = [
    "DiscrepancyNote",
    "explicit_det",
    "explicit_inverse",
    "jacobi_det_as_printed",
    "unnormalized_scale",
]

MAX_DIGITS = 100_000
# the largest digits of jacobi_det_as_printed (README, the errata --digits
# bullet)
MAX_ERRATA_DIGITS = 500


def explicit_det(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form determinant of the normalized (n+1) x (n+1) moment matrix,
    each family from its printed display: hermite's superfactorial product,
    laguerre's rising-factorial product, and for the other three the jacobi
    display with its per-row factor corrected, which reduces (c = a + b + 1) to

        G(n+2) 2^(n^2) / (c/2+1)_n
            * prod_{j=1..n} (c+1)_(j-1) (a+1)_j (b+1)_j / (c+1)_(2j-1)^2,

    with no power of c left, so alpha + beta = -1 needs no special case.
    gegenbauer is jacobi at a = b = lambda - 1/2, and jacobi-shifted is
    jacobi over 2^(n(n+1)).  The rising products run on ints with the
    parameters over their common denominator q, G(n+2) = 0! 1! ... n! enters
    as j! in term j, and each term is one Fraction.  (One numerator and
    denominator for all n terms ends in one gcd of ~100 000-bit ints at
    n = 60, which is slower.)"""
    n = _size(n)
    fam = spec.family
    if fam is Family.HERMITE:
        return barnes_g_int(n + 2) / Fraction(2) ** (n * (n + 1) // 2)
    if fam is Family.LAGUERRE:
        result = Fraction(1)
        for k in range(n + 1):
            result *= factorial(k) * pochhammer(spec.alpha + 1, k)
        return result
    q, qa, qb, ql = _integer_params(spec)
    if fam is Family.GEGENBAUER:
        # a = b = lambda - 1/2 over the denominator 2q
        q, qa, qb = 2 * q, 2 * ql - q, 2 * ql - q
    qc = qa + qb + q
    # q^j (c+1)_j, q^j (a+1)_j and q^j (b+1)_j; term j carries q^(j-1)
    rc, ra, rb = _rising(qc, q, 1, 2 * n - 1), _rising(qa, q, 1, n), _rising(qb, q, 1, n)
    result = Fraction(1)
    for j in range(1, n + 1):
        top = factorial(j) * rc[j - 1] * ra[j] * rb[j] * q ** (j - 1)
        result *= Fraction(top, rc[2 * j - 1] ** 2)
    # 2^(n^2) / (c/2+1)_n = (2^(n+1) q)^n / prod_{t=1..n} (qc + 2 q t); over
    # 2^(n(n+1)) for jacobi-shifted that is q^n / prod_t (qc + 2 q t)
    base = q if fam is Family.SHIFTED_JACOBI else 2 ** (n + 1) * q
    return result * Fraction(base**n, _rising(qc, 2 * q, 1, n)[-1])


def explicit_inverse(spec: FamilySpec, n: int) -> ExactMatrix:
    """Closed-form inverse of the normalized moment matrix.

    Every printed inverse is a finite sum over k = max(i, j)..n of the form
    B(i, j) = sum_k f(k, i) f(k, j) w(k), built on anchor values of the
    family polynomials with shifted parameters: the running product
    H_{2m+2}(0) = -2 (2m+1) H_{2m}(0) for hermite, rising factorials for
    gegenbauer, and the recurrence of the ratios P_d(0) / P_d(1) for jacobi
    (1 for jacobi-shifted).  The family's factor table f and weights w are
    built once on ints, as integer columns over one denominator each and
    integer weights over one common denominator, then summed on ints by
    ``_kernel_sum`` below."""
    columns, weights = _FACTOR_TABLES[spec.family](spec, _size(n))
    return _kernel_sum(columns, weights)


def _integer_params(spec: FamilySpec) -> tuple[int, int, int, int]:
    """(q, q alpha, q beta, q lambda) with q the lcm of the denominators of
    the parameters present, so that each of the last three is an int; an
    absent parameter reads 0.  The integer products name them q, qa, qb and
    ql; ``gram``'s moment route clears the denominators on its own."""
    values = (spec.alpha, spec.beta, spec.lam)
    q = lcm(*(v.denominator for v in values if v is not None))
    return q, *(0 if v is None else v.numerator * (q // v.denominator) for v in values)


# a family's inverse as integer columns (c_i, [X(k, i)] for k = i..n), with
# f(k, i) = X(k, i) / c_i and c_i > 0, and weights (D, [V(k)] for k = 0..n),
# with w(k) = V(k) / D and D > 0
_Table = tuple[list[tuple[int, Sequence[int]]], tuple[int, Sequence[int]]]


def _hermite_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = 2^i C(k, i) H_{k-i}(0),  w(k) = 1 / (k! 2^k), with H_0(0) = 1,
    # H_{2m+2}(0) = -2 (2m+1) H_{2m}(0) and odd degrees 0
    anchor = [1]
    for d in range(1, n + 1):
        anchor.append(0 if d % 2 else -2 * (d - 1) * anchor[d - 2])
    columns = [
        (1, [2**i * comb(k, i) * anchor[k - i] for k in range(i, n + 1)]) for i in range(n + 1)
    ]
    return columns, _over_products([1] * (n + 1), [1, *range(2, 2 * n + 1, 2)])


def _laguerre_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = (-1)^i C(k, i) / (a+1)_i,  w(k) = (a+1)_k / k!; q^i (a+1)_i
    # is an integer prime to q, so column i over it is already reduced
    q, qa, _, _ = _integer_params(spec)
    rising = _rising(qa, q, 1, n)
    columns = [
        (rising[i], [(-q) ** i * comb(k, i) for k in range(i, n + 1)]) for i in range(n + 1)
    ]
    return columns, _over_products(rising, [1, *(q * k for k in range(1, n + 1))])


def _gegenbauer_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = 2^i (lam)_i / i! * C_{k-i}^(lam+i)(0), with C_{2m}^(mu)(0) =
    # (-1)^m (mu)_m / m! and odd degrees 0, so f(i + 2m, i) =
    # 2^i (-1)^m (lam)_{i+m} / (i! m!);
    # w(k) = k! (lam + k) / ((2 lam)_k lam): the printed prefactor rescaled for
    # the mass-1 matrix, whose Gamma ratios collapse to 1/lam
    q, _, _, ql = _integer_params(spec)
    rising = _rising(ql, q, 0, n)
    columns = []
    for i in range(n + 1):
        half = (n - i) // 2
        scale, even = _over_products(
            [(-1) ** m * 2**i * rising[i + m] for m in range(half + 1)],
            [factorial(i) * q**i, *(q * m for m in range(1, half + 1))],
        )
        column = [0] * (n - i + 1)
        column[::2] = even
        columns.append((scale, column))
    # w(k) = q^k k! (ql + q k) / (ql (2 ql) (2 ql + q) ... (2 ql + q (k-1)))
    factorials = _rising(0, q, 1, n)  # q^k k!
    weights = _over_products(
        [f * (ql + q * k) for k, f in enumerate(factorials)],
        [ql, *(2 * ql + q * t for t in range(n))],
    )
    return columns, weights


def _jacobi_ratios(spec: FamilySpec, n: int) -> list[tuple[int, Sequence[int]]]:
    """Row i holds R_d = P_d^(a+i, b+i)(0) / P_d^(a+i, b+i)(1) for d = 0..n-i
    as (Q_i, [N_d]), the value N_d / Q_i, from R_0 = 1, R_1 = (a-b)/(2(a+1))
    and the three-term recurrence (DLMF 18.9.1) at x = 0 divided through by
    P_d(1) = (a+1)_d / d!:

        2 (d+s+1) (2d+s) (d+a+1) R_{d+1}
            = (a^2 - b^2) (2d+s+1) R_d - 2 d (d+b) (2d+s+2) R_{d-1}

    with a, b the shifted parameters (alpha and beta raised by i) and
    s = a + b.  For d >= 1 every divisor is > 0 on the whole domain, the
    alpha + beta = -1 corner included.

    Runs on ints: with the parameters over their common denominator q, each
    coefficient times q^3 is an integer, the values run as numerators over
    the product of the divisors, and one gcd reduces each row."""
    q, qa, qb, _ = _integer_params(spec)
    rows = []
    for i in range(n + 1):
        # q times the shifted parameters
        a_i, b_i = qa + i * q, qb + i * q
        s = a_i + b_i
        squares = a_i * a_i - b_i * b_i
        # R_d = nums[d] / (divisors[0] ... divisors[d])
        nums, divisors = [1, a_i - b_i], [1, 2 * (a_i + q)]
        for d in range(1, n - i):
            dq = d * q
            after = 2 * (dq + s + q) * (2 * dq + s) * (dq + a_i + q)
            now = squares * (2 * dq + s + q)
            before = 2 * dq * (dq + b_i) * (2 * dq + s + 2 * q)
            nums.append(now * nums[d] - before * nums[d - 1] * divisors[d])
            divisors.append(after)
        rows.append(_over_products(nums[: n - i + 1], divisors[: n - i + 1]))
    return rows


def _jacobi_table(spec: FamilySpec, n: int) -> _Table:
    # both variants, from the polynomials P^(a+i, b+i) at the basis origin
    # x0 in a basis of scale s: x0 = 0, s = 2 for jacobi, x0 = 1, s = 1 for
    # jacobi-shifted; with c = a + b + 1 and R_i(d) = P_d^(a+i, b+i)(x0) /
    # P_d^(a+i, b+i)(1), which is 1 at x0 = 1,
    # f(k, i) = (-1)^i C(k, i) (k+c)_i R_i(k-i) / ((a+1)_i s^i),
    # w(k) = (2k+c) (c)_k (a+1)_k / (c k! (b+1)_k).  For jacobi this is the
    # printed display with row k of f times k! / (a+1)_k and w(k) over that
    # factor squared; for jacobi-shifted the printed (c)_i (c+i)_k / (c)_k is
    # collapsed to (k+c)_i, so the valid alpha + beta = -1 corner stays finite
    q, qa, qb, _ = _integer_params(spec)
    qc = qa + qb + q
    if spec.family is Family.JACOBI:
        scale, ratios = 2, _jacobi_ratios(spec, n)
    else:
        scale, ratios = 1, [(1, [1] * (n - i + 1)) for i in range(n + 1)]
    upper = [_rising(qc, q, k, k) for k in range(n + 1)]  # row k: q^i (k + c)_i
    rising_a = _rising(qa, q, 1, n)
    columns = [
        _reduced(
            rising_a[i] * scale**i * denom,
            [(-1) ** i * comb(k, i) * upper[k][i] * ratio[k - i] for k in range(i, n + 1)],
        )
        for i, (denom, ratio) in enumerate(ratios)
    ]
    # q^k (2k + c) (c)_k / c with the removable c = 0 pole cancelled: 1, then
    # (2qk + qc) (qc + q) ... (qc + q (k-1)), times q^k (a+1)_k
    tail = _rising(qc, q, 1, n - 1)
    tops = [1] + [(2 * q * k + qc) * tail[k - 1] for k in range(1, n + 1)]
    weights = _over_products(
        [top * ra for top, ra in zip(tops, rising_a)],
        [1, *(q * t * (qb + q * t) for t in range(1, n + 1))],
    )
    return columns, weights


_FACTOR_TABLES = {
    Family.HERMITE: _hermite_table,
    Family.LAGUERRE: _laguerre_table,
    Family.GEGENBAUER: _gegenbauer_table,
    Family.JACOBI: _jacobi_table,
    Family.SHIFTED_JACOBI: _jacobi_table,
}


def _kernel_sum(
    columns: Sequence[tuple[int, Sequence[int]]], weights: tuple[int, Sequence[int]]
) -> ExactMatrix:
    """Symmetric matrix B(i, j) = sum_k f(k, i) f(k, j) w(k) of a
    lower-triangular factor table, f(k, i) = 0 for i > k, summed on ints.

    Column i is (c_i, [G(k, i)] for k = i..n) with f(k, i) = G(k, i) / c_i,
    c_i > 0, and the weights are (D, [V(k)]) with w(k) = V(k) / D, D > 0, so
    that B(i, j) = T(i, j) / (c_i c_j D) with the integer totals
    T(i, j) = sum_k G(k, i) V(k) G(k, j), one triangle summed and mirrored.
    Row i is stored over c_i D lcm(c) with entries T(i, j) lcm(c) / c_j, one
    gcd per row."""
    common, scaled_weights = weights
    size = len(columns)
    totals = [[0] * size for _ in range(size)]
    for i, (_, col_i) in enumerate(columns):
        weighted = list(map(mul, col_i, scaled_weights[i:]))
        for j in range(i, size):
            totals[i][j] = totals[j][i] = sum(map(mul, weighted[j - i :], columns[j][1]))
    scales = [c for c, _ in columns]
    shared = lcm(*scales)
    spread = [shared // c for c in scales]
    return ExactMatrix._from_scaled(
        _reduced(c_i * common * shared, list(map(mul, row, spread)))
        for c_i, row in zip(scales, totals)
    )


class DiscrepancyNote(_Record):
    """Comparison of the as-printed jacobi determinant against the exact one:
    the display to ``digits`` significant figures, its relative error and
    the tolerance 10^(-digits/2) to 5, as ``errata`` prints them, and the
    verdict from the unrounded values."""

    __slots__ = ("exact", "printed", "rel_error", "tolerance", "agrees", "digits")
    exact: Fraction
    printed: Decimal
    rel_error: Decimal
    tolerance: Decimal
    agrees: bool
    digits: int


def jacobi_det_as_printed(spec: FamilySpec, n: int, digits: int = 17) -> DiscrepancyNote:
    """Evaluate the suspect printed jacobi determinant formula as printed, in
    ``decimal`` (``doubles.printed_jacobi_det``), and compare it with the
    exact elimination determinant of the corrected matrix.  The verdict is
    reported, never asserted; at the display's pole alpha + beta = -1 it
    reads NaN, with an infinite relative error."""
    if spec.family is not Family.JACOBI:
        raise ValueError("the as-printed determinant comparison is jacobi-only")
    n = _size(n)
    if not 1 <= (digits := _size(digits, "digits")) <= MAX_ERRATA_DIGITS:
        raise ValueError(f"digits must be in 1..{MAX_ERRATA_DIGITS}")
    from .doubles import printed_jacobi_det

    exact = bareiss_det(moment_matrix(spec, n))
    return DiscrepancyNote(exact, *printed_jacobi_det(spec, n, exact, digits), digits)


# the total mass of each family's unnormalized weight as 2^e prod Gamma(s) /
# prod Gamma(t): (e, (s, ...), (t, ...)); jacobi-shifted has the jacobi row
# (README, "--unnormalized").  Its one evaluator is doubles._log_gammas, for
# unnormalized_scale and for the doubles of --float, doubles.scaled_doubles
def _mass_table(spec: FamilySpec) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    half = Fraction(1, 2)
    fam = spec.family
    if fam is Family.HERMITE:
        return Fraction(0), (half,), ()
    if fam is Family.LAGUERRE:
        return Fraction(0), (spec.alpha + 1,), ()
    if fam is Family.GEGENBAUER:
        return Fraction(0), (half, spec.lam + half), (spec.lam + 1,)
    a, b = spec.alpha, spec.beta
    return a + b + 1, (a + 1, b + 1), (a + b + 2,)


def unnormalized_scale(spec: FamilySpec, digits: int = 17) -> Decimal:
    """Total mass of the family's unnormalized weight, to ``digits``
    significant figures, as a Decimal of ``digits`` + 10 digits, worked out
    at more digits where the log of the mass is large.
    Multiplying the normalized matrix by this scale recovers the
    unnormalized moment matrix.  With the report of ``jacobi_det_as_printed``,
    the only operation here that returns a non-rational."""
    if not 1 <= (digits := _size(digits, "digits")) <= MAX_DIGITS:
        raise ValueError(f"digits must be in 1..{MAX_DIGITS}")
    from .doubles import _log_gammas

    table, rounding = _mass_table(spec), Context(prec=digits + 10, Emax=MAX_EMAX, Emin=MIN_EMIN)
    with localcontext(rounding) as context:
        # e^(log + d) is within 2|d| of the mass for |d| <= 1; the log's error
        # bound grows with its terms, ~s ln s at a large Gamma point s, so the
        # precision grows by the digits the bound is short of 10^-(digits+2)
        while (log := _log_gammas(*table))[1] > Decimal(1).scaleb(-digits - 2):
            context.prec += log[1].adjusted() + digits + 3
        return rounding.plus(log[0].exp())
