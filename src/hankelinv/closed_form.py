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
anchors' running product, and, for jacobi, the printed three-term recurrence
run on ints.  ``gram._kernel_sum`` sums them on ints, and the gegenbauer and
jacobi determinants multiply integer norm ratios and leading coefficients.

One published display is known to be suspect: the closed form for the jacobi
determinant.  ``jacobi_det_as_printed`` keeps it verbatim (including its
prefactor) and evaluates it in floating point next to the exact elimination
value, reporting — never asserting — the comparison.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial

from .elimination import bareiss_det
from .gram import ExactMatrix, _kernel_sum, _over_products, _reduced, moment_matrix
from .orthopoly import Family, FamilySpec, _integer_params, _norm_ratios, _Record
from .special import _rising, barnes_g_int, pochhammer

__all__ = [
    "DiscrepancyNote",
    "explicit_det",
    "explicit_inverse",
    "jacobi_det_as_printed",
    "unnormalized_scale",
]

MAX_DIGITS = 100_000
# the largest n the CLI accepts, for every command: verify, the slowest,
# grows about as n^4.5 and takes ~6 s for jacobi 1/8,1/9 at n = 100
MAX_N = 100


def explicit_det(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form determinant of the normalized (n+1) x (n+1) moment matrix.

    hermite and laguerre come literally from the printed superfactorial /
    rising-factorial products; the other families use the printed products
    with each factor reduced to the rational monic-norm value
    h_k / (leading coefficient)^2: the norms h_0..h_n as running products of
    the integer norm ratios of ``orthopoly``, the leading coefficients as
    integer rising products with the parameters over their common
    denominator q, and one Fraction per degree.  (Multiplying all n+1
    factors into one numerator and denominator first ends in one gcd of
    ~100 000-bit ints at n = 60, which is slower.)"""
    if n < 0:
        raise ValueError("n must be >= 0")
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
        # leading coefficient of the degree-k polynomial: 2^k (lam)_k / k!,
        # with q^k (lam)_k the product of ql + q t, t < k
        rising = _rising(ql, q, 0, n)
        leads = [(2**k * rising[k], q**k * factorial(k)) for k in range(n + 1)]
    else:
        # leading coefficient (k+c)_k / k!, times 2^-k in the jacobi monomial
        # basis; for k >= 1, q^k (k+c)_k is the product of qc + q t,
        # t = k..2k-1, a quotient of two entries of one running product from
        # t = 1 with no factor qc, so c = 0 needs no special case
        qc = qa + qb + q
        rising = _rising(qc, q, 1, 2 * n - 1)
        scale = 2 if fam is Family.JACOBI else 1
        leads = [(1, 1)] + [
            (rising[2 * k - 1], rising[k - 1] * q**k * factorial(k) * scale**k)
            for k in range(1, n + 1)
        ]
    result = Fraction(1)
    norm_num = norm_den = 1
    for (lead_num, lead_den), (ratio_num, ratio_den) in zip(
        leads, [(1, 1), *_norm_ratios(spec, n)]
    ):
        norm_num *= ratio_num
        norm_den *= ratio_den
        result *= Fraction(norm_num * lead_den**2, norm_den * lead_num**2)
    return result


def explicit_inverse(spec: FamilySpec, n: int) -> ExactMatrix:
    """Closed-form inverse of the normalized moment matrix.

    Every printed inverse is a finite sum over k = max(i, j)..n of the form
    B(i, j) = sum_k f(k, i) f(k, j) w(k), built on anchor values of the
    family polynomials with shifted parameters: the running product
    H_{2m+2}(0) = -2 (2m+1) H_{2m}(0) for hermite, rising factorials for
    gegenbauer, and the printed three-term recurrence for jacobi.  The
    family's factor table f and weights w are built once on ints, as integer
    columns over one denominator each and integer weights over one common
    denominator, then summed by ``gram._kernel_sum``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    columns, weights = _FACTOR_TABLES[spec.family](spec, n)
    return _kernel_sum(columns, weights)


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


def _rising_rows(qc: int, q: int, n: int) -> list[list[int]]:
    """Row k holds q^i (k + c)_i for i = 0..k, with qc = q c."""
    return [_rising(qc, q, k, k) for k in range(n + 1)]


def _jacobi_weight_tops(qc: int, q: int, n: int) -> list[int]:
    """q^k (2k + c) (c)_k / c for k = 0..n, with qc = q c and the removable
    c = 0 pole cancelled: 1, then (2qk + qc) (qc + q) ... (qc + q (k-1))."""
    tail = _rising(qc, q, 1, n - 1)
    return [1] + [(2 * q * k + qc) * tail[k - 1] for k in range(1, n + 1)]


def _jacobi_anchors(spec: FamilySpec, n: int) -> list[tuple[int, Sequence[int]]]:
    """Row i holds P_d^(a+i, b+i)(0) for d = 0..n-i as (Q_i, [N_d]), the
    value N_d / Q_i, from P_0 = 1, P_1(0) = (a-b)/2 and the three-term
    recurrence (DLMF 18.9.1) at x = 0:

        2 (d+1) (d+s+1) (2d+s) P_{d+1}(0)
            = (a^2 - b^2) (2d+s+1) P_d(0) - 2 (d+a) (d+b) (2d+s+2) P_{d-1}(0)

    with a, b the shifted parameters (alpha and beta of either jacobi
    variant, raised by i) and s = a + b.  For d >= 1 the divisor is nonzero
    on the whole domain, the alpha + beta = -1 corner included.

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
        # P_d = nums[d] / (divisors[0] ... divisors[d])
        nums, divisors = [1, a_i - b_i], [1, 2 * q]
        for d in range(1, n - i):
            dq = d * q
            after = 2 * (d + 1) * (dq + s + q) * (2 * dq + s) * q
            now = squares * (2 * dq + s + q)
            before = 2 * (dq + a_i) * (dq + b_i) * (2 * dq + s + 2 * q)
            nums.append(now * nums[d] - before * nums[d - 1] * divisors[d])
            divisors.append(after)
        rows.append(_over_products(nums[: n - i + 1], divisors[: n - i + 1]))
    return rows


def _jacobi_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = (-1)^i / (2^i i!) * (k+c)_i P_{k-i}^(a+i, b+i)(0),
    # w(k) = k! (2k+c) (c)_k / c / ((a+1)_k (b+1)_k),  c = a + b + 1
    q, qa, qb, _ = _integer_params(spec)
    qc = qa + qb + q
    upper = _rising_rows(qc, q, n)
    columns = []
    for i, (denom, anchor) in enumerate(_jacobi_anchors(spec, n)):
        sign = (-1) ** i
        columns.append(
            _reduced(
                2**i * factorial(i) * q**i * denom,
                [sign * upper[k][i] * anchor[k - i] for k in range(i, n + 1)],
            )
        )
    tops = _jacobi_weight_tops(qc, q, n)
    weights = _over_products(
        [f * top for f, top in zip(_rising(0, q, 1, n), tops)],  # q^k k! times top
        [1, *((qa + q * t) * (qb + q * t) for t in range(1, n + 1))],
    )
    return columns, weights


def _shifted_jacobi_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = (-1)^i C(k, i) (k+c)_i / (a+1)_i,
    # w(k) = (2k+c) (c)_k / c * (a+1)_k / (k! (b+1)_k); the printed
    # (c)_i (c+i)_k / (c)_k is collapsed to (k+c)_i so the valid
    # alpha + beta = -1 corner stays finite
    q, qa, qb, _ = _integer_params(spec)
    qc = qa + qb + q
    upper = _rising_rows(qc, q, n)
    rising_a = _rising(qa, q, 1, n)
    columns = [
        _reduced(rising_a[i], [(-1) ** i * comb(k, i) * upper[k][i] for k in range(i, n + 1)])
        for i in range(n + 1)
    ]
    tops = _jacobi_weight_tops(qc, q, n)
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
    Family.SHIFTED_JACOBI: _shifted_jacobi_table,
}


class DiscrepancyNote(_Record):
    """Comparison of the as-printed jacobi determinant against the exact one."""

    __slots__ = ("exact", "printed", "rel_error", "tolerance", "agrees", "digits")
    exact: Fraction
    printed: mpmath.mpf
    rel_error: mpmath.mpf
    tolerance: mpmath.mpf
    agrees: bool
    digits: int


def _to_mpf(value: Fraction) -> mpmath.mpf:
    from mpmath import mp

    return mp.mpf(value.numerator) / value.denominator


def jacobi_det_as_printed(spec: FamilySpec, n: int, digits: int = 17) -> DiscrepancyNote:
    """Evaluate the suspect printed jacobi determinant formula verbatim in
    floating point and compare it with the exact elimination determinant of the
    corrected matrix.  The verdict is reported, never asserted."""
    if spec.family is not Family.JACOBI:
        raise ValueError("the as-printed determinant comparison is jacobi-only")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in 1..{MAX_DIGITS}")
    from mpmath import mp

    exact = bareiss_det(moment_matrix(spec, n))
    with mp.workdps(digits + 15):
        a = _to_mpf(spec.alpha)
        b = _to_mpf(spec.beta)
        try:
            prefactor = (
                mp.gamma(a + b + 1)
                * mp.power(2, -(2 * a + 2 * b + n + 1))
                * mp.pi
                / (mp.gamma(a + b + 1) * mp.gamma(a + b + 1))
            ) ** (n + 1)
            block1 = (
                mp.barnesg(n + 2)
                * mp.barnesg((a + b + 1) / 2) ** 2
                * mp.barnesg((a + b + 2) / 2) ** 2
                / (
                    mp.barnesg((a + b + 3) / 2 + n) ** 2
                    * mp.barnesg((a + b + 4) / 2 + n) ** 2
                )
            )
            block2 = (
                mp.barnesg(a + b + n + 2)
                * mp.barnesg(a + n + 2)
                * mp.barnesg(b + n + 2)
                / (
                    mp.rf((a + b + 1) / 2, n + 1)
                    * mp.barnesg(a + b + 1)
                    * mp.barnesg(a + 1)
                    * mp.barnesg(b + 1)
                )
            )
            printed = prefactor * block1 * block2
        except (ZeroDivisionError, ValueError):
            # a pole of the printed display (mpmath raises ValueError on a
            # gamma pole, e.g. at the valid corner alpha + beta = -1)
            printed = mp.nan
        exact_f = _to_mpf(exact)
        tolerance = mp.mpf(10) ** (-mp.mpf(digits) / 2)
        if mp.isfinite(printed):
            rel_error = abs(printed - exact_f) / abs(exact_f)
        else:
            rel_error = mp.inf
        agrees = bool(mp.isfinite(printed) and rel_error <= tolerance)
    return DiscrepancyNote(
        exact=exact,
        printed=printed,
        rel_error=rel_error,
        tolerance=tolerance,
        agrees=agrees,
        digits=digits,
    )


def unnormalized_scale(spec: FamilySpec, digits: int = 17) -> mpmath.mpf:
    """Total mass of the family's unnormalized weight, to ``digits``
    significant figures.  Multiplying the normalized matrix by this scale
    recovers the unnormalized moment matrix.  The only operation here that is
    allowed to return a non-rational."""
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in 1..{MAX_DIGITS}")
    from mpmath import mp

    with mp.workdps(digits + 10):
        fam = spec.family
        if fam is Family.HERMITE:
            return mp.sqrt(mp.pi)
        if fam is Family.LAGUERRE:
            return mp.gamma(_to_mpf(spec.alpha) + 1)
        if fam is Family.GEGENBAUER:
            return mp.beta(mp.mpf(1) / 2, _to_mpf(spec.lam) + mp.mpf(1) / 2)
        a = _to_mpf(spec.alpha)
        b = _to_mpf(spec.beta)
        return mp.power(2, a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
