"""Closed-form determinants and inverses of the normalized moment matrices.

These are independent second routes to the values the kernel engine in
``gram`` produces; tests require exact agreement between the two (and with
the elimination oracle).  Transcendental-looking printed factors (pi, Gamma
and Barnes-G at non-integer points) cancel under the mass-1 normalization, so
each determinant is reduced factor-by-factor to a rational product before
evaluation.  The inverses are built from factor tables of exact rationals;
the jacobi anchor values among them come from the printed three-term
recurrence run on ints, one gcd per step.

One published display is known to be suspect: the closed form for the jacobi
determinant.  ``jacobi_det_as_printed`` keeps it verbatim (including its
prefactor) and evaluates it in floating point next to the exact elimination
value, reporting — never asserting — the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import TYPE_CHECKING

from .elimination import bareiss_det
from .gram import ExactMatrix, kernel_sum, moment_matrix
from .orthopoly import Family, FamilySpec, _norm_sequence, special_value
from .special import barnes_g_int, pochhammer, rising_factorials

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "DiscrepancyNote",
    "explicit_det",
    "explicit_inverse",
    "jacobi_det_as_printed",
    "unnormalized_scale",
]

MAX_DIGITS = 100_000


def explicit_det(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form determinant of the normalized (n+1) x (n+1) moment matrix.

    hermite and laguerre come literally from the printed superfactorial /
    rising-factorial products; the other families use the printed products
    with each factor reduced to the rational monic-norm value
    h_k / (leading coefficient)^2, the norms h_0..h_n read from one
    ``orthopoly`` norm sequence and the leading coefficients from one list of
    rising factorials.
    """
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
    if fam is Family.GEGENBAUER:
        # leading coefficient of the degree-k polynomial: 2^k (lam)_k / k!
        rising = rising_factorials(spec.lam, n)
        leads = [2**k * rising[k] / factorial(k) for k in range(n + 1)]
    else:
        # leading coefficient (k+c)_k / k!, times 2^-k in the jacobi monomial
        # basis; for k >= 1, (k+c)_k = (c+1)_{2k-1} / (c+1)_{k-1} has no pole
        # at c = 0
        c = spec.alpha + spec.beta + 1
        rising = rising_factorials(c + 1, 2 * n - 1)
        scale = 2 if fam is Family.JACOBI else 1
        leads = [Fraction(1)] + [
            rising[2 * k - 1] / (rising[k - 1] * factorial(k) * scale**k) for k in range(1, n + 1)
        ]
    result = Fraction(1)
    for norm, lead in zip(_norm_sequence(spec, n + 1), leads):
        result *= norm / lead**2
    return result


def explicit_inverse(spec: FamilySpec, n: int) -> ExactMatrix:
    """Closed-form inverse of the normalized moment matrix.

    Every printed inverse is a finite sum over k = max(i, j)..n of the form
    B(i, j) = sum_k f(k, i) f(k, j) w(k), built on anchor values of the
    family polynomials with shifted parameters: ``orthopoly.special_value``
    per degree for hermite, rising factorials for gegenbauer, and the printed
    three-term recurrence for jacobi.  The family's factor table f and
    weights w are built once, then summed by ``gram.kernel_sum``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    factors, weights = _FACTOR_TABLES[spec.family](spec, n)
    return kernel_sum(factors, weights)


# a family's inverse as factor rows f(k, 0..k) and weights w(k), k = 0..n
_Table = tuple[list[list[Fraction]], list[Fraction]]


def _hermite_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = 2^i C(k, i) H_{k-i}(0),  w(k) = 1 / (k! 2^k)
    anchor = [special_value(spec, m) for m in range(n + 1)]
    factors = [[2**i * comb(k, i) * anchor[k - i] for i in range(k + 1)] for k in range(n + 1)]
    weights = [Fraction(1, factorial(k) * 2**k) for k in range(n + 1)]
    return factors, weights


def _laguerre_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = (-1)^i C(k, i) / (a+1)_i,  w(k) = (a+1)_k / k!
    rising = rising_factorials(spec.alpha + 1, n)
    factors = [[(-1) ** i * comb(k, i) / rising[i] for i in range(k + 1)] for k in range(n + 1)]
    weights = [rising[k] / factorial(k) for k in range(n + 1)]
    return factors, weights


def _gegenbauer_anchors(lam: Fraction, n: int) -> list[list[Fraction]]:
    """Row i holds C_d^(lam+i)(0) for d = 0..n-i: (-1)^m (lam+i)_m / m! at
    d = 2m, and 0 at odd d."""
    rows = []
    for i in range(n + 1):
        rising = rising_factorials(lam + i, (n - i) // 2)
        even = [(-1) ** m * r / factorial(m) for m, r in enumerate(rising)]
        rows.append([even[d // 2] if d % 2 == 0 else Fraction(0) for d in range(n - i + 1)])
    return rows


def _gegenbauer_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = 2^i (lam)_i / i! * C_{k-i}^(lam+i)(0),
    # w(k) = k! (lam + k) / ((2 lam)_k lam): the printed prefactor rescaled for
    # the mass-1 matrix, whose Gamma ratios collapse to 1/lam
    lam = spec.lam
    rising = rising_factorials(lam, n)
    double = rising_factorials(2 * lam, n)
    prefactor = [2**i * rising[i] / factorial(i) for i in range(n + 1)]
    anchors = _gegenbauer_anchors(lam, n)
    factors = [
        [prefactor[i] * anchors[i][k - i] for i in range(k + 1)] for k in range(n + 1)
    ]
    weights = [factorial(k) * (lam + k) / (double[k] * lam) for k in range(n + 1)]
    return factors, weights


def _jacobi_weights(c: Fraction, n: int) -> list[Fraction]:
    """(2k + c) (c)_k / c, the removable c = 0 pole cancelled, for k = 0..n."""
    tail = rising_factorials(c + 1, n - 1)
    return [Fraction(1)] + [(2 * k + c) * tail[k - 1] for k in range(1, n + 1)]


def _rising_rows(c: Fraction, n: int) -> list[list[Fraction]]:
    """Row k holds (k + c)_i for i = 0..k."""
    return [rising_factorials(k + c, k) for k in range(n + 1)]


def _jacobi_anchors(a: Fraction, b: Fraction, n: int) -> list[list[Fraction]]:
    """Row i holds P_d^(a+i, b+i)(0) for d = 0..n-i, from P_0 = 1,
    P_1(0) = (a-b)/2 and the three-term recurrence (DLMF 18.9.1) at x = 0:

        2 (d+1) (d+s+1) (2d+s) P_{d+1}(0)
            = (a^2 - b^2) (2d+s+1) P_d(0) - 2 (d+a) (d+b) (2d+s+2) P_{d-1}(0)

    with a, b the shifted parameters and s = a + b.  For d >= 1 the divisor is
    nonzero on the whole domain, the alpha + beta = -1 corner included.

    Runs on ints: with a = A/q and b = B/q over their common denominator q,
    each coefficient times q^3 is an integer, so a step is integer products
    over the two previous values' numerators and denominators and one gcd."""
    q = lcm(a.denominator, b.denominator)
    rows = []
    for i in range(n + 1):
        a_i = a.numerator * (q // a.denominator) + i * q
        b_i = b.numerator * (q // b.denominator) + i * q
        s = a_i + b_i
        squares = a_i * a_i - b_i * b_i
        row = [Fraction(1), Fraction(a_i - b_i, 2 * q)]
        for d in range(1, n - i):
            dq = d * q
            after = 2 * (d + 1) * (dq + s + q) * (2 * dq + s) * q
            now = squares * (2 * dq + s + q)
            before = 2 * (dq + a_i) * (dq + b_i) * (2 * dq + s + 2 * q)
            p, p_before = row[d], row[d - 1]
            row.append(
                Fraction(
                    now * p.numerator * p_before.denominator
                    - before * p_before.numerator * p.denominator,
                    after * p.denominator * p_before.denominator,
                )
            )
        rows.append(row[: n - i + 1])
    return rows


def _jacobi_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = (-1)^i / (2^i i!) * (k+c)_i P_{k-i}^(a+i, b+i)(0),
    # w(k) = k! (2k+c) (c)_k / c / ((a+1)_k (b+1)_k),  c = a + b + 1
    a, b = spec.alpha, spec.beta
    c = a + b + 1
    upper = _rising_rows(c, n)
    prefactor = [Fraction((-1) ** i, 2**i * factorial(i)) for i in range(n + 1)]
    anchors = _jacobi_anchors(a, b, n)
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


def _shifted_jacobi_table(spec: FamilySpec, n: int) -> _Table:
    # f(k, i) = (-1)^i C(k, i) (k+c)_i / (a+1)_i,
    # w(k) = (2k+c) (c)_k / c * (a+1)_k / (k! (b+1)_k); the printed
    # (c)_i (c+i)_k / (c)_k is collapsed to (k+c)_i so the valid
    # alpha + beta = -1 corner stays finite
    a, b = spec.alpha, spec.beta
    c = a + b + 1
    upper = _rising_rows(c, n)
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


_FACTOR_TABLES = {
    Family.HERMITE: _hermite_table,
    Family.LAGUERRE: _laguerre_table,
    Family.GEGENBAUER: _gegenbauer_table,
    Family.JACOBI: _jacobi_table,
    Family.SHIFTED_JACOBI: _shifted_jacobi_table,
}


@dataclass(frozen=True)
class DiscrepancyNote:
    """Comparison of the as-printed jacobi determinant against the exact one."""

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
