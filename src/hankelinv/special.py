"""Exact scalar building blocks: rising factorials, binomials, integer Barnes-G
values, and terminating hypergeometric sums over arbitrary-precision rationals.

None of it is package API.  ``closed_form`` calls ``_rising`` (its factor
tables and ``explicit_det``), and ``explicit_det`` also calls ``pochhammer``
and ``barnes_g_int``.  ``ZeroDenominator``, ``binomial`` and
``hyp_terminating`` serve only the tests, the last also through the test
reference ``orthopoly.special_value``; they stay here until the scalar layer
moves into the tests, since the benchmark tracer wraps them by module and
name.

Every value returned is a ``fractions.Fraction`` in canonical form (reduced,
positive denominator); nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__: list[str] = []


class ZeroDenominator(ArithmeticError):
    """Raised when a lower hypergeometric parameter zeroes a denominator factor."""


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial ``(a)_n = a (a+1) ... (a+n-1)``, with ``(a)_0 = 1``,
    built as one Fraction from its integer numerator (see ``_rising``).

    Only ``n >= 0`` is supported; the negative-index extension is deliberately
    out of scope.
    """
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    a = Fraction(a)
    return Fraction(_rising(a.numerator, a.denominator, 0, n)[-1], a.denominator**n)


def _rising(x: int, q: int, start: int, count: int) -> list[int]:
    """``q^j (x/q + start)_j`` for j = 0..count: entry j is the product of
    ``x + q t`` over t = start..start+j-1, the integer numerator of a rising
    factorial at a point with denominator q."""
    out = [1]
    for t in range(start, start + count):
        out.append(out[-1] * (x + q * t))
    return out


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k) for integer ``n >= 0``; 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


def barnes_g_int(n: int) -> Fraction:
    """Barnes G at a positive integer: ``G(n) = 0! 1! ... (n-2)!``, so G(1) = G(2) = 1.

    Non-integer arguments never occur on the exact paths (ratios of G values
    are reduced to rising-factorial products before evaluation), so only
    ``n >= 1`` is supported.
    """
    if n < 1:
        raise ValueError("barnes_g_int requires n >= 1")
    result = 1
    for i in range(n - 1):
        result *= factorial(i)
    return Fraction(result)


def hyp_terminating(
    m: int,
    upper: list[Fraction | int],
    lower: list[Fraction | int],
    z: Fraction | int,
) -> Fraction:
    """Terminating hypergeometric sum with leading upper parameter ``-m``:

        sum_{k=0..m}  (-m)_k * prod (upper)_k / prod (lower)_k * z^k / k!

    evaluated exactly.  Raises ZeroDenominator if some lower parameter ``c``
    satisfies ``c + k = 0`` for a ``k`` reached by the sum, i.e. ``c`` lies in
    ``{0, -1, ..., -(m-1)}``.
    """
    if m < 0:
        raise ValueError("hyp_terminating requires m >= 0")
    ups = [Fraction(u) for u in upper]
    lows = [Fraction(c) for c in lower]
    z = Fraction(z)

    total = Fraction(1)
    term = Fraction(1)
    for k in range(m):
        numerator = Fraction(k - m)  # the (-m)_k factor advanced by one step
        for u in ups:
            numerator *= u + k
        denominator = Fraction(k + 1)
        for c in lows:
            if c + k == 0:
                raise ZeroDenominator(
                    f"lower parameter {c} yields a zero factor at term k={k + 1}"
                )
            denominator *= c + k
        term = term * numerator * z / denominator
        total += term
    return total
