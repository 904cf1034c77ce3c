"""The doubles of ``--float --unnormalized``: exact values times a power of
the family's total mass, correctly rounded, in the standard ``decimal``
module.

The mass is the Gamma table ``closed_form._mass_table``, whose other
evaluator, ``closed_form.unnormalized_scale``, runs in mpmath at any
precision.  This route works at the precision a double needs: the log of
the mass from Stirling's series and Machin's pi, then Ziv's rounding test on
each product.  Only the CLI imports this module, and only for
``--unnormalized``, so that no other request compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache

from .closed_form import _mass_table
from .orthopoly import FamilySpec
from .special import _rising

__all__: list[str] = []

# Ziv's loop for --float: the working precision it starts at and the one it
# stops at, in decimal digits
_ZIV_DIGITS = (30, 300)


def scaled_doubles(values: Sequence[Fraction], spec: FamilySpec, power: int) -> list[float]:
    """Each value times the family's total mass to ``power`` as the nearest
    double, ties to even: +-inf past the largest double and +-0.0 below half
    the smallest, as ``float`` rounds.

    The log of the mass comes once per working precision from
    ``_log_mass``; each product is then an interval from its error bound,
    and it is accepted when both ends round to the same double (Ziv's
    rounding test, A. Ziv, ACM TOMS 17(3), 1991).  The products that
    straddle a rounding boundary are redone at twice the precision, up to
    the cap of ``_ZIV_DIGITS``.  Only an exact midpoint between two doubles,
    which a rational mass can give, straddles there, so it is rounded half
    to even.  Overflow and underflow are decided from the logs, before any
    exponential is taken."""
    doubles = [0.0] * len(values)
    pending = [i for i, value in enumerate(values) if value]
    digits, cap = _ZIV_DIGITS
    while pending:
        with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            # every rounding here is off by less than this relative to its value
            unit = Decimal(1).scaleb(1 - digits)
            log_mass, log_error = _log_mass(spec)
            exponent = log_mass * power
            error = abs(power) * log_error + unit * abs(exponent)
            # log2 of mass^power, and a bound in bits on the error of log2 of
            # a product, whose value's log2 lies within one of its bit-length
            # difference
            bits = exponent / Decimal(2).ln()
            slack = 3 + 2 * error + unit * abs(bits)
            scale = None
            straddling = []
            for i in pending:
                num, den = abs(values[i].numerator), values[i].denominator
                log2 = bits + (num.bit_length() - den.bit_length())
                sign = -1 if values[i] < 0 else 1
                if log2 - slack >= 1024 or log2 + slack < -1075:
                    doubles[i] = math.copysign(math.inf if log2 > 0 else 0.0, sign)
                    continue
                if scale is None:
                    scale = exponent.exp()
                product = Decimal(num) / den * scale
                # e^d - 1 <= 2 d for the exponent's error d <= 1, plus the
                # roundings of the quotient, exp, product and interval ends
                spread = product * (2 * error + 4 * unit)
                low, high = float(product - spread), float(product + spread)
                if low == high:
                    doubles[i] = math.copysign(low, sign)
                elif digits == cap:
                    middle = high if math.isinf(high) else (Fraction(low) + Fraction(high)) / 2
                    doubles[i] = math.copysign(float(middle), sign)
                else:
                    straddling.append(i)
        pending = straddling
        digits = min(2 * digits, cap)
    return doubles


def _log_mass(spec: FamilySpec) -> tuple[Decimal, Decimal]:
    """ln of the family's total mass in the current decimal context, and a
    bound on its absolute error."""
    power, tops, bottoms = _mass_table(spec)
    prec = getcontext().prec
    half_log_two_pi = (2 * _pi()).ln() / 2
    total = Decimal(power.numerator) / power.denominator * Decimal(2).ln()
    size, tail = abs(total), 0
    for sign, points in ((1, tops), (-1, bottoms)):
        for s in points:
            value, magnitude, remainder = _log_gamma(s, half_log_two_pi)
            total += sign * value
            size += magnitude + abs(total)
            tail += remainder
    return total, 10 * size * Decimal(1).scaleb(1 - prec) + tail


def _log_gamma(s: Fraction, half_log_two_pi: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    """ln Gamma(s) at a rational s > 0 in the current decimal context, with
    the sum of the magnitudes of the terms it adds, each off by a few units
    in its last digit, and a bound on the series remainder.

    Stirling's series at z = s + m, shifted so that z is at least the
    precision in digits, less the log of the exact rising product
    (s)_m = Gamma(z) / Gamma(s):

        ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi) / 2
                      + sum_k B_2k / (2k (2k - 1) z^(2k-1)) + R,

    where for real z > 0 the remainder R is smaller than the first term
    left out (DLMF 5.11.1 and 5.11(ii))."""
    prec = getcontext().prec
    shift = max(0, math.ceil(prec - s))
    num, den = s.numerator, s.denominator
    z = Decimal(num + shift * den) / den
    main = (z - Decimal("0.5")) * z.ln()
    rising = (Decimal(_rising(num, den, 0, shift)[-1]) / Decimal(den**shift)).ln()
    unit = Decimal(1).scaleb(1 - prec)
    inverse = 1 / z
    square = inverse * inverse
    series = 0
    for numerator, denominator in _stirling_coefficients(prec // 2 + 8):
        term = numerator * inverse / denominator
        if abs(term) < unit:
            break
        series += term
        inverse *= square
    value = main - z + half_log_two_pi + series - rising
    return value, abs(main) + z + 1 + abs(rising), 2 * abs(term)


@cache
def _stirling_coefficients(count: int) -> tuple[tuple[int, int], ...]:
    """B_2k / (2k (2k - 1)) for k = 1..count as (numerator, denominator),
    from the tangent numbers T_k, B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)),
    by Brent and Harvey's integer recurrence (Fast computation of
    Bernoulli, tangent and secant numbers, 2011)."""
    tangent = [0, 1]
    for k in range(2, count + 1):
        tangent.append((k - 1) * tangent[k - 1])
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tuple(
        ((-1) ** (k - 1) * tangent[k], (2 * k - 1) * 4**k * (4**k - 1)) for k in range(1, count + 1)
    )


def _pi() -> Decimal:
    """pi in the current decimal context, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) summed on ints scaled by 10^places,
    10 places past the precision, each term truncated."""
    one = 10 ** (getcontext().prec + 10)

    def arctan_inverse(x: int) -> int:
        total, power, k = 0, one // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        return total

    return Decimal(16 * arctan_inverse(5) - 4 * arctan_inverse(239)) / one
