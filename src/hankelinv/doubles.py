"""Decimal evaluation of the package's two non-rational values, in the
standard ``decimal`` module: the family's total mass, for the correctly
rounded doubles of ``--float --unnormalized`` (exact values times a power of
it) and for ``closed_form.unnormalized_scale``, and the printed jacobi
determinant display that ``errata`` reports.

The mass is the Gamma table ``closed_form._mass_table``, and the display the
corrected determinant ``closed_form.explicit_det`` times a power of a Gamma
ratio.  Both take the log of a Gamma product from Stirling's series and
Machin's pi; the doubles and the display are accepted when both ends of
their interval round the same way (Ziv's rounding test).  ``nstr`` writes
decimals by mpmath's ``nstr`` rule.  Only the CLI's ``--unnormalized``,
``closed_form.unnormalized_scale`` and ``closed_form.jacobi_det_as_printed``
import this module, so that no other request compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache
from math import factorial

from .closed_form import _integer_params, _mass_table, explicit_det
from .orthopoly import FamilySpec
from .special import _rising

__all__: list[str] = []

# Ziv's loop for --float: the working precision it starts at and the one it
# stops at, in decimal digits
_ZIV_DIGITS = (30, 300)
# errata's Ziv loop starts this many digits past its --digits, and stops at
# four times that
_ERRATA_GUARD = 20


def scaled_doubles(values: Sequence[Fraction], spec: FamilySpec, power: int) -> list[float]:
    """Each value times the family's total mass to ``power`` as the nearest
    double, ties to even: +-inf past the largest double and +-0.0 below half
    the smallest, as ``float`` rounds.

    The log of the mass comes once per working precision from
    ``_log_gammas``; each product is then an interval from its error bound,
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
            exponent, error, unit, spread = _ziv_bounds(_mass_table(spec), power)
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
                width = product * spread
                low, high = float(product - width), float(product + width)
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


def printed_jacobi_det(
    spec: FamilySpec, n: int, exact: Fraction, digits: int
) -> tuple[Decimal, Decimal, Decimal, bool]:
    """The printed jacobi determinant display at (spec, n) against the exact
    determinant ``exact``, as ``closed_form.jacobi_det_as_printed`` reports
    it: (printed, rel_error, tolerance, agrees).  ``printed`` is the display
    to ``digits`` significant figures, ``rel_error`` its relative distance
    from ``exact`` and ``tolerance`` 10^(-digits/2), both to the 5 figures
    ``errata`` prints, each rounded as ``nstr`` rounds; ``agrees`` says
    whether the relative error is within the tolerance, both unrounded.  At
    the display's pole, c = alpha + beta + 1 = 0, the display is NaN and its
    relative error infinite.

    The display is the corrected one that ``closed_form.explicit_det``
    reduces, with its per-row factor Gamma(c+1) pi / (Gamma(a+1) Gamma(b+1))
    printed as Gamma(c) pi / Gamma(c)^2 (a = alpha, b = beta), so with
    Gamma(c) = Gamma(c+1) / c it is R [Gamma(a+1) Gamma(b+1) /
    Gamma(c+1)^2]^(n+1) with the rational R = c^(n+1) explicit_det(spec, n).
    At integer alpha and beta the Gamma ratio is a! b! / (a+b+1)!^2 and
    everything is exact.  Otherwise the log of the Gamma part comes from
    ``_log_gammas`` with its error bound, so the display and its ratio to
    ``exact`` are intervals.  They are accepted when both ends give the same
    three results and the ratio's interval leaves out 1 (Ziv's rounding
    test), and are redone at twice the precision otherwise, from
    ``digits + _ERRATA_GUARD`` up to four times that, where the midpoint
    decides."""
    with localcontext(Context(prec=5)):
        tolerance = Decimal(1).scaleb(-digits).sqrt()
    q, qa, qb, _ = _integer_params(spec)
    if not (c := spec.alpha + spec.beta + 1):
        return Decimal("NaN"), Decimal("Infinity"), tolerance, False
    num, den = (c ** (n + 1) * explicit_det(spec, n)).as_integer_ratio()
    if q == 1:
        top, bottom = factorial(qa) * factorial(qb), factorial(qa + qb + 1) ** 2
        num, den = num * top ** (n + 1), den * bottom ** (n + 1)
        report = _report((num, den), (num * exact.denominator, den * exact.numerator), digits)
    else:
        tables = (Fraction(0), (spec.alpha + 1, spec.beta + 1), (c + 1,) * 2)
        over_exact = (num * exact.denominator, den * exact.numerator)
        precision = digits + _ERRATA_GUARD
        cap = 4 * precision
        while True:
            with localcontext(Context(prec=precision, Emax=MAX_EMAX, Emin=MIN_EMIN)):
                exponent, _, _, spread = _ziv_bounds(tables, n + 1)
                scale = exponent.exp()
                middle = [Fraction(_rounded(*pair, precision) * scale) for pair in ((num, den), over_exact)]
            # both ends of the intervals, or at the cap their midpoints
            sides = (0,) if precision == cap else (-1, 1)
            ends = [[value * (1 + side * Fraction(spread)) for value in middle] for side in sides]
            reports = {_report(*(value.as_integer_ratio() for value in end), digits) for end in ends}
            ratios = [ratio for _, ratio in ends]
            if len(reports) == 1 and (len(ends) == 1 or min(ratios) > 1 or max(ratios) < 1):
                report = reports.pop()
                break
            precision = min(2 * precision, cap)
    printed, rel_error, agrees = report
    return printed, rel_error, tolerance, agrees


def _ziv_bounds(tables: tuple, power: int) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """E = ``_log_gammas(*tables)`` times ``power`` in the current decimal
    context, a bound e on E's error, the context's unit u, and 2e + 4u."""
    unit = Decimal(1).scaleb(1 - getcontext().prec)
    log, log_error = _log_gammas(*tables)
    error = abs(power) * log_error + unit * abs(log * power)
    # 2e + 4u bounds the relative error of a rational times e^E: e^d - 1 <= 2 d
    # for d <= e <= 1, and a unit each for the quotient, exp, product and ends
    return log * power, error, unit, 2 * error + 4 * unit


def _report(printed: tuple[int, int], ratio: tuple[int, int], digits: int) -> tuple[Decimal, Decimal, bool]:
    """The display, its relative error and the verdict from the display and
    its ratio r to the exact value, each as (numerator, denominator > 0):
    the display to ``digits`` figures, |r - 1| to 5, and whether |r - 1| is
    at most 10^(-digits/2)."""
    top, bottom = ratio
    distance = abs(top - bottom)
    return (
        _rounded(*printed, digits),
        _rounded(distance, bottom, 5),
        distance * distance * 10**digits <= bottom * bottom,
    )


def nstr(value: Decimal | Fraction, digits: int) -> str:
    """``value`` to ``digits`` significant figures, written as mpmath's
    ``nstr`` writes it: rounded half away from zero; in fixed point while the
    leading digit's decimal exponent e has min(-(digits // 3), -5) < e <
    digits, else with "e" and a signed exponent; trailing zeros stripped,
    but one kept after the point.  Zero is "0.0", and NaN and the infinities
    are "nan", "+inf" and "-inf"."""
    if isinstance(value, Decimal) and not value.is_finite():
        return "nan" if value.is_nan() else "-inf" if value.is_signed() else "+inf"
    rounded = _rounded(*value.as_integer_ratio(), digits)
    if not rounded:
        return "0.0"
    sign, figures, exponent = rounded.as_tuple()
    text = "".join(map(str, figures))
    lead = exponent + len(text) - 1
    fixed = min(-(digits // 3), -5) < lead < digits
    if fixed and lead < 0:
        text = "0" * -lead + text
    point = lead + 1 if fixed and lead > 0 else 1
    text = f"{text[:point]}.{text[point:]}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return ("-" if sign else "") + text + ("" if fixed else f"e{lead:+d}")


def _rounded(num: int, den: int, digits: int) -> Decimal:
    """num / den, den > 0, to ``digits`` significant figures, rounded half
    away from zero, as an exact Decimal of that many digits (0 for 0)."""
    if not num:
        return Decimal(0)
    size = abs(num)
    # the decimal exponent of the leading digit, from the bit lengths, then
    # corrected by the quotient's length
    lead = (size.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        shift = digits - 1 - lead
        top, bottom = (size * 10**shift, den) if shift >= 0 else (size, den * 10**-shift)
        mantissa, remainder = divmod(top, bottom)
        if mantissa < 10 ** (digits - 1):
            lead -= 1
        elif mantissa >= 10**digits:
            lead += 1
        else:
            break
    if 2 * remainder >= bottom:
        mantissa += 1
        if mantissa == 10**digits:
            mantissa, shift = mantissa // 10, shift - 1
    return Decimal(f"{'-' if num < 0 else ''}{mantissa}E{-shift}")


def _log_gammas(
    power: Fraction, tops: Sequence[Fraction], bottoms: Sequence[Fraction]
) -> tuple[Decimal, Decimal]:
    """ln(2^power prod Gamma(s) / prod Gamma(t)) over s in ``tops`` and t in
    ``bottoms``, all > 0, in the current decimal context, and a bound on its
    absolute error."""
    prec = getcontext().prec
    half_log_two_pi = (2 * _pi()).ln() / 2
    total = Decimal(power.numerator) / power.denominator * Decimal(2).ln()
    size, tail = abs(total), 0
    logs = {s: _log_gamma(s, half_log_two_pi) for s in {*tops, *bottoms}}
    for sign, points in ((1, tops), (-1, bottoms)):
        for s in points:
            value, magnitude, remainder = logs[s]
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
