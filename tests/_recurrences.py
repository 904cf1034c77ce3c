"""Independent polynomial oracles for the test suite.

Everything here is built from the textbook three-term recurrences and
elementary coefficient-list algebra, on purpose sharing no arithmetic with
the closed forms inside the package.  Coefficient lists are little-endian:
``poly[s]`` multiplies ``x**s``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from hankelinv.orthopoly import Family, FamilySpec


def poly_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for s, c in enumerate(p):
        out[s] += c
    for s, c in enumerate(q):
        out[s] += c
    return out


def poly_scale(p: list[Fraction], c: Fraction | int) -> list[Fraction]:
    c = Fraction(c)
    return [c * v for v in p]


def poly_shift_up(p: list[Fraction]) -> list[Fraction]:
    """Multiply by x."""
    return [Fraction(0)] + list(p)


def poly_eval(p: list[Fraction], x: Fraction | int) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def taylor_shift(p: list[Fraction], c: Fraction | int) -> list[Fraction]:
    """Coefficients of p(y + c) in powers of y."""
    c = Fraction(c)
    out = [Fraction(0)] * len(p)
    for k, a in enumerate(p):
        if a == 0:
            continue
        for j in range(k + 1):
            out[j] += a * comb(k, j) * c ** (k - j)
    return out


def hermite_polys(n_max: int) -> list[list[Fraction]]:
    """H_0 .. H_{n_max} from H_{n+1} = 2x H_n - 2n H_{n-1}."""
    polys = [[Fraction(1)]]
    if n_max >= 1:
        polys.append([Fraction(0), Fraction(2)])
    for n in range(1, n_max):
        nxt = poly_add(
            poly_scale(poly_shift_up(polys[n]), 2),
            poly_scale(polys[n - 1], -2 * n),
        )
        polys.append(nxt)
    return polys


def laguerre_polys(n_max: int, alpha: Fraction | int) -> list[list[Fraction]]:
    """L_0 .. L_{n_max} from (n+1) L_{n+1} = (2n+1+a-x) L_n - (n+a) L_{n-1}."""
    alpha = Fraction(alpha)
    polys = [[Fraction(1)]]
    if n_max >= 1:
        polys.append([alpha + 1, Fraction(-1)])
    for n in range(1, n_max):
        rhs = poly_add(
            poly_scale(polys[n], 2 * n + 1 + alpha),
            poly_scale(poly_shift_up(polys[n]), -1),
        )
        rhs = poly_add(rhs, poly_scale(polys[n - 1], -(n + alpha)))
        polys.append(poly_scale(rhs, Fraction(1, n + 1)))
    return polys


def gegenbauer_polys(n_max: int, lam: Fraction | int) -> list[list[Fraction]]:
    """C_0 .. C_{n_max} from (n+1) C_{n+1} = 2(n+l) x C_n - (n+2l-1) C_{n-1}."""
    lam = Fraction(lam)
    polys = [[Fraction(1)]]
    if n_max >= 1:
        polys.append([Fraction(0), 2 * lam])
    for n in range(1, n_max):
        rhs = poly_add(
            poly_scale(poly_shift_up(polys[n]), 2 * (n + lam)),
            poly_scale(polys[n - 1], -(n + 2 * lam - 1)),
        )
        polys.append(poly_scale(rhs, Fraction(1, n + 1)))
    return polys


def jacobi_polys(n_max: int, alpha: Fraction | int, beta: Fraction | int) -> list[list[Fraction]]:
    """P_0 .. P_{n_max} from the standard three-term recurrence.

    P_0 and P_1 are seeded explicitly and the recurrence only runs from n = 1
    upward, where its leading factor 2(n+1)(n+a+b+1)(2n+a+b) is strictly
    positive for every a, b > -1.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    polys = [[Fraction(1)]]
    if n_max >= 1:
        polys.append([(alpha - beta) / 2, (alpha + beta + 2) / 2])
    for n in range(1, n_max):
        s = 2 * n + alpha + beta
        c_lead = 2 * (n + 1) * (n + alpha + beta + 1) * s
        c_const = (s + 1) * (alpha**2 - beta**2)
        c_x = (s + 1) * (s + 2) * s
        c_prev = 2 * (n + alpha) * (n + beta) * (s + 2)
        rhs = poly_add(
            poly_scale(polys[n], c_const),
            poly_scale(poly_shift_up(polys[n]), c_x),
        )
        rhs = poly_add(rhs, poly_scale(polys[n - 1], -c_prev))
        polys.append([v / c_lead for v in rhs])
    return polys


def oracle_polys(spec: FamilySpec, n_max: int) -> list[list[Fraction]]:
    """The family's standard polynomials of degree 0..n_max in powers of x;
    both jacobi variants get the jacobi polynomials."""
    fam = spec.family
    if fam is Family.HERMITE:
        return hermite_polys(n_max)
    if fam is Family.LAGUERRE:
        return laguerre_polys(n_max, spec.alpha)
    if fam is Family.GEGENBAUER:
        return gegenbauer_polys(n_max, spec.lam)
    return jacobi_polys(n_max, spec.alpha, spec.beta)
