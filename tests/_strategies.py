"""Hypothesis strategies over each family's parameter domain, shared by the
property tests.

Parameters are p/q with |p|, q <= 9; ``corner_examples`` pins the corners
that random draws reach only rarely: alpha + beta = -1 for both jacobi
variants, alpha = -8/9 next to the -1 bound, and lambda = -4/9 next to -1/2.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example
from hypothesis import strategies as st

from hankelinv.orthopoly import Family, FamilySpec


def _rationals(lower: Fraction, upper: Fraction = Fraction(10)) -> st.SearchStrategy[Fraction]:
    """p/q with |p|, q <= 9 and lower < p/q < upper."""
    values = {Fraction(p, q) for q in range(1, 10) for p in range(-9, 10)}
    return st.sampled_from(sorted(v for v in values if lower < v < upper))


_ALPHA = _rationals(Fraction(-1))
_LAMBDA = _rationals(Fraction(-1, 2)).filter(bool)
# alpha + beta = -1 with both parameters in the domain needs -1 < alpha < 0
_CORNER_ALPHA = _rationals(Fraction(-1), Fraction(0))

SPECS = st.one_of(
    st.just(FamilySpec.hermite()),
    st.builds(FamilySpec.laguerre, _ALPHA),
    st.builds(FamilySpec.gegenbauer, _LAMBDA),
    st.builds(FamilySpec.jacobi, _ALPHA, _ALPHA),
    st.builds(FamilySpec.shifted_jacobi, _ALPHA, _ALPHA),
    _CORNER_ALPHA.map(lambda a: FamilySpec.jacobi(a, -1 - a)),
    _CORNER_ALPHA.map(lambda a: FamilySpec.shifted_jacobi(a, -1 - a)),
)

# SPECS split by family, for the properties of one family's builder
FAMILY_SPECS = {
    Family.HERMITE: st.just(FamilySpec.hermite()),
    Family.LAGUERRE: st.builds(FamilySpec.laguerre, _ALPHA),
    Family.GEGENBAUER: st.builds(FamilySpec.gegenbauer, _LAMBDA),
    Family.JACOBI: st.one_of(
        st.builds(FamilySpec.jacobi, _ALPHA, _ALPHA),
        _CORNER_ALPHA.map(lambda a: FamilySpec.jacobi(a, -1 - a)),
    ),
    Family.SHIFTED_JACOBI: st.one_of(
        st.builds(FamilySpec.shifted_jacobi, _ALPHA, _ALPHA),
        _CORNER_ALPHA.map(lambda a: FamilySpec.shifted_jacobi(a, -1 - a)),
    ),
}

CORNERS = [
    FamilySpec.jacobi(Fraction(-8, 9), Fraction(-1, 9)),
    FamilySpec.shifted_jacobi(Fraction(-8, 9), Fraction(-1, 9)),
    FamilySpec.jacobi(Fraction(-8, 9), 9),
    FamilySpec.shifted_jacobi(9, Fraction(-8, 9)),
    FamilySpec.laguerre(Fraction(-8, 9)),
    FamilySpec.gegenbauer(Fraction(-4, 9)),
]


def corner_examples(n: int, **arguments):
    """Decorator: run the test on every spec in CORNERS at size n, with any
    further arguments as given, besides the examples Hypothesis draws."""

    def apply(test):
        for spec in CORNERS:
            test = example(spec=spec, n=n, **arguments)(test)
        return test

    return apply
