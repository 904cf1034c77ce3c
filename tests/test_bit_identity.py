"""Bit-identity of the exact outputs: one SHA-256 over the ``repr`` of every
public result at a fixed grid of parameter points and sizes.

The grid is the five parameter points of ROADMAP's layer table plus laguerre
alpha = -8/9, gegenbauer lambda = -4/9, jacobi -1/3,-2/3 (alpha + beta = -1),
jacobi 1/8,1/9 and jacobi-shifted 2/7,-5/7, each at n = 0, 1, 2, 5, 8, 12,
18, 24 and 40.  Per point and size the hashed values are, in this order:
``verify``, ``explicit_inverse``, ``explicit_det``, ``gram_schmidt``,
``kernel_inverse`` and ``det_from_norms`` of that table, ``kernel_eval`` at
(1/3, -2/7) and at (1/2, 1/2), then ``gauss_inverse`` and ``bareiss_det`` of
``moment_matrix``.  The reprs are concatenated with no separator.

A change that only restructures code keeps this hash; a change that moves
any exact value, reduced form or report field changes it.  Every repr is
built from the package's own records and from ``Fraction``, ``int``,
``bool``, ``str`` and tuples, whose reprs are the same on Python 3.10-3.12.
Integers longer than the default 4300 digits occur (the jacobi 1/8,1/9
determinants at n = 40), so the digit limit is lifted while hashing and
restored after.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

from hankelinv import (
    bareiss_det,
    det_from_norms,
    explicit_det,
    explicit_inverse,
    gauss_inverse,
    gram_schmidt,
    kernel_eval,
    kernel_inverse,
    moment_matrix,
    verify,
)
from hankelinv.orthopoly import FamilySpec

_POINTS = [
    FamilySpec.hermite(),
    FamilySpec.laguerre(Fraction(7, 3)),
    FamilySpec.gegenbauer(Fraction(3, 2)),
    FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
    FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
    FamilySpec.laguerre(Fraction(-8, 9)),
    FamilySpec.gegenbauer(Fraction(-4, 9)),
    FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
    FamilySpec.jacobi(Fraction(1, 8), Fraction(1, 9)),
    FamilySpec.shifted_jacobi(Fraction(2, 7), Fraction(-5, 7)),
]
_SIZES = (0, 1, 2, 5, 8, 12, 18, 24, 40)
_EXPECTED = "979353d5dcc7fc3accdc089973b70fbb18586924257cafd34e9616d4d0070692"


def _outputs(spec: FamilySpec, n: int) -> list[object]:
    table = gram_schmidt(spec, n)
    matrix = moment_matrix(spec, n)
    return [
        verify(spec, n),
        explicit_inverse(spec, n),
        explicit_det(spec, n),
        table,
        kernel_inverse(table),
        det_from_norms(table),
        kernel_eval(table, Fraction(1, 3), Fraction(-2, 7)),
        kernel_eval(table, Fraction(1, 2), Fraction(1, 2)),
        gauss_inverse(matrix),
        bareiss_det(matrix),
    ]


def _digest() -> str:
    digest = hashlib.sha256()
    for spec in _POINTS:
        for n in _SIZES:
            for value in _outputs(spec, n):
                digest.update(repr(value).encode())
    return digest.hexdigest()


def test_outputs_hash_to_the_recorded_digest():
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        assert _digest() == _EXPECTED
    finally:
        if limited:
            sys.set_int_max_str_digits(previous)
