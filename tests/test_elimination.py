"""Tests for the elimination determinant and inverse."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hankelinv.elimination import SingularMatrix, bareiss_det, gauss_inverse
from hankelinv.gram import ExactMatrix


def _cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Textbook Laplace expansion along the first row; exponential but
    independent of the Bareiss recurrence."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def _random_matrix(rng: random.Random, size: int) -> ExactMatrix:
    return ExactMatrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
            for _ in range(size)
        ]
    )


class TestBareissDet:
    @pytest.mark.parametrize(
        ("rows", "expected"),
        [
            ([[7]], 7),
            ([[1, 2], [3, 4]], -2),
            ([[0, 1], [1, 0]], -1),
            ([[1, 2], [2, 4]], 0),
            ([[0, 0], [0, 5]], 0),
            ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30),
        ],
    )
    def test_frozen_values(self, rows, expected):
        assert bareiss_det(ExactMatrix(rows)) == Fraction(expected)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(1234)
        for size in range(1, 7):
            for _ in range(4):
                matrix = _random_matrix(rng, size)
                assert bareiss_det(matrix) == _cofactor_det(matrix.to_lists())

    def test_multiplicative(self):
        rng = random.Random(99)
        for _ in range(5):
            a = _random_matrix(rng, 4)
            b = _random_matrix(rng, 4)
            assert bareiss_det(a @ b) == bareiss_det(a) * bareiss_det(b)

    def test_permutation_sign(self):
        # cyclic permutation of 3 elements is even
        perm = ExactMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert bareiss_det(perm) == 1


class TestGaussInverse:
    def test_frozen_two_by_two(self):
        inverse = gauss_inverse(ExactMatrix([[1, 2], [3, 4]]))
        assert inverse.to_lists() == [
            [Fraction(-2), Fraction(1)],
            [Fraction(3, 2), Fraction(-1, 2)],
        ]

    def test_hilbert_three(self):
        hilbert = ExactMatrix(
            [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
        )
        assert gauss_inverse(hilbert).to_lists() == [
            [Fraction(9), Fraction(-36), Fraction(30)],
            [Fraction(-36), Fraction(192), Fraction(-180)],
            [Fraction(30), Fraction(-180), Fraction(180)],
        ]

    def test_round_trip_random(self):
        rng = random.Random(4321)
        checked = 0
        while checked < 8:
            size = rng.randint(1, 5)
            matrix = _random_matrix(rng, size)
            if bareiss_det(matrix) == 0:
                continue
            inverse = gauss_inverse(matrix)
            eye = ExactMatrix.identity(size)
            assert matrix @ inverse == eye
            assert inverse @ matrix == eye
            checked += 1

    def test_inverse_determinant_reciprocal(self):
        rng = random.Random(7)
        matrix = _random_matrix(rng, 4)
        assert bareiss_det(matrix) != 0
        assert bareiss_det(gauss_inverse(matrix)) == 1 / bareiss_det(matrix)

    def test_permutation_inverse_is_transpose(self):
        perm = ExactMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert gauss_inverse(perm).to_lists() == [list(col) for col in zip(*perm.rows)]

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0], [0, 1]]])
    def test_singular_rejected(self, rows):
        with pytest.raises(SingularMatrix):
            gauss_inverse(ExactMatrix(rows))
