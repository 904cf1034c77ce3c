"""Tests for the cross-route verification battery."""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _fraction_reference as reference
from _strategies import SPECS, corner_examples
from hankelinv import elimination, gram
from hankelinv.closed_form import explicit_inverse
from hankelinv.gram import (
    ExactMatrix,
    _asymmetric,
    _differing,
    _differing_rows,
    _kernel_inverts,
    _kernel_sum,
    _moment_sequence,
    _monic_factors,
    _monic_rows,
    _odd_nonzero,
    _off_identity,
    _scaled,
    moment_matrix,
)
from hankelinv.orthopoly import FamilySpec
from hankelinv.verify import (
    CheckResult,
    VerifyReport,
    Witness,
    _check,
    _det_differs,
    _differs_from_kernel,
    verify,
)

BASE_CHECKS = [
    "matrix_symmetric",
    "inverse_identity",
    "explicit_equals_kernel",
    "explicit_equals_elimination",
    "det_explicit_equals_norm_product",
    "det_explicit_equals_bareiss",
    "inverse_symmetric",
]
PARITY_CHECKS = ["matrix_checkerboard_zeros", "inverse_checkerboard_zeros"]

# the module, not the function ``hankelinv.verify`` that the package exports
_VERIFY_MODULE = importlib.import_module("hankelinv.verify")


def _engine_rows(spec, n):
    """The kernel engine's integer rows and norms of degree 0..n."""
    return _monic_rows(_moment_sequence(spec, 2 * n + 1))


def _kernel_inverse_of(rows, norms):
    """The kernel inverse of the engine's rows and norms."""
    return _kernel_sum(*_monic_factors(rows, norms))


class TestVerify:
    @pytest.mark.parametrize(
        "spec",
        [FamilySpec.hermite(), FamilySpec.gegenbauer(Fraction(1, 4))],
        ids=lambda s: s.family.value,
    )
    def test_even_weight_families_pass_with_parity_checks(self, spec):
        report = verify(spec, 3)
        assert isinstance(report, VerifyReport)
        assert [c.name for c in report.checks] == BASE_CHECKS + PARITY_CHECKS
        assert report.passed
        assert all(c.passed and c.witness is None for c in report.checks)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.laguerre(Fraction(1, 2)),
            FamilySpec.jacobi(2, 3),
            FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
        ],
        ids=lambda s: s.family.value,
    )
    def test_general_families_pass_without_parity_checks(self, spec):
        report = verify(spec, 4)
        assert [c.name for c in report.checks] == BASE_CHECKS
        assert report.passed

    def test_report_carries_inputs(self):
        spec = FamilySpec.laguerre(0)
        report = verify(spec, 2)
        assert report.spec is spec
        assert report.n == 2

    def test_passing_routes_form_no_identity_product(self, monkeypatch):
        # inverse_identity passes on the kernel certificate alone
        def product(left, right):
            raise AssertionError("E @ M formed")

        monkeypatch.setattr(ExactMatrix, "__matmul__", product)
        for spec in (FamilySpec.hermite(), FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5))):
            assert verify(spec, 6).passed

    def test_shared_inputs_are_built_once(self, monkeypatch):
        # one moment sequence for M and the engine, one symmetry scan of M for
        # its check and the oracle, and the kernel inverse compared as totals:
        # the matrices built are M, E and the oracle's inverse, not K
        spec = FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5))
        matrix = moment_matrix(spec, 6)
        calls = {"moment sequences": 0, "scans of M": 0, "matrices": 0}
        sequence, scan = gram._moment_sequence, gram._asymmetric
        build = ExactMatrix._from_scaled.__func__

        def counted_sequence(*args):
            calls["moment sequences"] += 1
            return sequence(*args)

        def counted_scan(scanned):
            calls["scans of M"] += scanned == matrix
            return scan(scanned)

        def counted_build(cls, rows):
            calls["matrices"] += 1
            return build(cls, rows)

        for module in (gram, _VERIFY_MODULE):
            monkeypatch.setattr(module, "_moment_sequence", counted_sequence)
        for module in (gram, elimination, _VERIFY_MODULE):
            monkeypatch.setattr(module, "_asymmetric", counted_scan)
        monkeypatch.setattr(ExactMatrix, "_from_scaled", classmethod(counted_build))
        assert verify(spec, 6).passed
        assert calls == {"moment sequences": 1, "scans of M": 1, "matrices": 3}

    def test_passing_checks_read_no_fraction_rows(self, monkeypatch):
        # every check scans the stored integer rows
        def rows(matrix):
            raise AssertionError("ExactMatrix.rows read")

        monkeypatch.setattr(ExactMatrix, "rows", property(rows))
        for spec in (
            FamilySpec.hermite(),
            FamilySpec.laguerre(Fraction(7, 3)),
            FamilySpec.gegenbauer(Fraction(3, 2)),
            FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
            FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
        ):
            assert verify(spec, 12).passed

    def test_failed_identity_check_builds_no_identity_matrix(self, monkeypatch):
        # the product E @ M is scanned against the identity in place
        def corrupted(spec, n):
            rows = explicit_inverse(spec, n).to_lists()
            rows[0][1] += 1
            return ExactMatrix(rows)

        def identity(size):
            raise AssertionError("identity matrix built")

        monkeypatch.setattr(_VERIFY_MODULE, "explicit_inverse", corrupted)
        monkeypatch.setattr(ExactMatrix, "identity", identity)
        checks = {c.name: c for c in verify(FamilySpec.shifted_jacobi(0, 0), 2).checks}
        assert checks["inverse_identity"].witness == Witness(0, 0, Fraction(1), Fraction(3, 2))

    def test_degree_zero(self):
        assert verify(FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2)), 0).passed

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            verify(FamilySpec.hermite(), -1)

    @given(spec=SPECS, n=st.integers(0, 8))
    @corner_examples(n=8)
    def test_property_passes(self, spec, n):
        assert verify(spec, n).passed

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.hermite(),
            FamilySpec.laguerre(Fraction(7, 3)),
            FamilySpec.gegenbauer(Fraction(3, 2)),
            FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
            FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
            # alpha + beta = -1
            FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
            FamilySpec.shifted_jacobi(Fraction(-1, 3), Fraction(-2, 3)),
        ],
        ids=lambda spec: "-".join([spec.family.value, *map(str, spec.params().values())]),
    )
    def test_passes_at_n_40(self, spec):
        assert verify(spec, 40).passed


class TestWitnessOfAFailedRoute:
    """A closed-form inverse with entry (0, 1) raised by 1 fails every check
    that reads it, each with the first offending entry as its witness."""

    @pytest.fixture(autouse=True)
    def corrupt_explicit_inverse(self, monkeypatch):
        def corrupted(spec, n):
            rows = explicit_inverse(spec, n).to_lists()
            rows[0][1] += 1
            return ExactMatrix(rows)

        monkeypatch.setattr(_VERIFY_MODULE, "explicit_inverse", corrupted)

    @staticmethod
    def _witnesses(spec, n):
        report = verify(spec, n)
        assert not report.passed
        return {c.name: c.witness for c in report.checks if not c.passed}

    def test_hilbert(self):
        # the inverse 3 x 3 Hilbert matrix has B(0, 1) = -36; row 0 of the
        # product is e_0 + (row 1 of the Hilbert matrix) = (3/2, 1/3, 1/4)
        assert self._witnesses(FamilySpec.shifted_jacobi(0, 0), 2) == {
            "inverse_identity": Witness(0, 0, Fraction(1), Fraction(3, 2)),
            "explicit_equals_kernel": Witness(0, 1, Fraction(-35), Fraction(-36)),
            "explicit_equals_elimination": Witness(0, 1, Fraction(-35), Fraction(-36)),
            "inverse_symmetric": Witness(1, 0, Fraction(-35), Fraction(-36)),
        }

    def test_checkerboard(self):
        # hermite has B(0, 1) = 0, and row 1 of its matrix is (0, 1/2, 0), so
        # row 0 of the product is (1, 1/2, 0)
        assert self._witnesses(FamilySpec.hermite(), 2) == {
            "inverse_identity": Witness(0, 1, Fraction(0), Fraction(1, 2)),
            "explicit_equals_kernel": Witness(0, 1, Fraction(1), Fraction(0)),
            "explicit_equals_elimination": Witness(0, 1, Fraction(1), Fraction(0)),
            "inverse_symmetric": Witness(1, 0, Fraction(1), Fraction(0)),
            "inverse_checkerboard_zeros": Witness(0, 1, Fraction(0), Fraction(1)),
        }


class TestWitnessOfAWrongKernel:
    """Engine rows with coefficient 0 of degree 1 raised by 1 give a kernel
    inverse K that differs from a correct closed form E.  The certificate is
    not consulted, inverse_identity passes through the E @ M product, and only
    explicit_equals_kernel fails, at the first entry where K differs from E."""

    @pytest.fixture(autouse=True)
    def corrupt_engine_rows(self, monkeypatch):
        def corrupted(moments):
            rows, norms = _monic_rows(moments)
            rows[1] = [rows[1][0] + 1, *rows[1][1:]]
            return rows, norms

        monkeypatch.setattr(_VERIFY_MODULE, "_monic_rows", corrupted)
        self.products = 0
        matmul = ExactMatrix.__matmul__

        def counted(left, right):
            self.products += 1
            return matmul(left, right)

        monkeypatch.setattr(ExactMatrix, "__matmul__", counted)

    def _failed(self, spec, n):
        report = verify(spec, n)
        assert self.products == 1
        return {c.name: c.witness for c in report.checks if not c.passed}

    def test_hermite(self):
        # p_1 = t becomes t + 1, so K(0, 0) = 1 + 1 / h_1 + (1/2)^2 / h_2
        # = 1 + 2 + 1/2 against E(0, 0) = 3/2
        assert self._failed(FamilySpec.hermite(), 2) == {
            "explicit_equals_kernel": Witness(0, 0, Fraction(3, 2), Fraction(7, 2)),
        }

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.laguerre(Fraction(7, 3)),
            FamilySpec.gegenbauer(Fraction(3, 2)),
            FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
            FamilySpec.shifted_jacobi(Fraction(-1, 3), Fraction(-2, 3)),
        ],
        ids=lambda spec: spec.family.value,
    )
    def test_first_differing_entry(self, spec):
        rows, norms = _engine_rows(spec, 6)
        rows[1] = [rows[1][0] + 1, *rows[1][1:]]
        expected = reference.first_mismatch(
            "explicit_equals_kernel",
            reference.entrywise(explicit_inverse(spec, 6), _kernel_inverse_of(rows, norms)),
        )
        assert self._failed(spec, 6) == {"explicit_equals_kernel": expected.witness}


class TestKernelTotalsMatchNormalizedKernel:
    """``_differs_from_kernel`` compares E with the kernel totals T / D and
    yields the cells, as values, that the reference scan of E against the
    kernel inverse built as an ``ExactMatrix`` yields: on correct inputs, with
    one entry of E raised by 1 (``TestWitnessOfAFailedRoute``'s fault, at any
    position), and with one engine coefficient raised by 1."""

    @staticmethod
    def _values(cells):
        return [(i, j, Fraction(*e), Fraction(*a)) for i, j, e, a in cells]

    @pytest.mark.parametrize("fault", ["none", "entry", "coefficient"])
    @given(spec=SPECS, n=st.integers(0, 10), where=st.tuples(*[st.integers(0, 10)] * 2))
    @example(spec=FamilySpec.shifted_jacobi(0, 0), n=2, where=(0, 1))
    @example(spec=FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)), n=10, where=(10, 9))
    def test_same_cells(self, fault, spec, n, where):
        explicit = explicit_inverse(spec, n)
        rows, norms = _engine_rows(spec, n)
        i, j = (v % (n + 1) for v in where)
        if fault == "entry":
            entries = explicit.to_lists()
            entries[i][j] += 1
            explicit = ExactMatrix(entries)
        elif fault == "coefficient":
            k, i = max(i, j), min(i, j)
            rows[k] = [*rows[k][:i], rows[k][i] + 1, *rows[k][i + 1 :]]
        expected = list(reference.kernel_mismatches(explicit, rows, norms))
        actual = list(_differs_from_kernel(explicit, rows, norms))
        assert self._values(actual) == self._values(expected)
        assert repr(_check("k", iter(actual))) == repr(_check("k", iter(expected)))
        # a raised entry of E always differs from K; a raised coefficient
        # may not: q_0 = (2) for (1) scales its term by 4 and its weight by 1/4
        if fault != "coefficient":
            assert bool(actual) == (fault == "entry")
        weights = _scaled([1 / (h * q[-1] ** 2) for q, h in zip(rows, norms)])
        assert _monic_factors(rows, norms)[1] == weights


def _perturbed(rows, norms, matrix, kind, k, i, j):
    """The certificate's inputs with one value raised by 1: coefficient i < k
    of the degree-k row, the norm h_k, or the matrix entry (i, j)."""
    rows, norms = [list(q) for q in rows], list(norms)
    if kind == "coefficient":
        rows[k][i % k] += 1
    elif kind == "norm":
        norms[k] += 1
    else:
        entries = matrix.to_lists()
        entries[i][j] += 1
        matrix = ExactMatrix(entries)
    return rows, norms, matrix


class TestKernelCertificate:
    """``_kernel_inverts`` decides K M = I for the kernel inverse K of the
    engine's rows and norms without forming the product."""

    @given(spec=SPECS, n=st.integers(0, 12))
    @corner_examples(n=12)
    def test_verdict_is_the_identity_product(self, spec, n):
        matrix = moment_matrix(spec, n)
        verdict = _kernel_inverts(*_engine_rows(spec, n), matrix)
        assert verdict == (explicit_inverse(spec, n) @ matrix == ExactMatrix.identity(n + 1))

    @pytest.mark.parametrize("kind", ["coefficient", "norm", "entry"])
    @given(spec=SPECS, n=st.integers(1, 12), data=st.data())
    def test_one_raised_value_is_rejected(self, kind, spec, n, data):
        # a coefficient below the leading one: raising the leading one of
        # degree 0 or 1 can rescale a row without changing its kernel term
        k = data.draw(st.integers(1 if kind == "coefficient" else 0, n))
        i, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
        rows, norms, matrix = _perturbed(
            *_engine_rows(spec, n), moment_matrix(spec, n), kind, k, i, j
        )
        assert not _kernel_inverts(rows, norms, matrix)
        assert _kernel_inverse_of(rows, norms) @ matrix != ExactMatrix.identity(n + 1)


class TestCheckHelpers:
    def test_matrix_mismatch_witness(self):
        matrix = ExactMatrix([[1, 1], [0, 1]])
        expected = CheckResult("x", False, Witness(0, 1, Fraction(0), Fraction(1)))
        assert _check("x", _off_identity(matrix)) == expected
        assert _check("x", _differing(ExactMatrix.identity(2), matrix)) == expected

    def test_row_scale_must_divide(self):
        # 3 does not divide 7, though 2 = 1 * floor(7 / 3): the row 2/7
        # differs from 1/3 however the quotient's remainder is dropped
        cells = _differing_rows(ExactMatrix([[Fraction(1, 3)]]), [(7, [2])])
        assert list(cells) == [(0, 0, (1, 3), (2, 7))]

    def test_scalar_mismatch_marks_negative_position(self):
        result = _check("d", _det_differs(Fraction(1, 4), Fraction(1, 3)))
        assert not result.passed
        assert result.witness == Witness(-1, -1, Fraction(1, 4), Fraction(1, 3))

    def test_scalar_match(self):
        assert _check("d", _det_differs(Fraction(1, 4), Fraction(1, 4))).passed

    def test_symmetry_failure(self):
        result = _check("s", _asymmetric(ExactMatrix([[1, 2], [3, 4]])))
        assert not result.passed
        assert result.witness == Witness(1, 0, Fraction(2), Fraction(3))

    def test_parity_failure(self):
        result = _check("p", _odd_nonzero(ExactMatrix([[1, 2], [2, 1]])))
        assert not result.passed
        assert result.witness == Witness(0, 1, Fraction(0), Fraction(2))

    def test_parity_pass(self):
        assert _check("p", _odd_nonzero(ExactMatrix([[1, 0], [0, 1]]))).passed

    def test_first_cell_ends_the_scan(self):
        def cells():
            yield 0, 1, (1, 2), (1, 3)
            raise AssertionError("scanned past the witness")

        assert _check("c", cells()).witness == Witness(0, 1, Fraction(1, 2), Fraction(1, 3))


_ENTRIES = st.sampled_from(sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)}))


@st.composite
def _changed(draw, rows: list[list[Fraction]], most: int = 3) -> list[list[Fraction]]:
    """A copy of ``rows`` with up to ``most`` entries moved by a nonzero step."""
    rows = [list(row) for row in rows]
    size = len(rows)
    for _ in range(draw(st.integers(0, most))):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        rows[i][j] += draw(_ENTRIES.filter(bool))
    return rows


@st.composite
def _square(draw) -> ExactMatrix:
    """A 1 x 1 to 8 x 8 Fraction matrix: random or the identity, made
    symmetric or not, with zeros at odd i + j or not, then with a few entries
    changed, so each check both passes and fails."""
    size = draw(st.integers(1, 8))
    if draw(st.booleans()):
        rows = ExactMatrix.identity(size).to_lists()
    else:
        rows = [[draw(_ENTRIES) for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    if draw(st.booleans()):
        rows = [[0 if (i + j) % 2 else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return ExactMatrix(draw(_changed(rows)))


@st.composite
def _rescaled(draw) -> ExactMatrix:
    """A ``_square()`` matrix, maybe with zeros at even i + j, then with up to
    two rows divided by 2 or 3, which often keeps a row's integers and only
    changes its scale: cases where a decision on the integers alone, without
    the scales or at the wrong positions, would pass a failing check."""
    rows = draw(_square()).to_lists()
    size = len(rows)
    if draw(st.booleans()):
        rows = [[v if (i + j) % 2 else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, size - 1))
        divisor = draw(st.sampled_from([2, 3]))
        rows[i] = [v / divisor for v in rows[i]]
    return ExactMatrix(rows)


class TestCompareMatchesCellScan:
    """Each matrix check's scan of the stored integer rows gives the same
    CheckResult, witness and its types included, as the reference scan of its
    Fraction cells."""

    @staticmethod
    def _same(result, expected):
        assert repr(result) == repr(expected)

    @given(matrix=_rescaled(), data=st.data())
    def test_entrywise_on_integer_rows(self, matrix, data):
        other = ExactMatrix(data.draw(_changed(matrix.to_lists())))
        self._same(
            _check("b", _differing(matrix, other)),
            reference.first_mismatch("b", reference.entrywise(matrix, other)),
        )

    @given(matrix=_rescaled())
    def test_identity_on_integer_rows(self, matrix):
        self._same(
            _check("a", _off_identity(matrix)),
            reference.first_mismatch("a", reference.against_identity(matrix)),
        )

    @given(matrix=_rescaled())
    def test_symmetric_on_integer_rows(self, matrix):
        self._same(
            _check("s", _asymmetric(matrix)),
            reference.first_mismatch("s", reference.mirrored(matrix)),
        )

    @given(expected=st.fractions(), actual=st.fractions())
    def test_determinants(self, expected, actual):
        self._same(
            _check("d", _det_differs(expected, actual)),
            reference.first_mismatch("d", [(-1, -1, expected, actual)]),
        )

    @given(matrix=_rescaled())
    def test_checkerboard_zeros_on_integer_rows(self, matrix):
        self._same(
            _check("p", _odd_nonzero(matrix)),
            reference.first_mismatch("p", reference.odd_zeros(matrix)),
        )
