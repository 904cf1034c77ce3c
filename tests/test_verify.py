"""Tests for the cross-route verification battery."""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

import _fraction_reference as reference
from _strategies import SPECS, corner_examples
from hankelinv import elimination, gram
from hankelinv.closed_form import explicit_inverse
from hankelinv.gram import (
    ExactMatrix,
    NotPositiveDefinite,
    _asymmetric,
    _differing,
    _darboux_inverts,
    _darboux_kernel,
    _differing_rows,
    _hankel,
    _moment_sequence,
    _monic_rows,
    _odd_nonzero,
    moment_matrix,
)
from hankelinv.orthopoly import FamilySpec
from hankelinv.verify import (
    CheckResult,
    VerifyReport,
    Witness,
    _check,
    _det_differs,
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
    return _monic_rows(_moments(spec, n))


def _moments(spec, n):
    """The 2n + 1 moments as (D, [N_k]), the sequence M and the engine take."""
    return _moment_sequence(spec, 2 * n + 1)


def _one_raised(moments, k):
    """The moments (D, [N_k]) with N_k raised by 1."""
    denom, seq = moments
    return denom, [v + (m == k) for m, v in enumerate(seq)]


def _raised(rows, k, i):
    """The rows with coefficient i of the degree-k row raised by 1."""
    rows = [list(q) for q in rows]
    rows[k][i] += 1
    return rows


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

    def test_failed_identity_check_witness(self, monkeypatch):
        # the product E @ M is compared with the identity, its first
        # differing cell the witness
        def corrupted(spec, n):
            rows = explicit_inverse(spec, n).to_lists()
            rows[0][1] += 1
            return ExactMatrix(rows)

        monkeypatch.setattr(_VERIFY_MODULE, "explicit_inverse", corrupted)
        checks = {c.name: c for c in verify(FamilySpec.shifted_jacobi(0, 0), 2).checks}
        assert checks["inverse_identity"].witness == Witness(0, 0, Fraction(1), Fraction(3, 2))

    def test_degree_zero(self):
        assert verify(FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2)), 0).passed

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
    """Engine rows with coefficient 0 of degree n - 1, one of the two rows
    that the Christoffel-Darboux kernel reads, raised by 1 give a kernel
    inverse K that differs from a correct closed form E.  The certificate is
    not consulted, inverse_identity passes through the E @ M product, and
    only explicit_equals_kernel fails, at the first entry where K differs
    from E.

    At hermite n = 2, p_2 = t^2 - 1/2, p_1 = t, h_2 = h_1 = 1/2, E(0, 0) =
    3/2 and E(0, 1) = 0.  K = p_2 p_2^T / h_2 + Bez(p_2, p_1) / h_1 with
    Bez(0, 0) = f_1 g_0 - g_1 f_0 and Bez(0, 1) = f_2 g_0 - g_2 f_0, so
    p_1 = t + 1 gives K(0, 0) = 1/2 + 1 = E(0, 0) and K(0, 1) = 0 + 2."""

    below_top = 1
    hermite_witness = Witness(0, 1, Fraction(0), Fraction(2))

    @pytest.fixture(autouse=True)
    def corrupt_engine_rows(self, monkeypatch):
        def corrupted(moments):
            rows, norms = _monic_rows(moments)
            return _raised(rows, len(rows) - 1 - self.below_top, 0), norms

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
        assert self._failed(FamilySpec.hermite(), 2) == {
            "explicit_equals_kernel": self.hermite_witness,
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
        rows = _raised(rows, 6 - self.below_top, 0)
        expected = reference.first_mismatch(
            "explicit_equals_kernel",
            reference.entrywise(explicit_inverse(spec, 6), reference.darboux_kernel(rows, norms)),
        )
        assert self._failed(spec, 6) == {"explicit_equals_kernel": expected.witness}


class TestWitnessOfAWrongTopRow(TestWitnessOfAWrongKernel):
    """The same with coefficient 0 of the degree-n row raised by 1: at
    hermite n = 2, p_2 = t^2 gives K(0, 0) = 0 + 0 against E(0, 0) = 3/2."""

    below_top = 0
    hermite_witness = Witness(0, 0, Fraction(3, 2), Fraction(0))


class TestKernelTotalsMatchNormalizedKernel:
    """``verify`` compares E with the Christoffel-Darboux kernel's integer
    rows T / D (``_darboux_kernel`` into ``_differing_rows``) and yields the
    cells, as values, that the reference scan of E against the Fraction
    Christoffel-Darboux kernel built as an ``ExactMatrix`` yields: on correct
    inputs, with one entry of E raised by 1 (``TestWitnessOfAFailedRoute``'s
    fault, at any position), and with one coefficient of the degree-n or
    degree-(n-1) row raised by 1.  T / D is that kernel entry for entry."""

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
            k = max(n - j % 2, 0)
            rows = _raised(rows, k, i % (k + 1))
        expected = list(reference.kernel_mismatches(explicit, rows, norms))
        denom, totals = _darboux_kernel(rows, norms)
        actual = list(_differing_rows(explicit, ((denom, row) for row in totals)))
        assert self._values(actual) == self._values(expected)
        assert repr(_check("k", iter(actual))) == repr(_check("k", iter(expected)))
        # a raised entry of E always differs from K; a raised coefficient
        # may not: q_0 = (2) for (1) scales its term by 4 and its weight by 1/4
        if fault != "coefficient":
            assert bool(actual) == (fault == "entry")
        kernel = reference.darboux_kernel(rows, norms)
        assert denom > 0
        assert [[Fraction(v, denom) for v in row] for row in totals] == kernel.to_lists()


def _perturbed(rows, norms, matrix, kind, k, i, j):
    """The certificate's inputs with one value raised by 1: coefficient i of
    the degree-k row, the norm h_k, or the matrix entry (i, j)."""
    norms = list(norms)
    if kind == "coefficient":
        rows = _raised(rows, k, i)
    elif kind == "norm":
        norms[k] += 1
    else:
        entries = matrix.to_lists()
        entries[i][j] += 1
        matrix = ExactMatrix(entries)
    return rows, norms, matrix


class TestKernelCertificate:
    """``_darboux_inverts`` decides K M = I for the Christoffel-Darboux kernel
    K of the engine's top two rows and norms without forming the product."""

    @given(spec=SPECS, n=st.integers(0, 12))
    @corner_examples(n=12)
    def test_verdict_is_the_identity_product(self, spec, n):
        matrix = moment_matrix(spec, n)
        verdict = _darboux_inverts(*_engine_rows(spec, n), _moments(spec, n), matrix)
        assert verdict == (explicit_inverse(spec, n) @ matrix == ExactMatrix.identity(n + 1))

    @pytest.mark.parametrize("kind", ["coefficient", "norm", "entry"])
    @given(spec=SPECS, n=st.integers(0, 12), data=st.data())
    def test_verdict_under_one_raised_value(self, kind, spec, n, data):
        # any coefficient of any row, any norm, any entry of M, certified
        # against the moments M was built from: the verdict is whether the
        # Christoffel-Darboux kernel of what was given inverts what was
        # given, and the certificate with its third check spelled out agrees
        k = data.draw(st.integers(0, n))
        i = data.draw(st.integers(0, n if kind == "entry" else k))
        j = data.draw(st.integers(0, n))
        rows, norms, matrix = _perturbed(
            *_engine_rows(spec, n), moment_matrix(spec, n), kind, k, i, j
        )
        verdict = _darboux_inverts(rows, norms, _moments(spec, n), matrix)
        kernel = reference.darboux_kernel(rows, norms)
        assert verdict == (kernel @ matrix == ExactMatrix.identity(n + 1))
        assert verdict == reference.darboux_certifies(rows, norms, matrix)

    @pytest.mark.parametrize("kind", ["coefficient", "norm", "entry"])
    @given(spec=SPECS, n=st.integers(1, 12), data=st.data())
    def test_one_raised_value_is_rejected(self, kind, spec, n, data):
        # a value the certificate reads: a coefficient of q_n or q_{n-1}
        # below the leading one (raising a leading one of degree 0 or 1 can
        # rescale a row without changing K), h_n or h_{n-1}, or an entry of M
        k = data.draw(st.integers(max(n - 1, 1) if kind == "coefficient" else n - 1, n))
        i = data.draw(st.integers(0, n if kind == "entry" else max(k - 1, 0)))
        j = data.draw(st.integers(0, n))
        rows, norms, matrix = _perturbed(
            *_engine_rows(spec, n), moment_matrix(spec, n), kind, k, i, j
        )
        assert not _darboux_inverts(rows, norms, _moments(spec, n), matrix)
        kernel = reference.darboux_kernel(rows, norms)
        assert kernel @ matrix != ExactMatrix.identity(n + 1)

    @pytest.mark.parametrize("fault", ["none", "entry"])
    @given(spec=SPECS, n=st.integers(0, 12), where=st.tuples(*[st.integers(0, 12)] * 2))
    @corner_examples(n=12, where=(12, 11))
    def test_agrees_with_the_certificate_on_every_row(self, fault, spec, n, where):
        # on the engine's rows and norms, the top two rows decide as all
        # n + 1 did, and both reject a moment matrix with one raised entry
        rows, norms = _engine_rows(spec, n)
        matrix = moment_matrix(spec, n)
        if fault == "entry":
            i, j = (v % (n + 1) for v in where)
            rows, norms, matrix = _perturbed(rows, norms, matrix, "entry", 0, i, j)
        verdict = _darboux_inverts(rows, norms, _moments(spec, n), matrix)
        assert verdict == reference.kernel_inverts(rows, norms, matrix)
        assert verdict == (fault == "none")

    @given(spec=SPECS, n=st.integers(0, 12), data=st.data())
    def test_moments_other_than_the_matrix_are_rejected(self, spec, n, data):
        # M as built and one of the moments given raised: whatever the rows,
        # the certificate takes only the sequence M was built from
        raised = _one_raised(_moments(spec, n), data.draw(st.integers(0, 2 * n)))
        assert not _darboux_inverts(*_engine_rows(spec, n), raised, moment_matrix(spec, n))

    @pytest.mark.parametrize("engine", ["given", "raised"])
    @given(spec=SPECS, n=st.integers(0, 12), data=st.data())
    def test_verdict_on_the_matrix_of_a_raised_sequence(self, engine, spec, n, data):
        # M built from a sequence with one moment raised, certified against
        # the engine's rows of the sequence as given or as raised: the
        # verdict is whether their kernel inverts M, which only the raised
        # sequence's own rows do
        moments = _moments(spec, n)
        raised = _one_raised(moments, data.draw(st.integers(0, 2 * n)))
        matrix = _hankel(raised)
        try:
            rows, norms = _monic_rows(raised if engine == "raised" else moments)
        except NotPositiveDefinite:
            reject()
        verdict = _darboux_inverts(rows, norms, raised, matrix)
        kernel = reference.darboux_kernel(rows, norms)
        assert verdict == (kernel @ matrix == ExactMatrix.identity(n + 1))
        assert verdict == reference.darboux_certifies(rows, norms, matrix)
        assert verdict == (engine == "raised")


class TestCheckHelpers:
    def test_matrix_mismatch_witness(self):
        matrix = ExactMatrix([[1, 1], [0, 1]])
        expected = CheckResult("x", False, Witness(0, 1, Fraction(0), Fraction(1)))
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
        # Fraction zeros: an int 0 divided below would be the float 0.0
        rows = [[rows[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    if draw(st.booleans()):
        # Fraction zeros: an int 0 divided below would be the float 0.0
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
        # Fraction zeros: an int 0 divided below would be the float 0.0
        rows = [
            [v if (i + j) % 2 else Fraction(0) for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
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
            _check("a", _differing(ExactMatrix.identity(matrix.size), matrix)),
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
