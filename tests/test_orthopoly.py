"""Tests for family specs, the coefficient record, anchor values and norms.

Anchor values are checked against an independent oracle that generates the
family polynomials purely from their three-term recurrences
(tests/_recurrences.py).
"""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import hankelinv
from _recurrences import oracle_polys, poly_eval, taylor_shift
from hankelinv.closed_form import (
    DiscrepancyNote,
    explicit_det,
    explicit_inverse,
    jacobi_det_as_printed,
    unnormalized_scale,
)
from hankelinv.gram import OrthoTable, gram_schmidt, hankel_moment, moment_matrix
from hankelinv.orthopoly import (
    Family,
    FamilySpec,
    InvalidFamilySpec,
    PolyCoeffs,
    norm_squared,
    special_value,
)
from hankelinv.verify import CheckResult, VerifyReport, Witness, verify

HERMITE = FamilySpec.hermite()
LAGUERRE = FamilySpec.laguerre(Fraction(7, 3))
GEGENBAUER = FamilySpec.gegenbauer(Fraction(1, 4))
JACOBI = FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5))
SHIFTED = FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5))


class TestFamilySpec:
    def test_constructors_and_params(self):
        assert HERMITE.params() == {}
        assert LAGUERRE.params() == {"alpha": Fraction(7, 3)}
        assert GEGENBAUER.params() == {"lambda": Fraction(1, 4)}
        assert JACOBI.params() == {"alpha": Fraction(1, 3), "beta": Fraction(1, 5)}
        assert SHIFTED.family is Family.SHIFTED_JACOBI

    def test_basis_origin(self):
        assert HERMITE.basis_origin == 0
        assert JACOBI.basis_origin == 0
        assert SHIFTED.basis_origin == 1

    def test_parameters_are_coerced_to_fractions(self):
        spec = FamilySpec.laguerre("1/2")
        assert spec.alpha == Fraction(1, 2)
        assert isinstance(spec.alpha, Fraction)

    @pytest.mark.parametrize(
        ("family", "kwargs"),
        [
            (Family.HERMITE, {"alpha": 1}),
            (Family.LAGUERRE, {}),
            (Family.LAGUERRE, {"alpha": 0, "lam": 1}),
            (Family.GEGENBAUER, {"alpha": 1, "lam": 1}),
            (Family.JACOBI, {"alpha": 0}),
            (Family.SHIFTED_JACOBI, {"beta": 0}),
        ],
    )
    def test_missing_or_extraneous_parameters(self, family, kwargs):
        with pytest.raises(InvalidFamilySpec):
            FamilySpec(family, **kwargs)

    @pytest.mark.parametrize(
        ("family", "kwargs", "message"),
        [
            (Family.LAGUERRE, {"alpha": -1}, "alpha must be > -1"),
            (Family.LAGUERRE, {"alpha": Fraction(-3, 2)}, "alpha must be > -1"),
            (Family.JACOBI, {"alpha": 0, "beta": -2}, "beta must be > -1"),
            (Family.SHIFTED_JACOBI, {"alpha": -1, "beta": 0}, "alpha must be > -1"),
            (Family.GEGENBAUER, {"lam": 0}, "lambda must be > -1/2 and nonzero"),
            (
                Family.GEGENBAUER,
                {"lam": Fraction(-1, 2)},
                "lambda must be > -1/2 and nonzero",
            ),
        ],
    )
    def test_domain_validation(self, family, kwargs, message):
        with pytest.raises(InvalidFamilySpec, match=message):
            FamilySpec(family, **kwargs)

    def test_boundary_parameters_accepted(self):
        FamilySpec.laguerre(Fraction(-1, 2))
        FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2))
        FamilySpec.gegenbauer(Fraction(-1, 4))

    def test_non_rational_parameter_rejected(self):
        for value in ("x", float("inf"), float("-inf"), [1], object()):
            with pytest.raises(InvalidFamilySpec, match="^alpha is not a rational number: "):
                FamilySpec.laguerre(value)

    @pytest.mark.parametrize("value", [0.1, 0.5, True], ids=repr)
    def test_float_and_bool_parameters_rejected(self, value):
        # a float's binary value is seldom the rational meant, even when
        # exact, and a bool is no number
        with pytest.raises(InvalidFamilySpec, match=f"^alpha is not a rational number: {value!r}$"):
            FamilySpec.laguerre(value)
        with pytest.raises(InvalidFamilySpec, match=f"^beta is not a rational number: {value!r}$"):
            FamilySpec.jacobi(0, value)

    @pytest.mark.parametrize("value", [1, "1/10", Fraction(1, 10), Decimal("0.1")], ids=repr)
    def test_exact_parameter_types_accepted(self, value):
        assert FamilySpec.laguerre(value).alpha == Fraction(value)

    @pytest.mark.parametrize("family", ["hermite", None, 0])
    def test_family_must_be_a_family_member(self, family):
        with pytest.raises(InvalidFamilySpec, match="^family must be a Family member") as info:
            FamilySpec(family)
        assert "\n" not in str(info.value)


class TestPolyCoeffs:
    def test_eval_horner(self):
        p = PolyCoeffs((Fraction(1), Fraction(-2), Fraction(3)))
        x = Fraction(5, 7)
        assert p.eval_at(x) == 1 - 2 * x + 3 * x**2
        assert p.degree == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolyCoeffs(())

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PolyCoeffs((Fraction(1), Fraction(0)))

    def test_constant_zero_allowed(self):
        assert PolyCoeffs((Fraction(0),)).eval_at(3) == 0

    def test_int_coefficients_become_fractions(self):
        p = PolyCoeffs((1, Fraction(-2, 3), 3))
        assert p.coeffs == (1, Fraction(-2, 3), 3)
        assert all(type(c) is Fraction for c in p.coeffs)

    @pytest.mark.parametrize("value", [0.1, True], ids=repr)
    def test_float_and_bool_rejected(self, value):
        # as for FamilySpec's parameters, but as a TypeError naming the value
        message = f"^{re.escape(repr(value))} is not an exact rational number$"
        for coeffs in ((value, 1), (0, value)):
            with pytest.raises(TypeError, match=message):
                PolyCoeffs(coeffs)
        with pytest.raises(TypeError, match=message):
            PolyCoeffs((0, 1)).eval_at(value)

    @pytest.mark.parametrize("value", [1, "1/10", Fraction(1, 10), Decimal("0.1")], ids=repr)
    def test_exact_types_accepted(self, value):
        assert PolyCoeffs((value, 1)).coeffs[0] == Fraction(value)
        assert PolyCoeffs((0, 1)).eval_at(value) == Fraction(value)


_WITNESS = Witness(0, 1, Fraction(1, 2), Fraction(-3))
_HERMITE_FIELDS = "family=<Family.HERMITE: 'hermite'>, alpha=None, beta=None, lam=None"

# (class, positional arguments with the defaults left out, every field by
# keyword, repr as printed when these records were dataclasses)
RECORDS = [
    pytest.param(
        FamilySpec,
        (Family.LAGUERRE, Fraction(1, 2)),
        {"family": Family.LAGUERRE, "alpha": Fraction(1, 2), "beta": None, "lam": None},
        "FamilySpec(family=<Family.LAGUERRE: 'laguerre'>, alpha=Fraction(1, 2), beta=None, lam=None)",
        id="FamilySpec",
    ),
    pytest.param(
        PolyCoeffs,
        ((Fraction(1), Fraction(-1, 2)),),
        {"coeffs": (Fraction(1), Fraction(-1, 2))},
        "PolyCoeffs(coeffs=(Fraction(1, 1), Fraction(-1, 2)))",
        id="PolyCoeffs",
    ),
    pytest.param(
        OrthoTable,
        (HERMITE, (PolyCoeffs((1,)), PolyCoeffs((0, 1))), (Fraction(1), Fraction(1, 2))),
        {
            "spec": HERMITE,
            "monic": (PolyCoeffs((1,)), PolyCoeffs((0, 1))),
            "norms": (Fraction(1), Fraction(1, 2)),
        },
        f"OrthoTable(spec=FamilySpec({_HERMITE_FIELDS}), monic=(PolyCoeffs(coeffs="
        "(Fraction(1, 1),)), PolyCoeffs(coeffs=(Fraction(0, 1), Fraction(1, 1)))), "
        "norms=(Fraction(1, 1), Fraction(1, 2)))",
        id="OrthoTable",
    ),
    pytest.param(
        DiscrepancyNote,
        (Fraction(1, 3), Decimal("0.5"), Decimal("0.5"), Decimal("0.001"), False, 17),
        {
            "exact": Fraction(1, 3),
            "printed": Decimal("0.5"),
            "rel_error": Decimal("0.5"),
            "tolerance": Decimal("0.001"),
            "agrees": False,
            "digits": 17,
        },
        "DiscrepancyNote(exact=Fraction(1, 3), printed=Decimal('0.5'), rel_error=Decimal('0.5'), "
        "tolerance=Decimal('0.001'), agrees=False, digits=17)",
        id="DiscrepancyNote",
    ),
    pytest.param(
        Witness,
        (0, 1, Fraction(1, 2), Fraction(-3)),
        {"row": 0, "col": 1, "expected": Fraction(1, 2), "actual": Fraction(-3)},
        "Witness(row=0, col=1, expected=Fraction(1, 2), actual=Fraction(-3, 1))",
        id="Witness",
    ),
    pytest.param(
        CheckResult,
        ("inverse_identity", False, _WITNESS),
        {"name": "inverse_identity", "passed": False, "witness": _WITNESS},
        "CheckResult(name='inverse_identity', passed=False, witness=Witness(row=0, col=1, "
        "expected=Fraction(1, 2), actual=Fraction(-3, 1)))",
        id="CheckResult-failed",
    ),
    pytest.param(
        CheckResult,
        ("matrix_symmetric", True),
        {"name": "matrix_symmetric", "passed": True, "witness": None},
        "CheckResult(name='matrix_symmetric', passed=True, witness=None)",
        id="CheckResult-passed",
    ),
    pytest.param(
        VerifyReport,
        (HERMITE, 0, (CheckResult("matrix_symmetric", True),)),
        {"spec": HERMITE, "n": 0, "checks": (CheckResult("matrix_symmetric", True),)},
        f"VerifyReport(spec=FamilySpec({_HERMITE_FIELDS}), n=0, "
        "checks=(CheckResult(name='matrix_symmetric', passed=True, witness=None),))",
        id="VerifyReport",
    ),
]


@pytest.mark.parametrize(("cls", "args", "fields", "text"), RECORDS)
def test_record_contract(cls, args, fields, text):
    """What the frozen records promise: construction by position or keyword
    with the defaults filled in, a TypeError for a missing, duplicate or
    unknown field, value equality and hashing within one class only, no
    assignment or deletion, pickle and deepcopy round trips, and the
    dataclass-style repr."""
    record = cls(*args)
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(**fields) == record

    first, *rest = fields
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError):
        cls(*args, **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(*args, extra=None)

    twin = cls(*args)
    assert twin is not record and twin == record and hash(twin) == hash(record)

    values = tuple(fields.values())
    assert record != values and values != record
    other_class = type("Other", (cls,), {"__slots__": ()})
    assert record != other_class(*args) and other_class(*args) != record

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, name) == fields[name]

    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and hash(copied) == hash(record)

    assert repr(record) == text


ALL_SPECS = [HERMITE, LAGUERRE, GEGENBAUER, JACOBI, SHIFTED]


class TestSpecialValue:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_matches_recurrence_oracle(self, spec):
        anchor = spec.basis_origin
        oracle = oracle_polys(spec, 15)
        for k in range(16):
            assert special_value(spec, k) == poly_eval(oracle[k], anchor)

    @pytest.mark.parametrize(
        ("spec", "shifted_spec"),
        [
            (LAGUERRE, FamilySpec.laguerre(Fraction(7, 3) + 2)),
            (GEGENBAUER, FamilySpec.gegenbauer(Fraction(1, 4) + 2)),
            (JACOBI, FamilySpec.jacobi(Fraction(1, 3) + 2, Fraction(1, 5) + 2)),
            (SHIFTED, FamilySpec.shifted_jacobi(Fraction(1, 3) + 2, Fraction(1, 5) + 2)),
        ],
        ids=lambda s: s.family.value,
    )
    def test_shift_equals_raised_parameters(self, spec, shifted_spec):
        for k in range(10):
            assert special_value(spec, k, shift=2) == special_value(shifted_spec, k)

    @pytest.mark.parametrize(
        ("spec", "k", "expected"),
        [
            (HERMITE, 0, Fraction(1)),
            (HERMITE, 2, Fraction(-2)),
            (HERMITE, 4, Fraction(12)),
            (HERMITE, 6, Fraction(-120)),
            (HERMITE, 5, Fraction(0)),
            (FamilySpec.laguerre(0), 7, Fraction(1)),
            (FamilySpec.laguerre(Fraction(1, 2)), 2, Fraction(15, 8)),
            (FamilySpec.gegenbauer(1), 2, Fraction(-1)),
            (FamilySpec.gegenbauer(Fraction(1, 2)), 4, Fraction(3, 8)),
            (FamilySpec.gegenbauer(Fraction(1, 2)), 3, Fraction(0)),
            (FamilySpec.jacobi(0, 0), 2, Fraction(-1, 2)),
            (
                FamilySpec.shifted_jacobi(Fraction(1, 2), Fraction(-1, 2)),
                3,
                Fraction(35, 16),
            ),
        ],
    )
    def test_frozen_values(self, spec, k, expected):
        assert special_value(spec, k) == expected


class TestPolyCoeffsValues:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_anchor_coefficient_is_special_value(self, spec):
        # expand the recurrence polynomials around the basis origin; the
        # constant coefficient of that expansion is the anchor value
        oracle = oracle_polys(spec, 8)
        for k in range(9):
            rebased = PolyCoeffs(tuple(taylor_shift(oracle[k], spec.basis_origin)))
            assert rebased.degree == k
            assert rebased.coeffs[0] == special_value(spec, k)


class TestNormSquared:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_degree_zero_is_one(self, spec):
        assert norm_squared(spec, 0) == 1

    @pytest.mark.parametrize(
        ("spec", "m", "expected"),
        [
            (HERMITE, 1, Fraction(2)),
            (HERMITE, 3, Fraction(48)),
            (FamilySpec.laguerre(0), 4, Fraction(1)),
            (LAGUERRE, 2, Fraction(10, 3) * Fraction(13, 3) / 2),
            (FamilySpec.gegenbauer(Fraction(1, 2)), 1, Fraction(1, 3)),
            (FamilySpec.gegenbauer(Fraction(1, 2)), 2, Fraction(1, 5)),
            (FamilySpec.jacobi(0, 0), 1, Fraction(1, 3)),
            (FamilySpec.jacobi(0, 0), 2, Fraction(1, 5)),
            (FamilySpec.shifted_jacobi(0, 0), 1, Fraction(1, 3)),
            # alpha + beta = -1, where the general m = 1 ratio has a 0/0
            (FamilySpec.jacobi(Fraction(-1, 3), Fraction(-2, 3)), 1, Fraction(1, 9)),
            (FamilySpec.shifted_jacobi(Fraction(-1, 3), Fraction(-2, 3)), 2, Fraction(5, 81)),
            (FamilySpec.gegenbauer(Fraction(-4, 9)), 2, Fraction(8, 567)),
        ],
    )
    def test_frozen_values(self, spec, m, expected):
        assert norm_squared(spec, m) == expected

    @pytest.mark.parametrize(
        "spec",
        ALL_SPECS
        + [
            FamilySpec.laguerre(Fraction(-1, 2)),
            FamilySpec.gegenbauer(Fraction(-1, 4)),
            FamilySpec.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
            FamilySpec.shifted_jacobi(Fraction(-1, 2), Fraction(-1, 2)),
        ],
    )
    def test_positive_across_degrees(self, spec):
        for m in range(13):
            assert norm_squared(spec, m) > 0


# the package API: what a route, verify or the CLI needs.  The scalar layer
# (and gram.hankel_moment) is not part of it, but each name still resolves
# in its own module, for the tests and the benchmark tracer
_PUBLIC = {
    "CheckResult", "DiscrepancyNote", "ExactMatrix", "Family", "FamilySpec",
    "InvalidFamilySpec", "NotPositiveDefinite", "OrthoTable", "PolyCoeffs",
    "SingularMatrix", "VerifyReport", "Witness", "__version__", "bareiss_det",
    "det_from_norms", "explicit_det", "explicit_inverse", "gauss_inverse",
    "gram_schmidt", "jacobi_det_as_printed", "kernel_eval", "kernel_inverse",
    "moment_matrix", "unnormalized_scale", "verify",
}
_UNEXPORTED = [
    ("special", "ZeroDenominator"),
    ("special", "barnes_g_int"),
    ("special", "binomial"),
    ("special", "hyp_terminating"),
    ("special", "pochhammer"),
    ("orthopoly", "special_value"),
    ("orthopoly", "norm_squared"),
    ("gram", "hankel_moment"),
]


class TestPublicAPI:
    def test_package_exports_exactly_the_public_names(self):
        assert len(hankelinv.__all__) == len(_PUBLIC) == 25
        assert set(hankelinv.__all__) == _PUBLIC
        assert importlib.import_module("hankelinv.special").__all__ == []
        # __init__ imports the verify module under that name; its star-import
        # must rebind the name to the function
        assert inspect.isfunction(hankelinv.verify), hankelinv.verify

    @pytest.mark.parametrize(("module", "name"), _UNEXPORTED)
    def test_unexported_name_resolves_only_in_its_module(self, module, name):
        mod = importlib.import_module(f"hankelinv.{module}")
        assert not hasattr(hankelinv, name)
        assert name not in mod.__all__
        assert callable(getattr(mod, name))

    @pytest.mark.parametrize(
        "module", ["cli", "closed_form", "elimination", "gram", "orthopoly", "special", "verify"]
    )
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(f"hankelinv.{module}")
        assert all(hasattr(mod, name) for name in mod.__all__)


class _Index:
    """An int-like object: it has ``__index__`` and nothing else."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


# every library size argument, as (call on that argument, its name)
_JACOBI_00 = FamilySpec.jacobi(0, 0)
_SIZES = {
    "moment_matrix-n": (lambda v: moment_matrix(HERMITE, v), "n"),
    "gram_schmidt-n": (lambda v: gram_schmidt(HERMITE, v), "n"),
    "explicit_det-n": (lambda v: explicit_det(JACOBI, v), "n"),
    "explicit_inverse-n": (lambda v: explicit_inverse(JACOBI, v), "n"),
    "jacobi_det_as_printed-n": (lambda v: jacobi_det_as_printed(_JACOBI_00, v), "n"),
    "verify-n": (lambda v: verify(HERMITE, v), "n"),
    "hankel_moment-k": (lambda v: hankel_moment(LAGUERRE, v), "k"),
    "special_value-k": (lambda v: special_value(JACOBI, v), "k"),
    "special_value-shift": (lambda v: special_value(JACOBI, 2, shift=v), "shift"),
    "norm_squared-m": (lambda v: norm_squared(GEGENBAUER, v), "m"),
    "jacobi_det_as_printed-digits": (
        lambda v: jacobi_det_as_printed(_JACOBI_00, 1, digits=v),
        "digits",
    ),
    "unnormalized_scale-digits": (lambda v: unnormalized_scale(LAGUERRE, v), "digits"),
}


@pytest.mark.parametrize("entry", _SIZES)
class TestSizeRule:
    """One rule for every size: an int or an object with ``__index__``, no
    bool, never negative (``orthopoly._size``)."""

    @pytest.mark.parametrize("value", [True, False, 2.0, Fraction(2), "2"], ids=repr)
    def test_non_index_raises_type_error(self, entry, value):
        call, _ = _SIZES[entry]
        with pytest.raises(TypeError):
            call(value)

    def test_negative_raises_value_error(self, entry, value=-1):
        call, name = _SIZES[entry]
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            call(value)

    # its own item, so that the -1 case keeps its id
    def test_minus_two_raises_value_error(self, entry):
        self.test_negative_raises_value_error(entry, -2)

    def test_index_object_gives_the_int_result(self, entry):
        call, _ = _SIZES[entry]
        assert call(_Index(2)) == call(2)
