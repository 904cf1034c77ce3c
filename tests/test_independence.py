"""Independence of verify's routes as a tested property: a fault matrix over
the cores the routes share.

Each row patches one shared core, at every module binding that holds it,
with one semantic fault, and asserts the set of ``verify`` checks that fail
at the five parameter points of ROADMAP's layer table, at n = 8.  The set
says which routes read the core and which check catches the fault.

* ``_kernel_sum`` with the degree-n entry of every factor column left out:
  the closed-form inverse E is summed by it and is wrong.  The kernel
  engine's Christoffel-Darboux inverse K does not read it, so E differs from
  K, the identity check falls back to the product E @ M, which is not I, and
  the elimination oracle differs from E as well.
* ``_rising``, entry 2 of each list raised by 1: every closed form but
  hermite's builds its factor table and determinant from rising products,
  so E and the closed-form determinant are both wrong; hermite reads none.
* ``norm_squared``, h_2 raised by 1: no route reads the closed-form norms
  (every determinant comes from its printed display, and the engine finds
  its own norms), so nothing fails.
* ``_over_products``, the last numerator raised by 1: it ends the moment
  sequence and every factor table's weights, so M and E are both wrong, and
  E against K, the identity, the oracle and both determinants fail.
* ``_moment_sequence``, the last moment raised by 1: M and the engine read
  it and the closed forms do not, so the same five checks fail.
* ``_integer_params``, q alpha and q lambda raised by 1: every route reads
  the parameters through it, so only laguerre's determinant, which still
  reads alpha through ``pochhammer``, catches the fault.  That is a blind
  spot by design; the Fraction references catch it, as
  ``test_parameter_reading_fault_is_caught_only_by_the_fraction_references``
  asserts.
* ``_asymmetric`` yielding a spurious first cell: the two symmetry checks
  fail, and the oracle back-substitutes in full instead of mirroring, to
  the same inverse.
* ``_differing_rows`` yielding a spurious first cell: E against K fails; the
  certificate, which checks M's windows with it, fails too, so the identity
  check falls back to E @ M, which is I.  E against the oracle reaches it
  only when the two matrices differ.
* ``_reduced`` returning (2s, 2N), a row that is not reduced: nothing fails,
  though the engine's rows and recurrence coefficients pass through it too,
  because every check compares values, cross-multiplied by the row scales
  or against a row's own scale, and never the stored form; the stored form
  has its own tests in ``test_integer_kernels``.
* ``_reduced`` raising the last value of every row of two or more ints by 1:
  M, E and the oracle's pivot rows are all wrong, so jacobi fails every
  check it has.  The engine's mixed-moment rows are wrong too, and at the
  other four points it sees a norm <= 0 at degree 2 and raises
  ``NotPositiveDefinite`` out of ``verify``: the cost of one content rule
  for every route.  Every point still catches the fault.

Faults that make M indefinite (raising mu_3, or entry 2 of
``_over_products``) make the engine raise ``NotPositiveDefinite`` out of
``verify`` instead of failing a check, as ``verify``'s docstring says and
``test_indefinite_moments_raise_out_of_verify`` asserts; the other rows use
last-entry faults.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

import _fraction_reference as reference
from hankelinv.gram import ExactMatrix, NotPositiveDefinite, moment_matrix
from hankelinv.orthopoly import FamilySpec
from hankelinv.verify import verify

_MODULES = [
    importlib.import_module(f"hankelinv.{name}")
    for name in ("special", "orthopoly", "gram", "closed_form", "elimination", "verify", "cli")
]

_TABLE_POINTS = [
    FamilySpec.hermite(),
    FamilySpec.laguerre(Fraction(7, 3)),
    FamilySpec.gegenbauer(Fraction(3, 2)),
    FamilySpec.jacobi(Fraction(1, 3), Fraction(1, 5)),
    FamilySpec.shifted_jacobi(Fraction(1, 3), Fraction(1, 5)),
]

_INVERSE_AND_DETS = {
    "explicit_equals_kernel",
    "inverse_identity",
    "explicit_equals_elimination",
    "det_explicit_equals_norm_product",
    "det_explicit_equals_bareiss",
}
_DETS = {"det_explicit_equals_norm_product", "det_explicit_equals_bareiss"}
# every check but the two checkerboard checks of hermite and gegenbauer
_NON_PARITY = _INVERSE_AND_DETS | {"matrix_symmetric", "inverse_symmetric"}


def _without_degree_n(kernel_sum):
    """``_kernel_sum`` whose sums over k = i..n leave out k = n."""

    def faulty(columns, weights):
        return kernel_sum([(scale, column[:-1]) for scale, column in columns], weights)

    return faulty


def _entry_two_raised(rising):
    """``_rising`` with entry 2 of each list, where it has one, raised by 1."""

    def faulty(*args):
        out = rising(*args)
        if len(out) > 2:
            out[2] += 1
        return out

    return faulty


def _degree_two_raised(norm_squared):
    """``norm_squared`` with h_2 raised by 1."""

    def faulty(spec, m):
        return norm_squared(spec, m) + (1 if m == 2 else 0)

    return faulty


def _last_numerator_raised(over_products):
    """``_over_products`` with its last numerator raised by 1."""

    def faulty(nums, divisors):
        return over_products([*nums[:-1], nums[-1] + 1], divisors)

    return faulty


def _last_moment_raised(moment_sequence):
    """``_moment_sequence`` with its last moment N / D raised by 1."""

    def faulty(spec, count):
        denom, seq = moment_sequence(spec, count)
        return denom, [*seq[:-1], seq[-1] + denom]

    return faulty


def _alpha_and_lambda_raised(integer_params):
    """``_integer_params`` with q alpha and q lambda raised by 1."""

    def faulty(spec):
        q, qa, qb, ql = integer_params(spec)
        return q, qa + 1, qb, ql + 1

    return faulty


def _spurious_first_cell(scan):
    """A cell scan that yields a made-up cell (1, 0) before its own."""

    def faulty(*args):
        yield 1, 0, (0, 1), (1, 1)
        yield from scan(*args)

    return faulty


def _unreduced(reduced):
    """``_reduced`` whose rows come out with every int doubled."""

    def faulty(scale, ints):
        scale, ints = reduced(scale, ints)
        return 2 * scale, tuple(2 * v for v in ints)

    return faulty


def _last_value_raised(reduced):
    """``_reduced`` whose rows of two or more ints come out with the last
    value raised by 1, its int by the row's scale."""

    def faulty(scale, ints):
        scale, ints = reduced(scale, ints)
        if len(ints) >= 2:
            ints = (*ints[:-1], ints[-1] + scale)
        return scale, ints

    return faulty


def _third_moment_raised(moment_sequence):
    """``_moment_sequence`` with mu_3 = N_3 / D raised by 1."""

    def faulty(spec, count):
        denom, seq = moment_sequence(spec, count)
        return denom, [*seq[:3], seq[3] + denom, *seq[4:]]

    return faulty


# (defining module, core, fault, every module that binds the core, the
# checks that fail at hermite, laguerre, gegenbauer, jacobi, jacobi-shifted,
# or NotPositiveDefinite where verify raises it)
# the first row's id names its fault: the integer totals T(i, j) summed
# without degree n
_FAULTS = {
    "kernel_totals-without-degree-n": (
        "hankelinv.closed_form",
        "_kernel_sum",
        _without_degree_n,
        ["hankelinv.closed_form"],
        [{"explicit_equals_kernel", "inverse_identity", "explicit_equals_elimination"}] * 5,
    ),
    "rising-entry-2": (
        "hankelinv.special",
        "_rising",
        _entry_two_raised,
        ["hankelinv.special", "hankelinv.closed_form"],
        [set()] + [_INVERSE_AND_DETS] * 4,
    ),
    "norm_squared-degree-2": (
        "hankelinv.orthopoly",
        "norm_squared",
        _degree_two_raised,
        ["hankelinv.orthopoly"],
        [set()] * 5,
    ),
    "over_products-last-numerator": (
        "hankelinv.gram",
        "_over_products",
        _last_numerator_raised,
        ["hankelinv.gram", "hankelinv.closed_form"],
        [_INVERSE_AND_DETS] * 5,
    ),
    "moment_sequence-last-moment": (
        "hankelinv.gram",
        "_moment_sequence",
        _last_moment_raised,
        ["hankelinv.gram", "hankelinv.verify"],
        [_INVERSE_AND_DETS] * 5,
    ),
    "integer_params-alpha-and-lambda": (
        "hankelinv.orthopoly",
        "_integer_params",
        _alpha_and_lambda_raised,
        ["hankelinv.orthopoly", "hankelinv.gram", "hankelinv.closed_form"],
        [set(), _DETS, set(), set(), set()],
    ),
    "asymmetric-spurious-cell": (
        "hankelinv.gram",
        "_asymmetric",
        _spurious_first_cell,
        ["hankelinv.gram", "hankelinv.elimination", "hankelinv.verify"],
        [{"matrix_symmetric", "inverse_symmetric"}] * 5,
    ),
    "differing_rows-spurious-cell": (
        "hankelinv.gram",
        "_differing_rows",
        _spurious_first_cell,
        ["hankelinv.gram", "hankelinv.verify"],
        [{"explicit_equals_kernel"}] * 5,
    ),
    "reduced-unreduced-rows": (
        "hankelinv.gram",
        "_reduced",
        _unreduced,
        ["hankelinv.gram", "hankelinv.closed_form", "hankelinv.elimination"],
        [set()] * 5,
    ),
    "reduced-last-value-raised": (
        "hankelinv.gram",
        "_reduced",
        _last_value_raised,
        ["hankelinv.gram", "hankelinv.closed_form", "hankelinv.elimination"],
        [NotPositiveDefinite] * 3 + [_NON_PARITY, NotPositiveDefinite],
    ),
}


def _patch(monkeypatch, home, core, make_fault, bound_in):
    """Patch the core at every binding with its fault; the bindings must be
    the listed ones, so that a new binding is not left unpatched."""
    original = getattr(importlib.import_module(home), core)
    bindings = [module for module in _MODULES if getattr(module, core, None) is original]
    assert [module.__name__ for module in bindings] == bound_in
    faulty = make_fault(original)
    for module in bindings:
        monkeypatch.setattr(module, core, faulty)


@pytest.mark.parametrize("spec", _TABLE_POINTS, ids=lambda spec: spec.family.value)
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_failed_checks(monkeypatch, fault, spec):
    *patch, outcomes = _FAULTS[fault]
    _patch(monkeypatch, *patch)
    failing = outcomes[_TABLE_POINTS.index(spec)]
    if failing is NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            verify(spec, 8)
        return
    report = verify(spec, 8)
    assert {check.name for check in report.checks if not check.passed} == failing


@pytest.mark.parametrize("spec", _TABLE_POINTS, ids=lambda spec: spec.family.value)
def test_indefinite_moments_raise_out_of_verify(monkeypatch, spec):
    # the one exception to "mismatches are reported, never raised": no valid
    # spec gives such moments, so verify has no handling for them
    bound_in = ["hankelinv.gram", "hankelinv.verify"]
    _patch(monkeypatch, "hankelinv.gram", "_moment_sequence", _third_moment_raised, bound_in)
    with pytest.raises(NotPositiveDefinite):
        verify(spec, 8)


# hermite has no parameter to misread
@pytest.mark.parametrize("spec", _TABLE_POINTS[1:], ids=lambda spec: spec.family.value)
def test_parameter_reading_fault_is_caught_only_by_the_fraction_references(monkeypatch, spec):
    # verify is blind to it (apart from laguerre's determinant, see the
    # table), but the moment matrix differs from the Fraction reference's,
    # which reads the parameters from the spec itself
    _patch(monkeypatch, *_FAULTS["integer_params-alpha-and-lambda"][:4])
    reference_matrix = ExactMatrix(
        [[reference.hankel_moment(spec, i + j) for j in range(9)] for i in range(9)]
    )
    assert moment_matrix(spec, 8) != reference_matrix
