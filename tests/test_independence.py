"""Independence of verify's routes as a tested property: a fault matrix over
the cores the routes share.

Each row patches one shared core, at every module binding that holds it,
with one semantic fault, and asserts the set of ``verify`` checks that fail
at the five parameter points of ROADMAP's layer table.  The set says which
routes read the core and which check catches the fault.

* ``_kernel_totals`` with the degree-n term of every sum left out: the
  closed-form inverse E is summed by it and is wrong.  The kernel engine's
  Christoffel-Darboux inverse K does not read it, so E differs from K, the
  identity check falls back to the product E @ M, which is not I, and the
  elimination oracle differs from E as well.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

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


def _without_degree_n(totals):
    """``_kernel_totals`` whose sums over k = i..n leave out k = n."""

    def faulty(columns, weights):
        return totals([(scale, column[:-1]) for scale, column in columns], weights)

    return faulty


# (defining module, core, fault, every module that binds the core, the
# checks that fail)
_FAULTS = {
    "kernel_totals-without-degree-n": (
        "hankelinv.gram",
        "_kernel_totals",
        _without_degree_n,
        ["hankelinv.gram"],
        {"explicit_equals_kernel", "inverse_identity", "explicit_equals_elimination"},
    ),
}


@pytest.mark.parametrize("spec", _TABLE_POINTS, ids=lambda spec: spec.family.value)
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_failed_checks(monkeypatch, fault, spec):
    home, core, make_fault, bound_in, failing = _FAULTS[fault]
    original = getattr(importlib.import_module(home), core)
    bindings = [module for module in _MODULES if getattr(module, core, None) is original]
    assert [module.__name__ for module in bindings] == bound_in
    faulty = make_fault(original)
    for module in bindings:
        monkeypatch.setattr(module, core, faulty)
    report = verify(spec, 8)
    assert {check.name for check in report.checks if not check.passed} == failing
