"""Exact inverses of moment matrices of the classical orthogonal families.

The package computes, entirely in rational arithmetic, the (n+1) x (n+1)
moment matrices of the Hermite, Laguerre, Gegenbauer and Jacobi weights
(normalized to total mass one), together with their determinants and
inverses by three independent routes:

* closed-form evaluation (:mod:`hankelinv.closed_form`),
* an orthogonalization / kernel construction (:mod:`hankelinv.gram`),
* fraction-free elimination (:mod:`hankelinv.elimination`).

:mod:`hankelinv.verify` cross-checks the routes against each other, and
:mod:`hankelinv.cli` exposes everything as the ``hankelinv`` command.
"""

from __future__ import annotations

from .closed_form import (
    DiscrepancyNote,
    explicit_det,
    explicit_inverse,
    jacobi_det_as_printed,
    unnormalized_scale,
)
from .elimination import SingularMatrix, bareiss_det, gauss_inverse
from .gram import (
    ExactMatrix,
    NotPositiveDefinite,
    OrthoTable,
    det_from_norms,
    gram_schmidt,
    kernel_eval,
    kernel_inverse,
    moment_matrix,
)
from .orthopoly import Family, FamilySpec, InvalidFamilySpec, PolyCoeffs
from .verify import CheckResult, VerifyReport, Witness, verify

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DiscrepancyNote",
    "ExactMatrix",
    "Family",
    "FamilySpec",
    "InvalidFamilySpec",
    "NotPositiveDefinite",
    "OrthoTable",
    "PolyCoeffs",
    "SingularMatrix",
    "VerifyReport",
    "Witness",
    "__version__",
    "bareiss_det",
    "det_from_norms",
    "explicit_det",
    "explicit_inverse",
    "gauss_inverse",
    "gram_schmidt",
    "jacobi_det_as_printed",
    "kernel_eval",
    "kernel_inverse",
    "moment_matrix",
    "unnormalized_scale",
    "verify",
]
