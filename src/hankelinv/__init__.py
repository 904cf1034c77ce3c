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

from . import closed_form, elimination, gram, orthopoly, verify

__version__ = "0.1.0"

# read before the star-imports, the last of which rebinds verify to its function
__all__ = ["__version__"]
__all__ += closed_form.__all__
__all__ += elimination.__all__
__all__ += gram.__all__
__all__ += orthopoly.__all__
__all__ += verify.__all__

from .closed_form import *
from .elimination import *
from .gram import *
from .orthopoly import *
from .verify import *
