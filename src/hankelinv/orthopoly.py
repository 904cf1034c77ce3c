"""The five classical orthogonal-polynomial families.

Holds the validated family/parameter record (FamilySpec) and the coefficient
record of a polynomial in the family basis (PolyCoeffs).  Two test references
sit outside ``__all__``: ``special_value``, the closed-form values of the
standard-normalization polynomials at the family anchor point, and
``norm_squared``, their squared norms under the probability-normalized
weight.  No library path calls either; they stay here until the scalar layer
moves into the tests, since the benchmark tracer wraps them by module and
name.  All of it exact.

Conventions
-----------
* Weights are normalized to total mass 1, so every quantity here is rational.
* The family basis is the monomial basis x^i for hermite, laguerre,
  gegenbauer and jacobi; for jacobi-shifted it is the shifted monomials
  (x-1)^i.  The anchor point (0, or 1 for jacobi-shifted) is the basis origin,
  so a polynomial's value at the anchor is its basis coefficient of index 0.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import factorial, lcm, prod
from operator import index

from .special import hyp_terminating, pochhammer

__all__ = ["Family", "FamilySpec", "InvalidFamilySpec", "PolyCoeffs"]


class InvalidFamilySpec(ValueError):
    """Family parameters are missing, extraneous, or out of range."""


class Family(Enum):
    HERMITE = "hermite"
    LAGUERRE = "laguerre"
    GEGENBAUER = "gegenbauer"
    JACOBI = "jacobi"
    SHIFTED_JACOBI = "jacobi-shifted"


# parameters each family requires; everything else must be absent
_REQUIRED: dict[Family, tuple[str, ...]] = {
    Family.HERMITE: (),
    Family.LAGUERRE: ("alpha",),
    Family.GEGENBAUER: ("lam",),
    Family.JACOBI: ("alpha", "beta"),
    Family.SHIFTED_JACOBI: ("alpha", "beta"),
}

# each parameter field and the name a user gives it, in output order
_PARAM_NAMES = {"alpha": "alpha", "beta": "beta", "lam": "lambda"}


def _exact(value: Fraction | int | str) -> Fraction:
    """A caller's number as a Fraction, the package's one rule: a float would
    keep its binary value (0.1 is not 1/10) and a bool is no number, so both
    raise TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"{value!r} is not an exact rational number")
    return Fraction(value)


def _size(value: int, name: str = "n") -> int:
    """A caller's size, count or degree as an int, the package's one rule for
    them: a bool is no number, and a float, Fraction or str is no index, so
    each raises TypeError; a negative value raises ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {value!r}")
    value = index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    return value


def _coerce(value: Fraction | int | str, name: str) -> Fraction:
    try:
        return _exact(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise InvalidFamilySpec(f"{name} is not a rational number: {value!r}") from exc


class _Record:
    """Base of the package's frozen value records.

    A subclass lists its fields in ``__slots__``; a subclass of a record
    appends its own slots to the inherited fields.  The base ``__init__``
    binds each field once, by position or keyword, or raises TypeError; a
    subclass with defaults or checks passes its values on to it.  The base
    compares and hashes the field values, only against an instance of the
    very same class, prints ``Name(field=value, ...)``, refuses assignment
    and deletion, and pickles and copies by calling the class on the field
    values.  Unlike a tuple, a record does not iterate, index or order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += cls.__dict__.get("__slots__", ())

    def __init__(self, *values: object, **named: object) -> None:
        bound = dict(zip(self._fields, values), **named)
        if len(bound) != len(values) + len(named) or bound.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes each field {self._fields} once")
        for name in self._fields:
            object.__setattr__(self, name, bound[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class FamilySpec(_Record):
    """A validated (family, parameters) pair.

    Instances that violate the parameter domains (alpha > -1, beta > -1,
    lambda > -1/2 and nonzero) cannot be constructed.
    """

    __slots__ = ("family", "alpha", "beta", "lam")
    family: Family
    alpha: Fraction | None
    beta: Fraction | None
    lam: Fraction | None

    def __init__(
        self,
        family: Family,
        alpha: Fraction | int | str | None = None,
        beta: Fraction | int | str | None = None,
        lam: Fraction | int | str | None = None,
    ) -> None:
        if not isinstance(family, Family):
            raise InvalidFamilySpec(f"family must be a Family member, not {family!r}")
        required = _REQUIRED[family]
        params = {"alpha": alpha, "beta": beta, "lam": lam}
        for field, value in params.items():
            name = _PARAM_NAMES[field]
            if field in required:
                if value is None:
                    raise InvalidFamilySpec(f"{family.value} requires {name}")
                params[field] = _coerce(value, name)
            elif value is not None:
                raise InvalidFamilySpec(f"{family.value} takes no {name}")
        super().__init__(family, *params.values())
        if self.alpha is not None and self.alpha <= -1:
            raise InvalidFamilySpec("alpha must be > -1")
        if self.beta is not None and self.beta <= -1:
            raise InvalidFamilySpec("beta must be > -1")
        if self.lam is not None and (self.lam <= Fraction(-1, 2) or self.lam == 0):
            raise InvalidFamilySpec("lambda must be > -1/2 and nonzero")

    @classmethod
    def hermite(cls) -> "FamilySpec":
        return cls(Family.HERMITE)

    @classmethod
    def laguerre(cls, alpha: Fraction | int | str) -> "FamilySpec":
        return cls(Family.LAGUERRE, alpha=alpha)

    @classmethod
    def gegenbauer(cls, lam: Fraction | int | str) -> "FamilySpec":
        return cls(Family.GEGENBAUER, lam=lam)

    @classmethod
    def jacobi(cls, alpha: Fraction | int | str, beta: Fraction | int | str) -> "FamilySpec":
        return cls(Family.JACOBI, alpha=alpha, beta=beta)

    @classmethod
    def shifted_jacobi(
        cls, alpha: Fraction | int | str, beta: Fraction | int | str
    ) -> "FamilySpec":
        return cls(Family.SHIFTED_JACOBI, alpha=alpha, beta=beta)

    @property
    def basis_origin(self) -> Fraction:
        """Point t0 such that basis element i is (x - t0)^i; also the anchor."""
        return Fraction(1) if self.family is Family.SHIFTED_JACOBI else Fraction(0)

    def params(self) -> dict[str, Fraction]:
        """Present parameters keyed by their user-facing names."""
        return {
            name: value
            for field, name in _PARAM_NAMES.items()
            if (value := getattr(self, field)) is not None
        }


class PolyCoeffs(_Record):
    """Coefficients of a polynomial in the family basis, index i = basis element i."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction | int, ...]) -> None:
        if not coeffs:
            raise ValueError("PolyCoeffs cannot be empty")
        coeffs = tuple(map(_exact, coeffs))
        if coeffs[-1] == 0 and len(coeffs) > 1:
            raise ValueError("leading coefficient must be nonzero")
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, t: Fraction | int) -> Fraction:
        """Value of the polynomial at basis-variable value t (Horner)."""
        t = _exact(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def special_value(spec: FamilySpec, k: int, shift: int = 0) -> Fraction:
    """Value at the family anchor of the degree-k polynomial whose parameters
    are raised by ``shift`` (alpha -> alpha+shift, beta -> beta+shift,
    lambda -> lambda+shift).  No library path calls it; the tests check the
    integer anchors of the closed forms' factor tables against it.

    Closed forms used:
      hermite        H_{2m}(0) = (-1)^m (2m)!/m!, odd degrees vanish
      gegenbauer     C_{2m}^(l)(0) = (-1)^m (l)_m / m!, odd degrees vanish
      jacobi         P_k^(a,b)(0) via the terminating Gauss sum at 1/2
      laguerre       L_k^(a)(0) = (a+1)_k / k!
      jacobi-shifted P_k^(a,b)(1) = (a+1)_k / k!, the same value
    """
    k, shift = _size(k, "k"), _size(shift, "shift")
    fam = spec.family
    if fam is Family.HERMITE:
        if k % 2:
            return Fraction(0)
        m = k // 2
        return Fraction((-1) ** m * factorial(2 * m), factorial(m))
    if fam is Family.GEGENBAUER:
        if k % 2:
            return Fraction(0)
        m = k // 2
        return (-1) ** m * pochhammer(spec.lam + shift, m) / factorial(m)
    if fam is Family.JACOBI:
        a = spec.alpha + shift
        b = spec.beta + shift
        return (
            pochhammer(a + 1, k)
            / factorial(k)
            * hyp_terminating(k, [k + a + b + 1], [a + 1], Fraction(1, 2))
        )
    # laguerre at 0 and shifted jacobi at 1
    return pochhammer(spec.alpha + shift + 1, k) / factorial(k)


def norm_squared(spec: FamilySpec, m: int) -> Fraction:
    """Squared norm h_m of the degree-m standard-normalization polynomial
    under the probability-normalized weight (so h_0 = 1 for every family):
    the product of the exact ratios h_r / h_{r-1}, r = 1..m,

      hermite     2r, so h_m = 2^m m!
      laguerre    (a+r) / r, so h_m = (a+1)_m / m!
      gegenbauer  (2l+r-1)(l+r-1) / (r (l+r))
      jacobi both (a+1)(b+1) / (a+b+3) at r = 1, then for r >= 2
                  (a+r)(b+r)(a+b+2r-1) / (r (a+b+2r+1)(a+b+r))

    as int pairs with the parameters over their common denominator q, as
    the ints qa = q a, qb = q b, ql = q l.  The r = 1 Jacobi ratio is
    written with its removable a+b+1 factor cancelled, so alpha+beta = -1
    stays finite.  No library path calls it."""
    m = _size(m, "m")
    fam = spec.family
    q, qa, qb, ql = _integer_params(spec)
    if fam is Family.HERMITE:
        ratio = lambda r: (2 * r, 1)
    elif fam is Family.LAGUERRE:
        ratio = lambda r: (qa + q * r, q * r)
    elif fam is Family.GEGENBAUER:
        ratio = lambda r: (
            (2 * ql + q * (r - 1)) * (ql + q * (r - 1)),
            q * r * (ql + q * r),
        )
    else:
        ratio = lambda r: (
            ((qa + q) * (qb + q), q * (qa + qb + 3 * q))
            if r == 1
            else (
                (qa + q * r) * (qb + q * r) * (qa + qb + q * (2 * r - 1)),
                q * r * (qa + qb + q * (2 * r + 1)) * (qa + qb + q * r),
            )
        )
    ratios = [ratio(r) for r in range(1, m + 1)]
    return Fraction(prod(num for num, _ in ratios), prod(den for _, den in ratios))


def _integer_params(spec: FamilySpec) -> tuple[int, int, int, int]:
    """(q, q alpha, q beta, q lambda) with q the lcm of the denominators of
    the parameters present, so that each of the last three is an int; an
    absent parameter reads 0.  The integer recurrences name them q, qa, qb
    and ql."""
    values = (spec.alpha, spec.beta, spec.lam)
    q = lcm(*(v.denominator for v in values if v is not None))
    return q, *(0 if v is None else v.numerator * (q // v.denominator) for v in values)
