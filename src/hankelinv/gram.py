"""Moment matrices and the kernel-polynomial engine.

Builds the normalized Hankel moment matrix of a family from its moment
sequence, which each family's two-step moment recurrence produces entry by
entry, on ints: one integer vector over one common denominator.  The engine
reads only those 2n+1 moments: the Chebyshev algorithm turns them into the
recurrence coefficients and squared norms h_m of the monic orthogonal
polynomials, whose coefficients a_{m,i} follow from the three-term
recurrence.  Both recurrences run on primitive integer rows, and Fractions
appear again only in the norms and coefficients they return.  The exact
inverse is then the Christoffel-Darboux kernel sum

    B(j, k) = sum_m a_{m,j} a_{m,k} / h_m,

summed on ints by the same core as the closed forms' factor tables.  The
same integer rows certify that this inverse inverts the moment matrix,
without the matrix product: the polynomials must be orthogonal under it
with norms h_m (``_kernel_inverts``).

This engine is the authoritative exact-inverse path; the closed forms in
``closed_form`` must agree with it.  Every route's matrices are
``ExactMatrix`` values, stored as reduced integer rows.

The engine works against the abstract basis index.  For both Jacobi variants
the matrix entries are the sign-folded sequence entry(i,j) =
(-1)^(i+j) * moment(i+j) (the convention under which the shifted-Jacobi
matrix at alpha = beta = 0 is exactly the Hilbert matrix); for the other
families entry(i,j) = moment(i+j).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .orthopoly import Family, FamilySpec, PolyCoeffs, _integer_params, _Record

__all__ = [
    "ExactMatrix",
    "NotPositiveDefinite",
    "OrthoTable",
    "hankel_moment",
    "moment_matrix",
    "gram_schmidt",
    "kernel_inverse",
    "kernel_eval",
    "det_from_norms",
]


class NotPositiveDefinite(ArithmeticError):
    """A pivot norm came out <= 0; unreachable for a valid FamilySpec."""


# one stored row: (s, N) with s > 0 and gcd(s, *N) = 1, the row being N / s
_ScaledRow = tuple[int, tuple[int, ...]]


class ExactMatrix:
    """Immutable square matrix of rationals, row-major.

    Row i is stored as (s_i, N_i): a positive scale and a tuple of ints with
    gcd(s_i, *N_i) = 1, so that N_i / s_i is the row and s_i is the lcm of
    its denominators.  This form is unique, so ``==`` and ``hash`` compare
    ints; ``rows`` builds the Fractions on each read, and ``entry`` just the
    one."""

    __slots__ = ("_stored",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        rows = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)
        size = len(rows)
        if size == 0 or any(len(row) != size for row in rows):
            raise ValueError("ExactMatrix must be square and nonempty")
        self._stored = tuple((scale, tuple(ints)) for scale, ints in map(_scaled, rows))

    @classmethod
    def _from_scaled(cls, rows: Iterable[_ScaledRow]) -> "ExactMatrix":
        """The matrix of square rows already in the stored form."""
        matrix = cls.__new__(cls)
        matrix._stored = tuple(rows)
        return matrix

    @classmethod
    def identity(cls, size: int) -> "ExactMatrix":
        return cls._from_scaled((1, (0,) * i + (1,) + (0,) * (size - 1 - i)) for i in range(size))

    @property
    def size(self) -> int:
        return len(self._stored)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, scale) for v in ints) for scale, ints in self._stored)

    def entry(self, i: int, j: int) -> Fraction:
        scale, ints = self._stored[i]
        return Fraction(ints[j], scale)

    def scaled_rows(self) -> list[tuple[int, list[int]]]:
        """Each row as (s, s * row), with s the lcm of the row's denominators,
        so that s * row is a list of ints.  The lists are fresh copies."""
        return [(scale, list(ints)) for scale, ints in self._stored]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._stored == other._stored

    def __hash__(self) -> int:
        return hash(self._stored)

    def __repr__(self) -> str:
        return f"ExactMatrix(rows={self.rows!r})"

    def __matmul__(self, other: object) -> "ExactMatrix":
        # the right factor over the lcm of its row scales, then integer dot
        # products of the left rows with its columns and one gcd per row
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        common = lcm(*(scale for scale, _ in other._stored))
        cols = list(
            zip(*([v * (common // scale) for v in ints] for scale, ints in other._stored))
        )
        return ExactMatrix._from_scaled(
            _reduced(scale * common, [sum(map(mul, ints, col)) for col in cols])
            for scale, ints in self._stored
        )

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.rows]


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _reduced(scale: int, ints: list[int]) -> _ScaledRow:
    """The row ints / scale, for a positive scale, in the stored form."""
    scale, *ints = _primitive([scale, *ints])
    return scale, tuple(ints)


# a compared position whose two values differ: (row, col, expected, actual),
# each value as (numerator, denominator) with a positive denominator
_Cell = tuple[int, int, tuple[int, int], tuple[int, int]]


def _asymmetric(matrix: ExactMatrix) -> Iterator[_Cell]:
    """The entries below the diagonal that differ from their mirrors, in
    row-major order: N_i(j) s_j against N_j(i) s_i.  The matrix is
    symmetric when this yields nothing; verify reports the first cell, and
    the elimination oracle reads it to decide its back-substitution."""
    stored = matrix._stored
    for i, (scale, ints) in enumerate(stored):
        for j in range(i):
            mirror_scale, mirror = stored[j]
            if ints[j] * mirror_scale != mirror[i] * scale:
                yield i, j, (mirror[i], mirror_scale), (ints[j], scale)


def hankel_moment(spec: FamilySpec, k: int) -> Fraction:
    """Entry value of the moment matrix: moment_matrix(spec, n).entry(i, j)
    equals hankel_moment(spec, i + j).  For the two Jacobi variants it is the
    (-1)^k sign-folded moment of the weight.  The k-th entry of the family's
    moment recurrence (see ``_moment_sequence``)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    denom, seq = _moment_sequence(spec, k + 1)
    return Fraction(seq[k], denom)


def _moment_sequence(spec: FamilySpec, count: int) -> tuple[int, list[int]]:
    """hankel_moment(spec, k) for k = 0..count-1 as (D, [N_k]), mu_k = N_k / D
    in lowest terms, by the family's two-step relation
    d(k) mu_{k+1} = e(k) mu_k + f(k) mu_{k-1}, mu_0 = 1, mu_{-1} = 0:

      hermite         2 mu_{k+1} = k mu_{k-1}
      laguerre        mu_{k+1} = (a+k+1) mu_k
      gegenbauer      (2l+k+1) mu_{k+1} = k mu_{k-1}
      jacobi          (a+b+k+2) mu_{k+1} = (a-b) mu_k + k mu_{k-1}
      jacobi-shifted  (a+b+k+2) mu_{k+1} = (a+k+1) mu_k

    The first four restate the closed forms (1/2)_m, (a+1)_k,
    (1/2)_m / (l+1)_m and (a+1)_k / (a+b+2)_k as running ratios; the jacobi
    relation is the one its Beta-integral moments 2F1(-k, b+1; a+b+2; 2)
    satisfy.  Every divisor d(k) is > 0 on the whole parameter domain.

    Runs on ints: with the parameters over their common denominator q
    (qa = q a, qb = q b, ql = q l), the coefficients times q are integers
    d', e', f', and mu_k = M_k / P_k over the running product
    P_k = d'(0) ... d'(k-1) of the divisors, where
    M_{k+1} = e'(k) M_k + f'(k) d'(k-1) M_{k-1}; one gcd at the end reduces
    the sequence over P_{count-1}."""
    fam = spec.family
    q, qa, qb, ql = _integer_params(spec)
    if fam is Family.HERMITE:
        step = lambda k: (2, 0, k)
    elif fam is Family.LAGUERRE:
        step = lambda k: (q, qa + q * (k + 1), 0)
    elif fam is Family.GEGENBAUER:
        step = lambda k: (2 * ql + q * (k + 1), 0, q * k)
    elif fam is Family.JACOBI:
        step = lambda k: (qa + qb + q * (k + 2), qa - qb, q * k)
    else:
        step = lambda k: (qa + qb + q * (k + 2), qa + q * (k + 1), 0)
    nums, divisors = [1], [1]
    before = 0
    for k in range(count - 1):
        d, e, f = step(k)
        nums.append(e * nums[k] + f * divisors[k] * before)
        divisors.append(d)
        before = nums[k]
    return _over_products(nums, divisors)


def _over_products(nums: Sequence[int], divisors: Sequence[int]) -> tuple[int, list[int]]:
    """The rationals nums[k] / (divisors[0] ... divisors[k]), for nonzero int
    divisors, as (D, [N_k]) with N_k / D each, D > 0 and gcd(D, *N) = 1: each
    numerator is carried over the product of all the divisors, then one gcd
    reduces them."""
    tail = 1
    scaled = []
    for num, divisor in zip(reversed(nums), reversed(divisors)):
        scaled.append(num * tail)
        tail *= divisor
    if tail < 0:
        tail, scaled = -tail, [-v for v in scaled]
    scale, *ints = _primitive([tail, *reversed(scaled)])
    return scale, ints


def moment_matrix(spec: FamilySpec, n: int) -> ExactMatrix:
    """The (n+1) x (n+1) normalized Hankel/Gram matrix of the family."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _hankel(_moment_sequence(spec, 2 * n + 1))


def _hankel(moments: tuple[int, list[int]]) -> ExactMatrix:
    """The Hankel matrix of the 2n+1 values N_k / D given as (D, [N_k]):
    entry (i, j) is N_{i+j} / D."""
    denom, seq = moments
    size = len(seq) // 2 + 1
    return ExactMatrix._from_scaled(_reduced(denom, seq[i : i + size]) for i in range(size))


class OrthoTable(_Record):
    """Monic orthogonal polynomials of degree 0..n (family-basis coefficients)
    together with their squared norms under the matrix bilinear form."""

    __slots__ = ("spec", "n", "monic", "norms")
    spec: FamilySpec
    n: int
    monic: tuple[PolyCoeffs, ...]
    norms: tuple[Fraction, ...]

    def __init__(
        self, spec: FamilySpec, n: int, monic: tuple[PolyCoeffs, ...], norms: tuple[Fraction, ...]
    ) -> None:
        super().__init__(spec, n, monic, norms)

    def eval_monic(self, m: int, x: Fraction | int) -> Fraction:
        """Value of the degree-m monic polynomial at the point x."""
        return self.monic[m].eval_at(Fraction(x) - self.spec.basis_origin)


def gram_schmidt(spec: FamilySpec, n: int) -> OrthoTable:
    """Monic orthogonal polynomials of the family basis under the Hankel form
    <e_a, e_b> = hankel_moment(a + b), by the Chebyshev algorithm (Gautschi,
    Orthogonal Polynomials, 2004, section 2.1.7).

    From the 2n+1 moments alone it builds the mixed moments
    sigma_k(l) = <p_k, e_l>, which give the recurrence coefficients
    a_k = sigma_k(k+1) / sigma_k(k) - sigma_{k-1}(k) / sigma_{k-1}(k-1),
    b_k = sigma_k(k) / sigma_{k-1}(k-1) and the norms h_k = sigma_k(k) in
    O(n^2) steps; the monic coefficients follow from
    p_{k+1} = (t - a_k) p_k - b_k p_{k-1}.

    Both recurrences run on primitive integer rows.  Each row sigma_k is one
    integer vector S_k over one positive denominator D_k.  With
    u = S_k(k) S_{k-1}(k-1) and A = S_k(k+1) S_{k-1}(k-1) - S_{k-1}(k) S_k(k),
    so that a_k = A / u,

        sigma_{k+1}(l) (D_k u) = u S_k(l+1) - A S_k(l) - S_k(k)^2 S_{k-1}(l),

    and one gcd over the new row and its denominator reduces it.  Each p_k is
    a primitive integer vector with a positive leading coefficient, divided by
    that coefficient only when the output Fractions are built."""
    rows, norms = _monic_rows(spec, n)
    return OrthoTable(
        spec=spec,
        n=n,
        monic=tuple(PolyCoeffs(tuple(Fraction(c, q[-1]) for c in q)) for q in rows),
        norms=tuple(norms),
    )


def _monic_rows(
    spec: FamilySpec, n: int, moments: tuple[int, list[int]] | None = None
) -> tuple[list[list[int]], list[Fraction]]:
    """``gram_schmidt`` before its Fractions: the monic polynomial p_k as the
    primitive integer row q_k = lead_k p_k, whose last entry lead_k is > 0,
    and the norms h_k, for k = 0..n.  ``moments``, when given, is
    ``_moment_sequence(spec, 2n+1)``, shared with the caller and left
    unchanged."""
    if n < 0:
        raise ValueError("n must be >= 0")
    size = 2 * n + 1
    # sigma[j] = S_k(k + j) and sigma_before[j] = S_{k-1}(k - 1 + j); at k = 0
    # the stand-in S_{-1} = (1, 0, 0, ...) over 1 gives u = S_0(0), A = S_0(1)
    denom, sigma = moments or _moment_sequence(spec, size)
    denom_before, sigma_before = 1, [1] + [0] * (size + 1)
    p, p_before = [1], []
    monic: list[list[int]] = []
    norms: list[Fraction] = []
    for k in range(n + 1):
        h = Fraction(sigma[0], denom)
        if h <= 0:
            raise NotPositiveDefinite(
                f"norm of degree {k} came out {h}; the moment matrix is not positive definite"
            )
        monic.append(p)
        norms.append(h)
        if k == n:
            break
        head, head_before = sigma[0], sigma_before[0]
        u, a_top, square = _primitive(
            [head * head_before, sigma[1] * head_before - sigma_before[1] * head, head * head]
        )
        # p_{k+1} times D_k u lead(p_k) lead(p_{k-1}), u and A over the same content
        lead_before = p_before[-1] if p_before else 1
        c_shift, c_a, c_b = _primitive(
            [u * denom * lead_before, a_top * denom * lead_before, square * denom_before * p[-1]]
        )
        p_next = [
            c_shift * s - c_a * x - c_b * y
            for s, x, y in zip([0, *p], [*p, 0], [*p_before, 0, 0])
        ]
        sigma_next = [
            u * x2 - a_top * x1 - square * y
            for x1, x2, y in zip(sigma[1:], sigma[2:], sigma_before[2:])
        ]
        sigma_before, denom_before = sigma, denom
        denom, *sigma = _primitive([denom * u, *sigma_next])
        p_before, p = p, _primitive(p_next)
    return monic, norms


def _primitive(values: list[int]) -> list[int]:
    """The integers divided by their content, the gcd of them all."""
    content = gcd(*values)
    if content == 1:
        return values
    return [v // content for v in values]


def _kernel_sum(
    columns: Sequence[tuple[int, Sequence[int]]], weights: tuple[int, Sequence[int]]
) -> ExactMatrix:
    """Symmetric matrix B(i, j) = sum_k f(k, i) f(k, j) w(k) of a
    lower-triangular factor table, f(k, i) = 0 for i > k, summed on ints.

    Column i is (c_i, [G(k, i)] for k = i..n) with f(k, i) = G(k, i) / c_i,
    c_i > 0, and the weights are (D, [V(k)]) with w(k) = V(k) / D, D > 0, so
    that B(i, j) = T(i, j) / (c_i c_j D) with the integer totals T of
    ``_kernel_totals``.  The closed forms' integer factor columns and the
    kernel engine's integer rows go here directly.  Row i is stored over
    c_i D lcm(c) with entries T(i, j) lcm(c) / c_j, one gcd per row."""
    common, scaled_weights = weights
    totals = _kernel_totals(columns, scaled_weights)
    scales = [c for c, _ in columns]
    shared = lcm(*scales)
    spread = [shared // c for c in scales]
    return ExactMatrix._from_scaled(
        _reduced(c_i * common * shared, list(map(mul, row, spread)))
        for c_i, row in zip(scales, totals)
    )


def _kernel_totals(
    columns: Sequence[tuple[int, Sequence[int]]], weights: Sequence[int]
) -> list[list[int]]:
    """The integer totals T(i, j) = sum_k G(k, i) V(k) G(k, j) of
    ``_kernel_sum``'s columns (c_i, [G(k, i)] for k = i..n) and integer
    weights V(k), as symmetric rows; the scales c_i are not read."""
    size = len(columns)
    totals = [[0] * size for _ in range(size)]
    for i, (_, col_i) in enumerate(columns):
        weighted = list(map(mul, col_i, weights[i:]))
        for j in range(i, size):
            totals[i][j] = totals[j][i] = sum(map(mul, weighted[j - i :], columns[j][1]))
    return totals


def kernel_inverse(table: OrthoTable) -> ExactMatrix:
    """Exact inverse of the moment matrix via the kernel coefficient sum
    B(j, k) = sum_m a_{m,j} a_{m,k} / h_m."""
    return _monic_kernel([_scaled(p.coeffs)[1] for p in table.monic], table.norms)


def _monic_kernel(rows: Sequence[Sequence[int]], norms: Sequence[Fraction]) -> ExactMatrix:
    """``kernel_inverse`` from the rows q_k = lead_k p_k of ``_monic_rows``,
    its factor table ``_monic_factors`` summed by ``_kernel_sum``."""
    return _kernel_sum(*_monic_factors(rows, norms))


def _monic_factors(
    rows: Sequence[Sequence[int]], norms: Sequence[Fraction]
) -> tuple[list[tuple[int, list[int]]], tuple[int, list[int]]]:
    """The factor table of B(i, j) = sum_k q_k(i) q_k(j) / (h_k lead_k^2) in
    ``_kernel_sum``'s form: the integer columns q_k(i) over 1, and the
    weights h_k.denominator / (h_k.numerator lead_k^2), each reduced by one
    gcd, over the lcm D of their denominators, as ``_scaled`` would give
    them."""
    size = len(rows)
    columns = [(1, [rows[k][i] for k in range(i, size)]) for i in range(size)]
    weights = [_primitive([h.denominator, h.numerator * q[-1] ** 2]) for q, h in zip(rows, norms)]
    common = lcm(*(den for _, den in weights))
    return columns, (common, [num * (common // den) for num, den in weights])


def _kernel_inverts(
    rows: Sequence[Sequence[int]], norms: Sequence[Fraction], matrix: ExactMatrix
) -> bool:
    """Whether ``_monic_kernel(rows, norms)`` times ``matrix`` is exactly the
    identity, decided without the product (Szego, section 3.2; Chihara 1978,
    ch. I).

    With P the lower-triangular matrix of the rows p_k = q_k / lead_k and
    H = diag(h_k), the kernel sum is P^T H^-1 P.  For a Hankel matrix M,
    entry(i, j) = mu_{i+j}, P M P^T is symmetric, so it equals H exactly when
    P M is upper triangular with diagonal h_k, and then P^T H^-1 P M = I
    since P is invertible.  That is, for every k,

        sum_i q_k(i) mu_{i+j} = 0 for j < k,   = h_k lead_k for j = k,

    about n^3 / 3 products of polynomial-sized ints.  The moments
    mu_0..mu_2n are read over one denominator from the first and last stored
    rows of ``matrix``, and every stored row must be its window of them."""
    stored = matrix._stored
    (first_scale, first), (last_scale, last) = stored[0], stored[-1]
    denom = lcm(first_scale, last_scale)
    seq = [v * (denom // first_scale) for v in first[:-1]]
    seq += [v * (denom // last_scale) for v in last]
    width = len(stored)
    for i, (scale, ints) in enumerate(stored):
        spread, rest = divmod(denom, scale)
        if rest or [v * spread for v in ints] != seq[i : i + width]:
            return False
    for k, (q, h) in enumerate(zip(rows, norms)):
        sums = [sum(map(mul, q, seq[j : j + k + 1])) for j in range(k + 1)]
        if any(sums[:-1]) or sums[-1] * h.denominator != h.numerator * q[-1] * denom:
            return False
    return True


def kernel_eval(table: OrthoTable, x: Fraction | int, y: Fraction | int) -> Fraction:
    """Exact kernel value k_n(x, y) = sum_m monic_m(x) monic_m(y) / h_m."""
    return sum(
        table.eval_monic(m, x) * table.eval_monic(m, y) / table.norms[m]
        for m in range(table.n + 1)
    )


def det_from_norms(table: OrthoTable) -> Fraction:
    """Determinant of the moment matrix as the product of the monic norms."""
    return prod(table.norms, start=Fraction(1))
