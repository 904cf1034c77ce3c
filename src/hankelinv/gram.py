"""Moment matrices and the kernel-polynomial engine.

Builds the normalized Hankel moment matrix of a family from its moment
sequence, which each family's two-step moment recurrence produces entry by
entry, on ints: one integer vector over one common denominator.  The engine
takes only that sequence of 2n+1 moments: the Chebyshev algorithm turns
them into the recurrence coefficients and squared norms h_m of the monic
orthogonal polynomials, whose coefficients a_{m,i} follow from the
three-term recurrence.  Both recurrences run on primitive integer rows, and
Fractions appear again only in the norms and coefficients they return.  The
exact inverse is then the kernel

    B(j, k) = sum_m a_{m,j} a_{m,k} / h_m,

which by Christoffel-Darboux needs only the top two polynomials: p_n p_n^T
over h_n plus the Bezoutian of p_n and p_{n-1} over h_{n-1}
(``_darboux_kernel``), about 1.5 n^2 integer products.  The same two
rows certify that this inverse inverts the moment matrix, without the matrix
product: each must be orthogonal under it to every lower power, with its
norm (``_darboux_inverts``).

This engine is the authoritative exact-inverse path; the closed forms in
``closed_form`` must agree with it.  Every route's matrices are
``ExactMatrix`` values, stored as reduced integer rows, which only this
module reads: the row scans of ``verify``'s checks live beside the type.

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
from operator import eq, mul

from .orthopoly import Family, FamilySpec, PolyCoeffs, _exact, _Record, _size

__all__ = [
    "ExactMatrix",
    "NotPositiveDefinite",
    "OrthoTable",
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

_NOT_SQUARE = "ExactMatrix must be square and nonempty"


class ExactMatrix:
    """Immutable square matrix of rationals, row-major.

    Row i is stored as (s_i, N_i): a positive scale and a tuple of ints with
    gcd(s_i, *N_i) = 1, so that N_i / s_i is the row and s_i is the lcm of
    its denominators.  This form is unique, so ``==`` and ``hash`` compare
    ints; ``rows`` builds the Fractions on each read, and ``entry`` just the
    one."""

    __slots__ = ("_stored",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        rows = tuple(tuple(map(_exact, row)) for row in rows)
        size = len(rows)
        if size == 0 or any(len(row) != size for row in rows):
            raise ValueError(_NOT_SQUARE)
        self._stored = tuple((scale, tuple(ints)) for scale, ints in map(_scaled, rows))

    @classmethod
    def _from_scaled(cls, rows: Iterable[_ScaledRow]) -> "ExactMatrix":
        """The matrix of square rows already in the stored form."""
        matrix = cls.__new__(cls)
        matrix._stored = tuple(rows)
        return matrix

    @classmethod
    def identity(cls, size: int) -> "ExactMatrix":
        """The size x size identity; ``size`` follows ``orthopoly._size``
        and must be >= 1, as the rows of ``ExactMatrix`` must."""
        if not (size := _size(size, "size")):
            raise ValueError(_NOT_SQUARE)
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


def _reduced(scale: int, ints: Sequence[int]) -> _ScaledRow:
    """The row ints / scale, for a nonzero scale, in the stored form: the
    package's one content rule, for the engine, closed forms and oracle."""
    content = gcd(scale, *ints) if scale > 0 else -gcd(scale, *ints)
    if content == 1:
        return scale, tuple(ints)
    # a list: tuple() of a generator grows by resizes that fragment the heap
    return scale // content, tuple([v // content for v in ints])


# a compared position whose two values differ: (row, col, expected, actual),
# each value as (numerator, denominator) with a positive denominator
_Cell = tuple[int, int, tuple[int, int], tuple[int, int]]


def _asymmetric(matrix: ExactMatrix) -> Iterator[_Cell]:
    """The entries below the diagonal that differ from their mirrors, in
    row-major order: N_i(j) s_j against N_j(i) s_i.  The matrix is
    symmetric when this yields nothing; verify reports the first cell, and
    the verdict decides the elimination oracle's back-substitution."""
    stored = matrix._stored
    for i, (scale, ints) in enumerate(stored):
        for j in range(i):
            mirror_scale, mirror = stored[j]
            if ints[j] * mirror_scale != mirror[i] * scale:
                yield i, j, (mirror[i], mirror_scale), (ints[j], scale)


def _differing(expected: ExactMatrix, actual: ExactMatrix) -> Iterator[_Cell]:
    """The entries where two matrices differ, in row-major order."""
    if expected != actual:
        yield from _differing_rows(expected, actual._stored)


def _differing_rows(
    expected: ExactMatrix, rows: Iterable[tuple[int, Sequence[int]]]
) -> Iterator[_Cell]:
    """The entries where a matrix differs from the rows T_i / t_i, t_i > 0,
    in row-major order.  The matrix's row N_i / s_i has gcd(s_i, *N_i) = 1,
    so when the two rows are equal, s_i divides t_i and T_i = N_i (t_i / s_i):
    one divmod and a product per entry by the quotient pass a row, and only
    a row that fails is cross-multiplied cell by cell."""
    for i, ((s, want), (t, got)) in enumerate(zip(expected._stored, rows)):
        spread, rest = divmod(t, s)
        if not rest and all(map(eq, map(spread.__mul__, want), got)):
            continue
        for j, (e, a) in enumerate(zip(want, got)):
            if e * t != a * s:
                yield i, j, (e, s), (a, t)


def _odd_nonzero(matrix: ExactMatrix) -> Iterator[_Cell]:
    """The nonzero entries at odd i + j, in row-major order."""
    for i, (scale, ints) in enumerate(matrix._stored):
        for j in range(1 - i % 2, len(ints), 2):
            if ints[j]:
                yield i, j, (0, 1), (ints[j], scale)


def hankel_moment(spec: FamilySpec, k: int) -> Fraction:
    """Entry value of the moment matrix: moment_matrix(spec, n).entry(i, j)
    equals hankel_moment(spec, i + j).  For the two Jacobi variants it is the
    (-1)^k sign-folded moment of the weight.  The k-th entry of the family's
    moment recurrence (see ``_moment_sequence``)."""
    k = _size(k, "k")
    denom, seq = _moment_sequence(spec, k + 1)
    return Fraction(seq[k], denom)


def _moment_sequence(spec: FamilySpec, count: int) -> _ScaledRow:
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
    (qa = q a, qb = q b, ql = q l, cleared here and not by the closed forms'
    reader, so that ``verify`` sees a misread parameter), the coefficients
    times q are integers d', e', f', and mu_k = M_k / P_k over the running
    product P_k = d'(0) ... d'(k-1) of the divisors, where
    M_{k+1} = e'(k) M_k + f'(k) d'(k-1) M_{k-1}; one gcd at the end reduces
    the sequence over P_{count-1}."""
    fam = spec.family
    a, b, l = (v or 0 for v in (spec.alpha, spec.beta, spec.lam))
    q = lcm(a.denominator, b.denominator, l.denominator)
    qa, qb, ql = int(q * a), int(q * b), int(q * l)
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


def _over_products(nums: Sequence[int], divisors: Sequence[int]) -> _ScaledRow:
    """The rationals nums[k] / (divisors[0] ... divisors[k]), for nonzero int
    divisors, as (D, [N_k]) with N_k / D each, D > 0 and gcd(D, *N) = 1: each
    numerator is carried over the product of all the divisors, then one gcd
    reduces them."""
    tail = 1
    scaled = []
    for num, divisor in zip(reversed(nums), reversed(divisors)):
        scaled.append(num * tail)
        tail *= divisor
    return _reduced(tail, scaled[::-1])


def moment_matrix(spec: FamilySpec, n: int) -> ExactMatrix:
    """The (n+1) x (n+1) normalized Hankel/Gram matrix of the family."""
    return _hankel(_moment_sequence(spec, 2 * _size(n) + 1))


def _hankel(moments: _ScaledRow) -> ExactMatrix:
    """The Hankel matrix of the 2n+1 values N_k / D given as (D, [N_k]):
    entry (i, j) is N_{i+j} / D."""
    denom, seq = moments
    size = len(seq) // 2 + 1
    return ExactMatrix._from_scaled(_reduced(denom, seq[i : i + size]) for i in range(size))


class OrthoTable(_Record):
    """Monic orthogonal polynomials of degree 0..n (family-basis coefficients)
    together with their squared norms under the matrix bilinear form; n is
    ``len(monic) - 1``."""

    __slots__ = ("spec", "monic", "norms")
    spec: FamilySpec
    monic: tuple[PolyCoeffs, ...]
    norms: tuple[Fraction, ...]


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
    rows, norms = _monic_rows(_moment_sequence(spec, 2 * _size(n) + 1))
    return OrthoTable(
        spec=spec,
        monic=tuple(PolyCoeffs(tuple(Fraction(c, q[-1]) for c in q)) for q in rows),
        norms=tuple(norms),
    )


def _monic_rows(moments: _ScaledRow) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """``gram_schmidt`` before its Fractions, from the 2n+1 moments N_k / D
    given as (D, [N_k]) (``_moment_sequence``, left unchanged): the monic
    polynomial p_k as the primitive integer row q_k = lead_k p_k, whose last
    entry lead_k is > 0, and the norms h_k, for k = 0..n."""
    # sigma[j] = S_k(k + j) and sigma_before[j] = S_{k-1}(k - 1 + j); at k = 0
    # the stand-in S_{-1} = (1, 0, 0, ...) over 1 gives u = S_0(0), A = S_0(1)
    denom, sigma = moments
    size = len(sigma)
    n = size // 2
    denom_before, sigma_before = 1, [1] + [0] * (size + 1)
    p, p_before = (1,), ()
    monic: list[tuple[int, ...]] = []
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
        u, (a_top, square) = _reduced(
            head * head_before, [sigma[1] * head_before - sigma_before[1] * head, head * head]
        )
        # p_{k+1} times D_k u lead(p_k) lead(p_{k-1}), u and A over the same content
        lead_before = p_before[-1] if p_before else 1
        c_shift, (c_a, c_b) = _reduced(
            u * denom * lead_before, [a_top * denom * lead_before, square * denom_before * p[-1]]
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
        denom, sigma = _reduced(denom * u, sigma_next)
        p_before, p = p, _reduced(p_next[-1], p_next)[1]
    return monic, norms


def kernel_inverse(table: OrthoTable) -> ExactMatrix:
    """Exact inverse of the moment matrix, the kernel coefficient sum
    B(j, k) = sum_m a_{m,j} a_{m,k} / h_m in its Christoffel-Darboux form
    (``_darboux_kernel``) from the table's top two polynomials, one gcd per
    row."""
    rows = [_scaled(p.coeffs)[1] for p in table.monic[-2:]]
    denom, totals = _darboux_kernel(rows, table.norms[-2:])
    return ExactMatrix._from_scaled(_reduced(denom, row) for row in totals)


def _darboux_kernel(
    rows: Sequence[Sequence[int]], norms: Sequence[Fraction]
) -> tuple[int, list[list[int]]]:
    """The kernel inverse K = sum_k p_k p_k^T / h_k of orthogonal rows
    q_k = lead_k p_k with norms h_k, in its Christoffel-Darboux form from
    the last two rows alone (Szego, section 3.2), as one denominator D > 0
    and symmetric integer rows T_i, row i being T_i / D.  With f = q_n,
    g = q_{n-1} and L_k = lead_k,

        K = f f^T / (h_n L_n^2) + Bez(f, g) / (h_{n-1} L_n L_{n-1}),

    where the Bezoutian (f(x) g(y) - g(x) f(y)) / (x - y) has coefficients
    B(i, j) = C(i+1, j) + B(i+1, j-1), C(a, b) = f_a g_b - g_a f_b, zero in
    row and column n (Heinig and Rost, 1984).  The two weights go over one
    denominator D (``_scaled``); g is scaled by its weight, so the
    recurrence yields the weighted Bezoutian.  The lower triangle, about
    1.5 n^2 products, is mirrored."""
    f, g = rows[-1], rows[-2] if len(rows) > 1 else ()
    size = len(f)
    bez_weight = 1 / (norms[-2] * f[-1] * g[-1]) if g else 0
    denom, (top, bez) = _scaled([1 / (norms[-1] * f[-1] ** 2), bez_weight])
    g = [bez * v for v in g] + [0]
    bezout = [0] * size  # row i + 1 of the weighted Bezoutian
    lower = []
    for i in reversed(range(size)):
        if i < size - 1:
            fa, ga = f[i + 1], g[i + 1]
            bezout = [fa * gb - ga * fb + b for fb, gb, b in zip(f[: i + 1], g, [0, *bezout])]
        weight = top * f[i]
        lower.append([weight * fb + b for fb, b in zip(f[: i + 1], bezout)])
    lower.reverse()
    return denom, [row + [lower[j][i] for j in range(i + 1, size)] for i, row in enumerate(lower)]


def _darboux_inverts(
    rows: Sequence[Sequence[int]],
    norms: Sequence[Fraction],
    moments: _ScaledRow,
    matrix: ExactMatrix,
) -> bool:
    """Whether ``_darboux_kernel(rows, norms)`` times ``matrix`` is exactly the
    identity, decided from the last two rows without the product.

    The moments mu_k = N_k / D, k = 0..2n, come as (D, [N_k]) with D > 0:
    the sequence ``matrix`` was built from (``_hankel``).  Every stored row
    of ``matrix`` must be its window of them, or the verdict is False.  With
    L(y^k) = mu_k, f = q_n and g = q_{n-1}, it then checks

        (1) L(f y^j) = 0 for j < n, and = h_n L_n at j = n;
        (2) L(g y^j) = 0 for j < n-1, and = h_{n-1} L_{n-1} at j = n-1,

    about 2 n^2 products.  These prove K M = I, that is
    L_y[K(x, y) y^l] = x^l for l = 0..n, for any rows with nonzero leading
    entries and any nonzero norms; no recurrence of the engine is trusted.
    Write c = h_{n-1} L_n L_{n-1}, F(x) = L_y[(f(x) - f(y)) / (x - y)], G
    likewise for g, and W = g F - f G.  Splitting y^l = x^l - (x^l - y^l) in
    the Bezoutian term, and using f(x) g(y) - g(x) f(y) =
    g(x) (f(x) - f(y)) - f(x) (g(x) - g(y)), (1) and (2) give
    L_y[K(x, y) y^l] = x^l W(x) / c for l = 0..n.  The left side has degree
    <= n in x, so at l = n, W is a constant, and K M = (W / c) I.  Entry
    (n, n) of K M is L(f y^n) / (h_n L_n) = 1 by (1), since row n of K is
    f / (h_n L_n), so W = c."""
    denom, seq = moments
    width = matrix.size
    if next(_differing_rows(matrix, ((denom, seq[i : i + width]) for i in range(width))), None):
        return False
    for q, h in zip(rows[-2:], norms[-2:]):
        sums = [sum(map(mul, q, seq[j : j + len(q)])) for j in range(len(q))]
        if any(sums[:-1]) or sums[-1] * h.denominator != h.numerator * q[-1] * denom:
            return False
    return True


def kernel_eval(table: OrthoTable, x: Fraction | int, y: Fraction | int) -> Fraction:
    """Exact kernel value k_n(x, y) = sum_m monic_m(x) monic_m(y) / h_m, the
    monic polynomials evaluated in the basis variable x - t0 and y - t0."""
    origin = table.spec.basis_origin
    u, v = _exact(x) - origin, _exact(y) - origin
    return sum(p.eval_at(u) * p.eval_at(v) / h for p, h in zip(table.monic, table.norms))


def det_from_norms(table: OrthoTable) -> Fraction:
    """Determinant of the moment matrix as the product of the monic norms."""
    return prod(table.norms, start=Fraction(1))
