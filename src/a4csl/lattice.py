"""Exact lattice linear algebra: HNF, duals, intersections, short vectors
and integral equivalence of quadratic forms.

Everything runs on Python integers, so there is no overflow and no
rounding anywhere.  `hnf` and every Gram take integer entries (any other
raises TypeError); `det_int` takes integers or golden integers, as its
divisions are exact over Z[tau] too.  A rational lattice is an integer HNF
over one denominator (`ExactLattice`), whose membership test is one more
HNF.  Matrices are tuples of tuples, rows are generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, isqrt, lcm, prod
from operator import index, mul
from typing import Iterable, Iterator, Sequence

from .golden import GoldenInt, _Frozen

IntMatrix = tuple[tuple[int, ...], ...]


def hnf(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of the lattice generated by `rows`.

    Upper triangular in echelon shape, positive pivots, entries above a
    pivot reduced into [0, pivot).  Zero rows are dropped, so the result
    has one row per dimension of the span.  An entry that is not an
    integer raises TypeError, rows of unequal length ValueError.  One
    pass: Euclid clears each column below the placed pivots by the row of
    smallest absolute value, and the rows above a new pivot are reduced
    as it is placed; it is zero left of its column, so later reductions
    leave earlier columns alone.
    """
    m = [list(map(index, row)) for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("inconsistent row lengths")
    r = 0  # the next pivot row
    for col in range(len(m[0]) if m else 0):
        while True:
            live = [i for i in range(r, len(m)) if m[i][col]]
            if len(live) < 2:
                break
            p = m[min(live, key=lambda i: abs(m[i][col]))]
            for i in live:
                q = m[i][col] // p[col]
                if q and m[i] is not p:
                    m[i] = [a - q * b for a, b in zip(m[i], p)]
        if not live:
            continue
        m[r], m[live[0]] = m[live[0]], m[r]
        if m[r][col] < 0:
            m[r] = [-a for a in m[r]]
        p = m[r]
        for i in range(r):
            q = m[i][col] // p[col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], p)]
        r += 1
    return tuple(tuple(row) for row in m[:r])


def det_int(m: Sequence[Sequence[int | GoldenInt]]) -> int | GoldenInt:
    """Determinant of a square matrix over Z or Z[tau] (fraction-free
    Bareiss: every division is exact, so it runs in any integral domain
    with an exact //).  An entry that is neither an int nor a GoldenInt
    raises TypeError."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [[x if isinstance(x, GoldenInt) else index(x) for x in r] for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _divisor_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered k-tuples of positive integers with product n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    for d in small + [n // d for d in reversed(small) if d * d != n]:
        for rest in _divisor_tuples(n // d, k - 1):
            yield (d,) + rest


def _adjugate(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer adjugate, adj(m) m = m adj(m) = det(m) I, of a nonsingular m
    (ValueError if it is singular or not square, TypeError for an entry
    that is not an integer), by one fraction-free Gauss-Jordan (Bareiss)
    pass over [m | I], every division exact: the left half ends as d I and
    the right half as d m^-1, d = det(m) up to the sign of the row swaps."""
    n = len(m)
    a = [list(map(index, r)) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    if any(len(r) != 2 * n for r in a):
        raise ValueError("adjugate of a non-square matrix")
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise ValueError("adjugate of a singular matrix")
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        row, pivot = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = pivot
    return [[sign * x for x in r[n:]] for r in a]


# -- rational lattices ----------------------------------------------------

def _rational(x: int | Fraction) -> int | Fraction:
    """x itself if it is an int or a Fraction; TypeError for anything else."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"lattice entry {x!r} is neither an int nor a Fraction")
    return x


class ExactLattice(_Frozen):
    """A finitely generated Z-module in Q^n: the Z-span of basis / den.

    `basis` is the integer HNF of den times the generators, and den is the
    least positive integer making them integral, so gcd(den, content of
    basis) = 1 and the pair is canonical.  An integer lattice has den == 1.
    """

    _fields = ("ambient_dim", "basis", "den")

    def __init__(self, ambient_dim: int, basis: IntMatrix, den: int) -> None:
        self.__dict__.update(ambient_dim=ambient_dim, basis=basis, den=den)

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> ExactLattice:
        """The lattice spanned by integer or Fraction rows (TypeError for
        any other entry)."""
        rows = [tuple(map(_rational, r)) for r in rows]
        if not rows:
            raise ValueError("need at least one generator")
        dim = len(rows[0])
        if any(len(r) != dim for r in rows):
            raise ValueError("inconsistent row lengths")
        den = lcm(*(x.denominator for row in rows for x in row))
        # den is least: for each prime power p^a || den some entry has p^a in
        # its lowest-terms denominator, so its scaled numerator is prime to
        # p, and gcd(den, content) is already 1
        return ExactLattice(
            dim, hnf([[x.numerator * (den // x.denominator) for x in row] for row in rows]),
            den)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_full_rank(self) -> bool:
        return self.rank == self.ambient_dim

    @property
    def index(self) -> int:
        """[Z^n : L] for a full-rank integer lattice L: the product of the
        HNF diagonal.  Raises ValueError for any other lattice."""
        if self.den != 1 or not self.is_full_rank():
            raise ValueError("index in Z^n needs a full-rank integer lattice")
        return prod(row[i] for i, row in enumerate(self.basis))

    def contains(self, vector: Sequence) -> bool:
        """Whether an integer or Fraction vector lies in the lattice
        (TypeError for any other entry)."""
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length differs from the ambient dimension")
        scaled = [_rational(x) * self.den for x in vector]
        if any(x.denominator != 1 for x in scaled):
            return False
        # v is in the lattice exactly when adding it leaves the HNF unchanged
        return hnf(self.basis + (tuple(x.numerator for x in scaled),)) == self.basis


def _lowest_terms(dim: int, h: IntMatrix, den: int) -> ExactLattice:
    """The lattice spanned by h / den for an integer HNF h, with den reduced
    by the content of h; h divided by a common factor is still an HNF."""
    g = gcd(den, *(x for row in h for x in row))
    if g > 1:
        h = tuple(tuple(x // g for x in row) for row in h)
    return ExactLattice(dim, h, den // g)


def lattice_dual(lat: ExactLattice, gram: Sequence[Sequence[int]] | None = None) -> ExactLattice:
    """Dual lattice {y : <y, x> in Z for all x} w.r.t. a nonsingular
    integral Gram (identity by default), for full-rank lattices.

    With M = G B^T for the integer basis B of lat, the dual basis is
    den M^-1 = den adj(M) / det(M), so it is built in integers.
    """
    if not lat.is_full_rank():
        raise ValueError("dual needs a full-rank lattice")
    n = lat.ambient_dim
    g = gram if gram is not None else [[int(i == j) for j in range(n)] for i in range(n)]
    m = [[sum(g[i][k] * lat.basis[j][k] for k in range(n)) for j in range(n)]
         for i in range(n)]
    rows = [[lat.den * x for x in row] for row in _adjugate(m)]
    return _lowest_terms(n, hnf(rows), abs(det_int(m)))


def lattice_intersect(l1: ExactLattice, l2: ExactLattice) -> ExactLattice:
    """Intersection of two full-rank lattices from one integer HNF.

    Over the lcm D of their denominators, the bases are integer matrices A
    and B.  The rows (a | a), a in A, and (b | 0), b in B, generate a
    lattice whose vectors with zero left half are exactly (0 | v) for v in
    A cap B.  In its HNF those vectors are spanned by the last n rows, whose
    right halves are therefore the HNF of A cap B; over D they are a basis
    of L1 cap L2.
    """
    if l1.ambient_dim != l2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if not (l1.is_full_rank() and l2.is_full_rank()):
        raise ValueError("intersection implemented for full-rank lattices")
    n = l1.ambient_dim
    den = lcm(l1.den, l2.den)
    a = [[x * (den // l1.den) for x in row] for row in l1.basis]
    b = [[x * (den // l2.den) for x in row] for row in l2.basis]
    h = hnf([row + row for row in a] + [row + [0] * n for row in b])
    return _lowest_terms(n, tuple(row[n:] for row in h[n:]), den)


# -- short vectors and form equivalence ------------------------------------

def _ldl(gram: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """LDL^T of a positive definite integer Gram in integers alone (Bareiss
    style), the one gate every Gram of this module passes through.

    Returns (D, P): the leading principal minors D[0..n] of the Gram, with
    D[0] = 1, and the Bareiss numerators P, so that the Gram-Schmidt data
    are mu[j][i] = P[j][i] / D[i+1] (j > i) and B[i] = D[i+1] / D[i].
    Every division in the recurrence is exact.  Raises TypeError for an
    entry that is not an integer (a fraction or a float) and ValueError
    unless the Gram is square, symmetric and positive definite.
    """
    a = [[index(x) for x in row] for row in gram]
    n = len(a)
    if any(len(row) != n for row in a) or any(
            a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be square and symmetric")
    d = [1] * (n + 1)
    p = [[0] * n for _ in range(n)]
    for k in range(n):
        pk = p[k]
        for j in range(k + 1):
            pj = p[j]
            u = a[k][j]
            for i in range(j):
                u = (d[i + 1] * u - pk[i] * pj[i]) // d[i]
            if j < k:
                pk[j] = u
            elif u <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[k + 1] = u
    return d, p


def lll_reduce_gram(gram: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Exact LLL reduction acting on a Gram matrix alone.

    Returns (reduced, u) with reduced = u * gram * u^T and u unimodular.
    delta = 3/4.  The basis changes are integer row operations, so the
    Gram stays integer, and the Gram-Schmidt data are kept as the integers
    D and P of `_ldl`, computed once from the input Gram.  Size reduction
    updates P in place (D does not change); a swap of rows k-1 and k
    updates them by the integral swap formulas (Cohen, Alg. 2.6.7), which
    change only D[k] and columns k-1 and k of P, every division exact.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d, p = _ldl(a)

    def reduce(k: int, j: int) -> None:
        # b_k -= q*b_j with q = round(mu[k][j]), ties to even like round()
        q, rem = divmod(2 * p[k][j] + d[j + 1], 2 * d[j + 1])
        if not rem and q % 2:
            q -= 1
        if not q:
            return
        for i in range(n):
            a[k][i] -= q * a[j][i]
        for i in range(n):
            a[i][k] -= q * a[i][j]
        u[k] = [x - q * y for x, y in zip(u[k], u[j])]
        pk, pj = p[k], p[j]
        for l in range(j):
            pk[l] -= q * pj[l]
        pk[j] -= q * d[j + 1]

    k = 1
    while k < n:
        reduce(k, k - 1)
        # Lovasz: B[k] >= (3/4 - mu[k][k-1]^2) B[k-1], times 4 D[k] D[k-1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * p[k][k - 1] ** 2:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
        else:
            a[k], a[k - 1] = a[k - 1], a[k]
            for row in a:
                row[k], row[k - 1] = row[k - 1], row[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            pk, pk1 = p[k], p[k - 1]
            pk[:k - 1], pk1[:k - 1] = pk1[:k - 1], pk[:k - 1]
            lam = pk[k - 1]  # unchanged by the swap
            dk, dk1 = d[k], d[k + 1]
            b = (d[k - 1] * dk1 + lam * lam) // dk
            for pi in p[k + 1:]:
                t = pi[k]
                pi[k] = (dk1 * pi[k - 1] - lam * t) // dk
                pi[k - 1] = (b * t + lam * pi[k]) // dk1
            d[k] = b
            k = max(k - 1, 1)
    return tuple(tuple(x) for x in a), tuple(tuple(r) for r in u)


def short_vectors(gram: Sequence[Sequence[int]], bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All x != 0 with x^T G x <= bound, one per +-pair, with their norms.

    G must be a symmetric positive definite integer Gram.  Uses exact
    Fincke-Pohst style enumeration in integers; the sign convention keeps
    the representative whose last nonzero coordinate is positive, and the
    order is deterministic.  The first coordinate is the innermost loop,
    which yields its vectors itself.
    """
    n = len(gram)
    bound = index(bound)
    if bound < 0:
        return
    d, p = _ldl(gram)
    # with lam = lcm_i D[i] D[i+1], lam * x^T G x is the integer
    # sum_i w[i] * s_i^2, where w[i] = lam / (D[i] D[i+1]) and
    # s_i = x_i D[i+1] + sum_{j>i} P[j][i] x_j
    lam = lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [lam // (d[i] * d[i + 1]) for i in range(n)]
    top = lam * bound
    x = [0] * n

    def rec(i: int, remaining: int, higher_zero: bool) -> Iterator[tuple[tuple[int, ...], int]]:
        t = sum(p[j][i] * x[j] for j in range(i + 1, n))
        di, wi = d[i + 1], w[i]
        # x_i ranges over the integers with |x_i D[i+1] + t| <= r
        r = isqrt(remaining // wi)
        start = 0 if higher_zero else -((r + t) // di)
        stop = (r - t) // di + 1
        if i:
            for xi in range(start, stop):
                s = xi * di + t
                x[i] = xi
                yield from rec(i - 1, remaining - wi * s * s, higher_zero and xi == 0)
            x[i] = 0
            return
        # the first coordinate: x_0 = 0 with every higher x_j = 0 is the zero vector
        used = top - remaining
        for xi in range(1 if higher_zero else start, stop):
            s = xi * di + t
            x[0] = xi
            yield tuple(x), (used + wi * s * s) // lam

    if n:
        yield from rec(n - 1, top, True)


def _walk(r: IntMatrix, max_diag: int) -> dict[int, list[tuple[int, ...]]]:
    """One short-vector walk of r to max_diag: the vectors, one per +-pair,
    grouped by norm in walk order, the candidates of the isometry search."""
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    for v, norm in short_vectors(r, max_diag):
        by_norm.setdefault(norm, []).append(v)
    return by_norm


@lru_cache(maxsize=None)
def _minor_indices(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(i, j, k, l) for the 2x2 minors on rows i < j and columns k < l of a
    symmetric n x n matrix, each once: the minor on rows (i, j) and columns
    (k, l) equals the one on rows (k, l) and columns (i, j)."""
    pairs = list(combinations(range(n), 2))
    return tuple((i, j, k, l) for s, (i, j) in enumerate(pairs) for k, l in pairs[s:])


def _divisors(g: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The first two determinantal divisors of a symmetric integer Gram:
    the gcd of its entries and the gcd of its 2x2 minors, the latter read
    only until it is 1."""
    d1 = gcd(*chain.from_iterable(g))
    d2 = 0
    for i, j, k, l in _minor_indices(len(g)):
        gi, gj = g[i], g[j]
        d2 = gcd(d2, gi[k] * gj[l] - gi[l] * gj[k])
        if d2 == 1:
            return d1, 1
    return d1, d2


@lru_cache(maxsize=8)
def _reduced_target(g2: IntMatrix) -> tuple[IntMatrix, int, tuple[int, int]]:
    """The LLL-reduced form of a target Gram, its determinant and its first
    two determinantal divisors, computed once per target."""
    r2, _ = lll_reduce_gram(g2)  # raises unless g2 passes the Gram gate
    return r2, det_int(r2), _divisors(r2)


def forms_equivalent(g1: Sequence[Sequence[int]], g2: Sequence[Sequence[int]]) -> bool:
    """Decide integral equivalence U G1 U^T = G2 (U unimodular).

    Preconditions: both integer, symmetric and positive definite, of the
    same dimension and determinant (violations raise TypeError for a
    non-integer entry, ValueError otherwise).  It runs in four stages:

    1. G1 passes the Gram gate (`_ldl`) once; its last leading minor is
       det G1.  G2's gate, reduction and invariants are cached per G2.
    2. A dimension or determinant mismatch raises ValueError.
    3. The gcd of the entries and the gcd of the 2x2 minors of G1 must
       equal those of G2, or the answer is False.  These determinantal
       divisors are invariants: by Cauchy-Binet every k x k minor of
       U G U^T is an integer combination of those of G, so the gcd for G
       divides the one for U G U^T, and as U^-1 is integral too, each
       divides the other.  So this stage never rejects an equivalent
       pair, and it spares the reduction and the walk of every candidate
       it rejects.
    4. G1 is LLL reduced to R1, and one walk of R1 to the largest diagonal
       entry of the reduced G2 supplies the vectors of a backtracking
       search.

    Past stage 3 the search alone decides: the vectors it picks are the
    rows of a V with V R1 V^T = R2, and as the determinants are equal V
    is unimodular.  The search keeps the product R1 v of each chosen
    vector v, so a candidate c is tested against it with the single dot
    product c . R1 v, whose value decides c and -c alike.
    """
    lead, _ = _ldl(g1)  # raises unless g1 passes the Gram gate
    # integer keys, so a float target cannot share an integer target's entry
    r2, det2, divisors2 = _reduced_target(tuple(tuple(map(index, row)) for row in g2))
    n = len(lead) - 1
    if len(r2) != n:
        raise ValueError("dimension mismatch")
    if lead[n] != det2:
        raise ValueError("determinants differ; forms live in different genera")
    if _divisors(g1) != divisors2:
        return False
    r1, _ = lll_reduce_gram(g1)

    by_norm = _walk(r1, max(r2[i][i] for i in range(n)))

    # products[j] = R1 v_j for the j-th chosen vector v_j
    products: list[tuple[int, ...]] = []

    def extend(k: int) -> bool:
        if k == n:
            return True
        want = r2[k]
        for cand in by_norm.get(want[k], ()):
            # c . R1 v_j == want[j] for every j accepts c, == -want[j] accepts -c
            plus = minus = True
            for rv, w in zip(products, want):
                x = sum(map(mul, cand, rv))
                plus = plus and x == w
                minus = minus and x == -w
                if not (plus or minus):
                    break
            if plus and choose(k, cand):
                return True
            if minus and choose(k, tuple(-c for c in cand)):
                return True
        return False

    def choose(k: int, vec: tuple[int, ...]) -> bool:
        products.append(tuple(sum(map(mul, row, vec)) for row in r1))
        if extend(k + 1):
            return True
        products.pop()
        return False

    return extend(0)
