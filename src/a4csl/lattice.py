"""Exact lattice linear algebra: HNF, sublattice enumeration, duals,
intersections, short vectors and integral equivalence of quadratic forms.

Everything runs on Python integers and fractions.Fraction, so there is
no overflow and no rounding anywhere.  Matrices are tuples of tuples,
rows are generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
RatMatrix = tuple[tuple[Fraction, ...], ...]


def _as_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    return [list(r) for r in rows]


def hnf(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of the lattice generated by `rows`.

    Upper triangular in echelon shape, positive pivots, entries above a
    pivot reduced into [0, pivot).  Zero rows are dropped, so the result
    has one row per dimension of the span.
    """
    m = _as_rows(rows)
    if not m:
        return ()
    ncols = len(m[0])
    pivot_row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        # clear the column below pivot_row using exact Euclidean steps
        reduced = True
        while reduced:
            reduced = False
            nonzero = [i for i in range(pivot_row, len(m)) if m[i][col]]
            if len(nonzero) > 1:
                nonzero.sort(key=lambda i: abs(m[i][col]))
                i0 = nonzero[0]
                for i in nonzero[1:]:
                    q = m[i][col] // m[i0][col]
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
                reduced = True
        nonzero = [i for i in range(pivot_row, len(m)) if m[i][col]]
        if not nonzero:
            continue
        i0 = nonzero[0]
        m[pivot_row], m[i0] = m[i0], m[pivot_row]
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-a for a in m[pivot_row]]
        pivots.append((pivot_row, col))
        pivot_row += 1
    m = m[:pivot_row]
    # reduce entries above each pivot
    for r, c in pivots:
        p = m[r][c]
        for i in range(r):
            q = m[i][c] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
    return tuple(tuple(r) for r in m)


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
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
    return sign * a[-1][-1]


def _divisor_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered k-tuples of positive integers with product n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    for d in small + [n // d for d in reversed(small) if d * d != n]:
        for rest in _divisor_tuples(n // d, k - 1):
            yield (d,) + rest


def enumerate_sublattices(rank: int, index: int) -> Iterator[IntMatrix]:
    """All HNF bases of sublattices of Z^rank with the given index.

    Upper triangular, positive diagonal, column entries above a pivot
    reduced mod the pivot; each sublattice appears exactly once.
    """
    if rank < 1 or index < 1:
        raise ValueError("rank and index must be positive")

    def fill(diag: tuple[int, ...], row: int, rows: list[tuple[int, ...]]):
        if row == rank:
            yield tuple(rows)
            return
        free = [range(diag[j]) for j in range(row + 1, rank)]

        def rec(j: int, acc: list[int]):
            if j == rank:
                rows.append(tuple(acc))
                yield from fill(diag, row + 1, rows)
                rows.pop()
                return
            for t in free[j - row - 1]:
                acc.append(t)
                yield from rec(j + 1, acc)
                acc.pop()

        yield from rec(row + 1, [0] * row + [diag[row]])

    for diag in _divisor_tuples(index, rank):
        yield from fill(diag, 0, [])


# -- rational lattices ----------------------------------------------------

def _rat_inverse(m: Sequence[Sequence]) -> list[list]:
    """Gauss-Jordan inverse over an exact field (Fraction or GoldenRat
    entries); raises ValueError on a singular matrix."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _rat_rows(rows: Iterable[Sequence]) -> RatMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _canonical_rat_hnf(rows: RatMatrix) -> RatMatrix:
    """The unique HNF-shaped basis of the Z-span of rational rows."""
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    scaled = [[int(x * den) for x in row] for row in rows]
    h = hnf(scaled)
    return tuple(tuple(Fraction(x, den) for x in row) for row in h)


@dataclass(frozen=True)
class ExactLattice:
    """A finitely generated Z-module in Q^n, stored by its canonical basis."""

    ambient_dim: int
    basis: RatMatrix  # canonical rational HNF, rows are generators

    @staticmethod
    def from_rows(rows: Iterable[Sequence], ambient_dim: int | None = None) -> ExactLattice:
        rat = _rat_rows(rows)
        if not rat:
            raise ValueError("need at least one generator")
        dim = ambient_dim if ambient_dim is not None else len(rat[0])
        if any(len(r) != dim for r in rat):
            raise ValueError("inconsistent row lengths")
        return ExactLattice(dim, _canonical_rat_hnf(rat))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_full_rank(self) -> bool:
        return self.rank == self.ambient_dim

    def contains(self, vector: Sequence) -> bool:
        v = [Fraction(x) for x in vector]
        # reduce against the echelon basis
        for row in self.basis:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                continue
            if v[lead]:
                q = v[lead] / row[lead]
                if q.denominator != 1:
                    return False
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExactLattice)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))


def lattice_index(sub: ExactLattice, sup: ExactLattice) -> int:
    """Index [sup : sub] for full-rank lattices, sub a sublattice of sup:
    the ratio of their determinants, which are the products of the
    diagonals of the triangular canonical bases."""
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if not (sub.is_full_rank() and sup.is_full_rank()):
        raise ValueError("index needs full-rank lattices")
    if not all(sup.contains(row) for row in sub.basis):
        raise ValueError("first lattice is not a sublattice of the second")
    index = prod(row[i] for i, row in enumerate(sub.basis)) / prod(
        row[i] for i, row in enumerate(sup.basis))
    return int(index)


def lattice_dual(lat: ExactLattice, gram: Sequence[Sequence[int]] | None = None) -> ExactLattice:
    """Dual lattice {y : <y, x> in Z for all x} w.r.t. an integral Gram
    (identity by default), for full-rank lattices."""
    if not lat.is_full_rank():
        raise ValueError("dual needs a full-rank lattice")
    n = lat.ambient_dim
    if gram is None:
        g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    else:
        g = [[Fraction(x) for x in row] for row in gram]
    bg = [[sum(g[i][k] * lat.basis[j][k] for k in range(n)) for j in range(n)]
          for i in range(n)]  # G * B^T
    w = _rat_inverse(bg)
    return ExactLattice.from_rows(w, n)


def lattice_intersect(l1: ExactLattice, l2: ExactLattice) -> ExactLattice:
    """Intersection of two full-rank lattices via duality:
    (L1 cap L2)* = L1* + L2*."""
    if l1.ambient_dim != l2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if not (l1.is_full_rank() and l2.is_full_rank()):
        raise ValueError("intersection implemented for full-rank lattices")
    d1 = lattice_dual(l1)
    d2 = lattice_dual(l2)
    union = ExactLattice.from_rows(d1.basis + d2.basis, l1.ambient_dim)
    return lattice_dual(union)


# -- short vectors and form equivalence ------------------------------------

def _gso_from_gram(a: Sequence[Sequence]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Gram-Schmidt data (squared norms B, coefficients mu) as Fractions,
    straight from an integer or Fraction Gram matrix; raises on
    non-positive-definite input."""
    n = len(a)
    b = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            t = a[i][j] - sum(mu[j][l] * r[i][l] for l in range(j))
            r[i][j] = t
            mu[i][j] = Fraction(t) / b[j]
        b[i] = Fraction(a[i][i]) - sum(mu[i][l] * r[i][l] for l in range(i))
        if b[i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
    return b, mu


def lll_reduce_gram(gram: Sequence[Sequence]) -> tuple[tuple[tuple, ...], IntMatrix]:
    """Exact LLL reduction acting on a Gram matrix alone.

    Returns (reduced, u) with reduced = u * gram * u^T and u unimodular.
    delta = 3/4.  The basis changes are integer row operations, so an
    integer Gram stays integer; only the Gram-Schmidt data (mu, B) are
    Fractions.  Size reduction updates mu in place (B does not change);
    mu and B are rebuilt from the Gram only after a swap.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    b, mu = _gso_from_gram(a)

    def reduce(k: int, j: int) -> None:
        # b_k -= q*b_j, conjugate the Gram and update row k of mu
        q = round(mu[k][j])
        if not q:
            return
        for i in range(n):
            a[k][i] -= q * a[j][i]
        for i in range(n):
            a[i][k] -= q * a[i][j]
        u[k] = [x - q * y for x, y in zip(u[k], u[j])]
        for l in range(j):
            mu[k][l] -= q * mu[j][l]
        mu[k][j] -= q

    delta = Fraction(3, 4)
    k = 1
    while k < n:
        reduce(k, k - 1)
        if b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
        else:
            a[k], a[k - 1] = a[k - 1], a[k]
            for row in a:
                row[k], row[k - 1] = row[k - 1], row[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            b, mu = _gso_from_gram(a)
            k = max(k - 1, 1)
    return tuple(tuple(x) for x in a), tuple(tuple(r) for r in u)


def _floor_sqrt_frac(f: Fraction) -> int:
    """floor(sqrt(f)) for f >= 0, exactly."""
    if f < 0:
        raise ValueError("negative radicand")
    return isqrt(f.numerator * f.denominator) // f.denominator


def short_vectors(gram: Sequence[Sequence], bound) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All x != 0 with x^T G x <= bound, one per +-pair, with exact norms.

    G must be symmetric positive definite with integer or Fraction
    entries.  Uses exact Fincke-Pohst style enumeration; the sign
    convention keeps the representative whose last nonzero coordinate is
    positive, and the order is deterministic.
    """
    n = len(gram)
    bound = Fraction(bound)
    if bound < 0:
        return
    # x^T G x = sum_i d[i] * (x_i + sum_{j>i} mu[j][i] x_j)^2
    d, mu = _gso_from_gram(gram)
    x = [0] * n

    def rec(i: int, remaining: Fraction, higher_zero: bool) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        if i < 0:
            if not higher_zero:
                yield tuple(x), bound - remaining
            return
        center = -sum(mu[j][i] * x[j] for j in range(i + 1, n))
        # x_i ranges over integers with d[i]*(x_i - center)^2 <= remaining
        r2 = remaining / d[i]
        rt = _floor_sqrt_frac(r2)
        lo = int(center - rt - 1) - 1
        hi = int(center + rt + 1) + 1
        start = 0 if higher_zero else lo
        for xi in range(start, hi + 1):
            diff = xi - center
            used = d[i] * diff * diff
            if used > remaining:
                continue
            x[i] = xi
            yield from rec(i - 1, remaining - used, higher_zero and xi == 0)
        x[i] = 0

    yield from rec(n - 1, bound, True)


def theta_counts(gram: Sequence[Sequence], bound) -> dict[Fraction, int]:
    """Number of +-pairs of vectors at each nonzero norm <= bound."""
    out: dict[Fraction, int] = {}
    for _, norm in short_vectors(gram, bound):
        out[norm] = out.get(norm, 0) + 1
    return out


@lru_cache(maxsize=8)
def _reduced_target(g2: tuple[tuple, ...]) -> tuple[tuple[tuple, ...], dict]:
    """The LLL-reduced form of a target Gram and its theta counts up to
    twice its largest diagonal entry, computed once per target."""
    r2, _ = lll_reduce_gram(g2)  # raises if not positive definite
    max_diag = max(r2[i][i] for i in range(len(r2)))
    return r2, theta_counts(r2, 2 * max_diag)


def forms_equivalent(g1: Sequence[Sequence[int]], g2: Sequence[Sequence[int]]) -> bool:
    """Decide integral equivalence U G1 U^T = G2 (U unimodular).

    Preconditions: both symmetric positive definite of the same dimension
    and determinant (violations raise ValueError).  Both forms are LLL
    reduced first, then a theta-series prefilter (pair counts at norms up
    to twice the largest diagonal entry of the reduced G2) rejects most
    inequivalent pairs before the backtracking search over short vectors.
    The reduced G2 and its theta counts are cached per G2, so a search
    against one fixed target reduces that target once.
    """
    n = len(g1)
    if len(g2) != n:
        raise ValueError("dimension mismatch")
    for g in (g1, g2):
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrices must be symmetric")
    if det_int(g1) != det_int(g2):
        raise ValueError("determinants differ; forms live in different genera")

    r1, _ = lll_reduce_gram(g1)  # raises if not positive definite
    r2, theta2 = _reduced_target(tuple(map(tuple, g2)))

    max_diag = max(r2[i][i] for i in range(n))
    if theta_counts(r1, 2 * max_diag) != theta2:
        return False

    by_norm: dict[Fraction, list[tuple[int, ...]]] = {}
    for v, norm in short_vectors(r1, max_diag):
        by_norm.setdefault(norm, []).append(v)

    def inner(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return sum(u[i] * r1[i][j] * v[j] for i in range(n) for j in range(n))

    chosen: list[tuple[int, ...]] = []

    def extend(k: int) -> bool:
        if k == n:
            return True
        for cand in by_norm.get(r2[k][k], ()):
            for vec in (cand, tuple(-c for c in cand)):
                if all(inner(vec, chosen[j]) == r2[k][j] for j in range(k)):
                    chosen.append(vec)
                    if extend(k + 1):
                        return True
                    chosen.pop()
        return False

    return extend(0)
