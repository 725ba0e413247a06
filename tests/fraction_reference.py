"""Reference implementations for the property tests: the Fraction-based
Gram-Schmidt, LLL and Fincke-Pohst routines that the integer versions in
`a4csl.lattice` replaced, kept verbatim so that both can be compared on
drawn forms."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


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
