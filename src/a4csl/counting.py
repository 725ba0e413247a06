"""Counting functions for similar sublattices and coincidence rotations
of the A4 lattice, with exact Dirichlet-series cross-checks.

`f_ssl(m)` counts similar sublattices of norm scale m (lattice index m^2)
and `f_soc(n)` counts coincidence rotations of index n; both are
multiplicative and given by explicit prime-power rules.  The two
`check_*_identity` functions re-derive long stretches of the counting
sequences from closed Dirichlet-series product forms by exact integer
convolution arithmetic and compare them coefficient by coefficient, so a
single wrong value anywhere makes them return False.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterable, Mapping

from .golden import ConsistencyError, factor_int, splitting_type


# -- multiplicative machinery ----------------------------------------------

def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime factor of n, for n = 0..limit (spf[n] == n
    exactly when n is prime or n < 2)."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def expand_multiplicative(prime_power: Callable[[int, int], int],
                          limit: int) -> list[int]:
    """Values f(0..limit) of the multiplicative function with the given
    prime-power values (f[0] is a placeholder 0, f[1] = 1)."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    spf = _smallest_prime_factors(limit)
    out = [0] * (limit + 1)
    out[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        m, r = n, 0
        while m % p == 0:
            m //= p
            r += 1
        out[n] = out[m] * prime_power(p, r)
    return out


def _apply_prime_power_rules(n: int, prime_power: Callable[[int, int], int]) -> int:
    if n < 1:
        raise ValueError("argument must be a positive integer")
    total = 1
    for p, r in factor_int(n):
        total *= prime_power(p, r)
    return total


def _exact_quotient(num: int, den: int) -> int:
    """num / den for an Euler-factor coefficient that must be an integer."""
    q, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"{num} is not divisible by {den}")
    return q


# -- similar sublattices -----------------------------------------------------

def _f_ssl_pp(p: int, r: int) -> int:
    kind = splitting_type(p)
    if kind == "ramified":
        return (5 ** (r + 1) - 1) // 4
    if kind == "split":
        num = 2 * (1 - p ** (r + 1)) - (r + 1) * (1 - p * p) * p ** r
        den = (1 - p) ** 2
        return _exact_quotient(num, den)
    # inert
    if r % 2:
        return 0
    num = 2 - p ** r - p ** (r + 2)
    den = 1 - p * p
    return _exact_quotient(num, den)


def f_ssl(m: int) -> int:
    """Number of similar sublattices of A4 of norm scale m."""
    return _apply_prime_power_rules(m, _f_ssl_pp)


def f_ssl_values(limit: int) -> list[int]:
    """f_ssl(0..limit) in one sieve pass."""
    return expand_multiplicative(_f_ssl_pp, limit)


def representable_ssl_indices(limit: int) -> set[int]:
    """The set of norm scales <= limit that occur at all: the absolute
    values of the binary form k^2 + k*l - l^2 (the norms of Z[tau])."""
    if limit < 1:
        return set()
    box = 2 * isqrt(limit) + 2
    out: set[int] = set()
    for k in range(-box, box + 1):
        for l in range(-box, box + 1):
            n = abs(k * k + k * l - l * l)
            if 1 <= n <= limit:
                out.add(n)
    return out


# -- coincidence rotations ---------------------------------------------------

def _f_soc_pp(p: int, r: int) -> int:
    kind = splitting_type(p)
    if kind == "ramified":
        return 6 * 5 ** (2 * r - 1)
    if kind == "split":
        num = (p + 1) * p ** (r - 1) * (p ** (r + 1) + p ** (r - 1) - 2)
        return _exact_quotient(num, p - 1)
    # inert
    return p ** (2 * r) + p ** (2 * r - 2)


def f_soc(n: int) -> int:
    """Number of coincidence rotations of A4 with coincidence index n
    (counted modulo the symmetry rotations of the lattice)."""
    return _apply_prime_power_rules(n, _f_soc_pp)


def f_soc_values(limit: int) -> list[int]:
    return expand_multiplicative(_f_soc_pp, limit)


# -- golden and icosian zeta coefficients -----------------------------------

def _zeta_golden_pp(p: int, r: int) -> int:
    kind = splitting_type(p)
    if kind == "ramified":
        return 1
    if kind == "split":
        return r + 1
    return 1 if r % 2 == 0 else 0


def zeta_golden_coeffs(limit: int) -> list[int]:
    """Coefficients of the Dedekind zeta function of Q(sqrt 5): the number
    of ideals of Z[tau] with norm n, for n = 0..limit."""
    return expand_multiplicative(_zeta_golden_pp, limit)


def zeta_icosian_coeffs(limit: int) -> list[int]:
    """Coefficients c(n) of the right-ideal counting series of the icosian
    ring, zeta_I(s) = zeta_K(2s) * zeta_K(2s - 1); the mass sits on the
    perfect squares n = (jk)^2."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    top = isqrt(limit)
    ak = zeta_golden_coeffs(top) if top >= 1 else [0, 1]
    out = [0] * (limit + 1)
    for j in range(1, top + 1):
        if not ak[j]:
            continue
        for k in range(1, top // j + 1):
            if ak[k]:
                out[(j * k) ** 2] += ak[j] * ak[k] * k
    return out


# -- exact sparse Dirichlet arithmetic ---------------------------------------

def dirichlet_convolve(a: Mapping[int, int], b: Mapping[int, int],
                       limit: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for u, x in a.items():
        if u > limit or not x:
            continue
        for v, y in b.items():
            n = u * v
            if n > limit or not y:
                continue
            out[n] = out.get(n, 0) + x * y
    return {n: c for n, c in out.items() if c}


def dirichlet_inverse(coeffs: Iterable[int]) -> list[int]:
    """Inverse of a Dirichlet series given densely (index = n, coeffs[1]
    must be 1); returns the dense inverse of the same length."""
    a = list(coeffs)
    if len(a) < 2 or a[1] != 1:
        raise ValueError("need a series with first coefficient 1")
    inv = [0] * len(a)
    inv[1] = 1
    for n in range(2, len(a)):
        acc = 0
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                e = n // d
                if d > 1:
                    acc += a[d] * inv[e]
                if e != d and e > 1:
                    acc += a[e] * inv[d]
        inv[n] = -acc
    return inv


def _mobius(limit: int) -> list[int]:
    return dirichlet_inverse([0] + [1] * limit) if limit >= 1 else [0]


def _fourth_root(n: int) -> int:
    return isqrt(isqrt(n))


# -- the two series identities ------------------------------------------------

def check_ssl_identity(max_scale: int,
                       f: Callable[[int], int] | None = None) -> bool:
    """Verify, exactly, that the SSL counts match the closed product form

        sum_m f_ssl(m) m^{-2s} = zeta(4s) zeta_I(s) / zeta_K(4s)

    coefficient by coefficient for every norm scale m <= max_scale.  The
    right-hand side is expanded by sparse integer Dirichlet convolution
    over ordinary indices up to max_scale^2; all its mass must sit on
    perfect squares m^2 with coefficient f(m)."""
    if max_scale < 1:
        raise ValueError("max_scale must be at least 1")
    values = f if f is not None else f_ssl_values(max_scale).__getitem__
    limit = max_scale * max_scale

    zi_dense = zeta_icosian_coeffs(limit)
    zi = {n: c for n, c in enumerate(zi_dense) if c}

    k4 = _fourth_root(limit)
    z4 = {k ** 4: 1 for k in range(1, k4 + 1)}
    ak_inv = dirichlet_inverse(zeta_golden_coeffs(k4) if k4 >= 1 else [0, 1])
    zk4_inv = {k ** 4: ak_inv[k] for k in range(1, k4 + 1) if ak_inv[k]}

    rhs = dirichlet_convolve(dirichlet_convolve(z4, zk4_inv, limit), zi, limit)

    for n in rhs:
        root = isqrt(n)
        if root * root != n:
            return False
    for m in range(1, max_scale + 1):
        if rhs.get(m * m, 0) != values(m):
            return False
    return True


def _soc_closed_form_coeffs(limit: int) -> dict[int, int]:
    """Coefficients of zeta_K(s-1)/(1 + 5^{-s}) * zeta(s) zeta(s-2) /
    (zeta(2s) zeta(2s-2)) by global sparse convolution."""
    ak = zeta_golden_coeffs(limit)
    a = {n: ak[n] * n for n in range(1, limit + 1) if ak[n]}
    b: dict[int, int] = {}
    power, sign = 1, 1
    while power <= limit:
        b[power] = sign
        power *= 5
        sign = -sign
    c = {n: 1 for n in range(1, limit + 1)}
    d = {n: n * n for n in range(1, limit + 1)}
    mu = _mobius(isqrt(limit))
    e = {k * k: mu[k] for k in range(1, isqrt(limit) + 1) if mu[k]}
    fct = {k * k: mu[k] * k * k for k in range(1, isqrt(limit) + 1) if mu[k]}

    out = dirichlet_convolve(a, b, limit)
    out = dirichlet_convolve(out, c, limit)
    out = dirichlet_convolve(out, d, limit)
    out = dirichlet_convolve(out, e, limit)
    out = dirichlet_convolve(out, fct, limit)
    return out


def _soc_local_series(p: int, terms: int) -> list[int]:
    """Power-series coefficients of the local Euler factor of the SOC
    series at p, expanded from its factored rational form."""
    kind = splitting_type(p)
    if kind == "ramified":
        num, den = [1, 5], [1, -25]
    elif kind == "split":
        num = [1, p + 1, p]          # (1 + x)(1 + p x)
        den = [1, -p - p * p, p ** 3]  # (1 - p x)(1 - p^2 x)
    else:
        num, den = [1, 1], [1, -p * p]
    # the recurrence below takes den[0] == 1
    if den[0] != 1:
        raise ConsistencyError(f"Euler factor denominator {den} is not monic")
    out = []
    for r in range(terms):
        acc = num[r] if r < len(num) else 0
        for i in range(1, min(r, len(den) - 1) + 1):
            acc -= den[i] * out[r - i]
        out.append(acc)
    return out


def check_soc_identity(max_index: int,
                       f: Callable[[int], int] | None = None) -> bool:
    """Verify, exactly, that the SOC counts match the closed product form

        sum_n f_soc(n) n^{-s}
          = zeta_K(s-1)/(1 + 5^{-s}) * zeta(s) zeta(s-2) / (zeta(2s) zeta(2s-2))

    along two routes: a global sparse convolution of the six factors for
    every n <= max_index, and a per-prime expansion of the factored local
    Euler factors for every prime power <= max_index."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    values = f if f is not None else f_soc_values(max_index).__getitem__

    rhs = _soc_closed_form_coeffs(max_index)
    for n in range(1, max_index + 1):
        if rhs.get(n, 0) != values(n):
            return False

    spf = _smallest_prime_factors(max_index)
    for p in range(2, max_index + 1):
        if spf[p] != p:
            continue
        terms = 1
        while p ** terms <= max_index:
            terms += 1
        local = _soc_local_series(p, terms)
        for r in range(1, terms):
            if local[r] != values(p ** r):
                return False
    return True
