"""Reference implementations for the SOC oracle's admissible reduced norms.

`admissible_nr_divisors` is the prime-by-prime construction that
`a4csl.oracle.admissible_nr_divisors` replaced, kept verbatim: it builds
each canonical divisor of n from the splitting type of the primes p | n
instead of testing the definition on a box of candidates.

`definitional_divisors` tests the definition on a box of any half-width,
so a wider box than the oracle's can show that the oracle's box misses
nothing."""

from __future__ import annotations

import itertools
from math import isqrt

from a4csl.golden import (
    ConsistencyError,
    GoldenInt,
    canonical_associate,
    factor_int,
    gi_lcm_std,
    prime_above,
    splitting_type,
)


def admissible_nr_divisors(n: int) -> tuple[GoldenInt, ...]:
    """Canonical reduced norms whose coincidence index equals n.

    A rotation of index n comes from a primitive icosian whose reduced
    norm, normalized to its canonical associate, divides n in a
    prime-by-prime fashion: valuation 2a at the ramified prime when
    5^a || n, valuation a at an inert prime, and a pair of valuations
    (e, e') with max a and equal parity at a split prime pair.  The
    parity constraint is forced by the absolute norm being a perfect
    square.
    """
    if n < 1:
        raise ValueError("coincidence index must be a positive integer")
    per_prime: list[list[GoldenInt]] = []
    for p, a in factor_int(n):
        kind = splitting_type(p)
        pi = prime_above(p)
        options: list[GoldenInt] = []
        if kind == "ramified":
            options.append(pi ** (2 * a))
        elif kind == "inert":
            options.append(GoldenInt(p, 0) ** a)
        else:
            pi_bar = canonical_associate(pi.conj())
            pairs = {(a, a - 2 * k) for k in range(a // 2 + 1)}
            pairs |= {(a - 2 * k, a) for k in range(a // 2 + 1)}
            for e, e_bar in sorted(pairs):
                options.append(pi**e * pi_bar**e_bar)
        per_prime.append(options)
    out = set()
    for combo in itertools.product(*per_prime):
        d = GoldenInt(1, 0)
        for factor in combo:
            d = d * factor
        out.add(canonical_associate(d))
    for d in out:
        lcm = gi_lcm_std(d, d.conj())
        if lcm != GoldenInt(n, 0):
            raise ConsistencyError(f"lcm({d}, {d.conj()}) = {lcm}, not {n}")
    return tuple(sorted(out, key=lambda g: (g.a, g.b)))


def definitional_divisors(n: int, width: int) -> tuple[GoldenInt, ...]:
    """Every d = a + b tau with -width <= a <= width and 0 <= b <= width
    that is totally positive, has a perfect-square norm, divides n, is its
    own canonical associate and has lcm(d, d') = n, in (a, b) order.

    The norm is tested in plain integers first, with N(d) | n^2 (implied
    by d | n), so that a wide box stays cheap."""
    target = GoldenInt(n, 0)
    out = []
    for a in range(-width, width + 1):
        for b in range(width + 1):
            norm = a * a + a * b - b * b
            if norm <= 0 or n * n % norm or isqrt(norm) ** 2 != norm:
                continue
            d = GoldenInt(a, b)
            if (d.is_totally_positive() and target.divisible_by(d)
                    and canonical_associate(d) == d and gi_lcm_std(d, d.conj()) == target):
                out.append(d)
    return tuple(out)
