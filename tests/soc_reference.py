"""Reference implementations for the SOC oracle.

`admissible_nr_divisors` is the prime-by-prime construction that
`a4csl.oracle.admissible_nr_divisors` replaced, kept verbatim: it builds
each canonical divisor of n from the splitting type of the primes p | n
instead of testing the definition on a box of candidates.

`definitional_divisors` tests the definition on a box of any half-width,
so a wider box than the oracle's can show that the oracle's box misses
nothing.

`soc_rotations` is the oracle's per-vector path before it formed each
vector's pair products once, kept verbatim: the reduced norm summed from
the squared quaternion components, the primitivity test, and the
rotation reduced by gcd(s, content) before M^T C M = den^2 C is checked
on all 16 entries and det M = den^4."""

from __future__ import annotations

import itertools
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from a4csl import a4
from a4csl.a4 import CARTAN_A4
from a4csl.golden import (
    ConsistencyError,
    GoldenInt,
    canonical_associate,
    factor_int,
    gi_lcm_std,
    prime_above,
    splitting_type,
)
from a4csl.icosian import (
    _PAIRS,
    _TWICE_AB,
    enumerate_by_trace_norm,
    is_primitive_zcoords,
)
from a4csl.lattice import det_int
from a4csl.oracle import admissible_nr_divisors as oracle_nr_divisors


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


def nr_zcoords(zc: Sequence[int]) -> GoldenInt:
    """Reduced norm as a golden integer, straight from Z^8 coordinates: the
    sum of the squared components, with (a + b tau)^2 = a^2 + b^2 + (2a + b) b tau."""
    parts = [(sum(map(mul, zc, a)), sum(map(mul, zc, b))) for a, b in _TWICE_AB]
    return GoldenInt(sum(a * a + b * b for a, b in parts) // 4,
                     sum((2 * a + b) * b for a, b in parts) // 4)


def l_rotation_zcoords(zc: Sequence[int], s: int):
    """The rotation of the icosian with Z^8 coordinates zc and scale s, as
    (M, den), checked after the reduction by gcd(s, content)."""
    w = [zc[i] * zc[j] for i, j in _PAIRS]
    flat = [sum(map(mul, w, row)) for row in a4._conjugation_table()]
    rows = tuple(tuple(flat[4 * c:4 * c + 4]) for c in range(4))
    g = gcd(s, *(x for row in rows for x in row))
    m = tuple(tuple(rows[c][k] // g for c in range(4)) for k in range(4))
    den = s // g
    cartan = CARTAN_A4
    cm = [[sum(cartan[i][k] * m[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    d2 = den * den
    if any(sum(m[k][i] * cm[k][j] for k in range(4)) != d2 * cartan[i][j]
           for i in range(4) for j in range(4)):
        raise ConsistencyError(f"rotation of {zc} does not preserve the A4 form")
    if det_int(m) != d2 * d2:
        raise ConsistencyError(f"rotation of {zc} does not have determinant +1")
    return m, den


def soc_rotations(n: int) -> set:
    """The (M, den) of every primitive icosian of an admissible reduced norm
    for index n, one per pair q, -q, before the closure under negation."""
    rotations = set()
    for d in oracle_nr_divisors(n):
        s = isqrt(d.signed_norm())
        for v in enumerate_by_trace_norm(2 * d.a + d.b):
            if nr_zcoords(v) != d or not is_primitive_zcoords(v):
                continue
            rotations.add(l_rotation_zcoords(v, s))
    return rotations
