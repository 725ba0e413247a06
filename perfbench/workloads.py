"""The benchmark's workloads: seeded inputs, the timed calls, their checks.

A workload is a fixed work list of items.  Each item is one call into the
public a4csl API (`run`), returning a plain record that `check` compares
with the closed forms; every check is an explicit comparison, so it also
runs under `python -O`.  The seed fixes the inputs: it shuffles the order of
the oracle work lists and draws the csl-queries stream.  Building the items
(input generation, expected values) is not timed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

# the timed calls look their functions up in the package at call time, so
# that the tracer's rebinding of those names is seen
import a4csl
from a4csl import CARTAN_A4, Icosian

DEFAULT_SEED = 0

# counts on which the oracles and the closed forms agreed at the commit that
# added this benchmark, frozen so that a change breaking both alike still fails
SOC_COUNTS = {1: 1, 2: 5, 3: 10}
SSL_PRIMAL = {16: 26, 19: 40, 20: 36, 25: 31}
SSL_DUAL = {5: 6, 9: 11, 16: 26, 19: 40}
SERIES_LIMIT = 5000
POINTWISE_LIMIT = 20000

CSL_QUERIES = 250
CSL_SIGMA_CAP = 1000
# digest of (HNF basis, sigma, denominator) over the first CSL_REFERENCE
# queries of the default seed's stream; rotation entries are left out so
# their representation may change
CSL_REFERENCE = 50
CSL_REFERENCE_DIGEST = "33e0e1c912b5de0d15b39a9ec78242cf53aa8b5c49a1c1a3b8bb54d80395cb80"


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[bool]]


@dataclass(frozen=True)
class Workload:
    items: list[Item]
    # checks on the records of a whole pass, made once per run, untimed
    final_check: Callable[[list[object]], list[bool]] = lambda records: []


def _shuffled(xs: list, seed: int) -> list:
    xs = list(xs)
    random.Random(seed).shuffle(xs)
    return xs


def soc_shells(seed: int) -> Workload:
    def item(n: int) -> Item:
        expected = (a4csl.f_soc(n), SOC_COUNTS[n])
        return Item(f"soc n={n}", lambda: a4csl.oracle_soc_count(n),
                    lambda got: [got == e for e in expected])

    return Workload(_shuffled([item(n) for n in SOC_COUNTS], seed))


def ssl_hnf(seed: int) -> Workload:
    def item(which: str, gram, m: int, frozen: int) -> Item:
        expected = (a4csl.f_ssl(m), frozen)
        return Item(f"ssl {which} m={m}", lambda: a4csl.oracle_ssl_count(m, gram),
                    lambda got: [got == e for e in expected])

    dual = a4csl.dual_lattice_gram()
    items = [item("primal", CARTAN_A4, m, c) for m, c in SSL_PRIMAL.items()]
    items += [item("dual", dual, m, c) for m, c in SSL_DUAL.items()]
    return Workload(_shuffled(items, seed))


def series_identities(seed: int) -> Workload:
    L, K = SERIES_LIMIT, POINTWISE_LIMIT
    ssl_table = a4csl.f_ssl_values(K)[1:]
    soc_table = a4csl.f_soc_values(K)[1:]
    items = [
        Item(f"ssl identity L={L}", lambda: a4csl.check_ssl_identity(L),
             lambda got: [got is True]),
        Item(f"soc identity L={L}", lambda: a4csl.check_soc_identity(L),
             lambda got: [got is True]),
        # the closed forms one index at a time (factor_int per index),
        # checked against the sieve that tabulates them all at once
        Item(f"f_ssl(n) n<={K}", lambda: [a4csl.f_ssl(n) for n in range(1, K + 1)],
             lambda got: [got == ssl_table]),
        Item(f"f_soc(n) n<={K}", lambda: [a4csl.f_soc(n) for n in range(1, K + 1)],
             lambda got: [got == soc_table]),
    ]
    return Workload(_shuffled(items, seed))


def csl_stream(seed: int, count: int) -> list[Icosian]:
    """Primitive admissible icosians with coordinates in [-2, 2] and
    coincidence index at most CSL_SIGMA_CAP, drawn as oracle_csl_properties
    draws them."""
    rng = random.Random(seed)
    out: list[Icosian] = []
    while len(out) < count:
        zc = tuple(rng.randint(-2, 2) for _ in range(8))
        if not any(zc):
            continue
        q = Icosian.from_zcoords(zc)
        if not q.is_primitive() or not q.is_admissible():
            continue
        if q.extension().sigma > CSL_SIGMA_CAP:
            continue
        out.append(q)
    return out


def csl_query(q: Icosian) -> tuple:
    """What the CLI's `csl` and `ssl` commands compute for one icosian."""
    result = a4csl.csl_of(q)
    den = a4csl.denominator_of(q)
    sub = a4csl.ssl_of(q)
    return (result.lattice.basis, result.sigma, den if isinstance(den, int) else str(den),
            result.lattice.index, sub.index, q.norm_quadruple())


def _check_query(record: tuple) -> list[bool]:
    _, sigma, den, csl_index, ssl_index, n4 = record
    return [
        csl_index == sigma,
        ssl_index == n4 * n4,
        # the rotation denominator divides sigma, which divides its square
        isinstance(den, int) and sigma % den == 0 and (den * den) % sigma == 0,
    ]


def csl_digest(records: list[tuple]) -> str:
    h = hashlib.sha256()
    for basis, sigma, den, *_ in records:
        h.update(repr((basis, sigma, den)).encode())
    return h.hexdigest()


def csl_queries(seed: int) -> Workload:
    stream = csl_stream(seed, CSL_QUERIES)
    items = [Item(f"csl {' '.join(map(str, q.zcoords()))}",
                  lambda q=q: csl_query(q), _check_query)
             for q in stream]

    def final_check(records: list[object]) -> list[bool]:
        if seed == DEFAULT_SEED:
            reference = records[:CSL_REFERENCE]
        else:
            reference = [csl_query(q) for q in csl_stream(DEFAULT_SEED, CSL_REFERENCE)]
        return [csl_digest(reference) == CSL_REFERENCE_DIGEST]

    return Workload(items, final_check)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "soc-shells": soc_shells,
    "ssl-hnf": ssl_hnf,
    "csl-queries": csl_queries,
    "series-identities": series_identities,
}

# the number of coincidence rotations a soc-shells pass finds, the base of
# oracle.soc.useful_ratio
SOC_ROTATIONS = 120 * sum(SOC_COUNTS.values())
