"""Brute-force cross-checks for the closed-form counts.

Everything here recounts geometric objects from first principles --
exhaustive Hermite-normal-form enumeration for similar sublattices (the
last coordinate of each row is solved from its congruences mod m, which
skips exactly the rows that fail them), shell enumeration in the icosian
ring for coincidence rotations, and randomized property checks for
coincidence site lattices -- so that the multiplicative formulas in
`counting` can be validated against an independent computation.
`verify_all` bundles the checks into a machine-readable report.
"""

from __future__ import annotations

import os
import random
import sys
import time
from math import gcd, isqrt
from operator import index, mul, neg
from typing import Iterator, Sequence

from .a4 import (
    CARTAN_A4,
    ConsistencyError,
    csl_of,
    denominator_of,
    dual_lattice_gram,
    l_rotation_pairs,
    matches_quat_rotation,
)
from .counting import check_soc_identity, check_ssl_identity, f_soc, f_ssl
from .golden import GoldenInt, _Frozen, canonical_associate, gi_lcm_conj
from .icosian import (
    NR_B,
    Icosian,
    enumerate_by_trace_norm,
    is_primitive_zcoords,
    norm_one_units,
    pair_products,
)
from .lattice import IntMatrix, _divisor_tuples, _ldl, det_int, forms_equivalent


# --------------------------------------------------------------------------
# similar sublattices


def _check_gram(gram: Sequence[Sequence[int]]) -> IntMatrix:
    # the Gram gate of `lattice`: TypeError for an entry that is not an
    # integer, ValueError unless g is square, symmetric and positive definite
    g = tuple(tuple(map(index, row)) for row in gram)
    _ldl(g)
    return g


def _ssl_candidates(m: int, g: IntMatrix) -> Iterator[list[list[int]]]:
    """Yield the reduced Gram (u G v) // m of every index-m^2 sublattice in
    Hermite normal form whose inner products are all divisible by m.

    Rows are fixed bottom-up, so each new row is pruned against the rows
    below it before the next level is expanded.  While the free
    coordinates of a row are set, its inner products with the fixed rows
    (mod m) and its norm are carried along; the last coordinate t is then
    solved from the linear congruences res + t (G r)[n-1] = 0 (mod m),
    folded into one progression t = start (mod step), and only those t
    get the quadratic norm test.  The fold's divisors, inverses and steps
    depend only on the fixed rows, so they are computed once per row, and
    a leaf is left with its residue tests.  The fold's first test is
    linear in the second-to-last coordinate, so it is solved for that
    coordinate too, and only its progression is visited.  A row is
    skipped exactly when one of the divisibility tests fails, so the
    yielded Grams, and their order, are those of testing every complete
    row.

    A diagonal no candidate can have is skipped whole.  Take L = Z^n with
    the form G and duals # under G.  Every inner product of a candidate S
    is divisible by m, so S lies in m S^#, of index det(B G B^T) / m^n =
    m^(4-n) det G over S (B its basis, with det B = m^2).  That index
    kills m S^# / S, and L lies in L^#, which lies in S^#, so S contains
    m^(5-n) det G L: every pivot of S divides m^(5-n) det G (the forms
    searched have n <= 4).  Only the divisibility tests enter the
    argument, so a skipped diagonal is one whose rows would all fail them.
    """
    n = len(g)
    last = n - 1
    g_ll = g[last][last]
    # an even ambient form forces even diagonal on the rescaled form
    self_mod = 2 * m if all(g[i][i] % 2 == 0 for i in range(n)) else m
    bound = m ** (5 - n) * det_int(g)

    for diag in _divisor_tuples(m * m, n):
        if any(bound % d for d in diag):
            continue

        def rows_at(level: int, grows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
            """Every row (0.., diag[level], x..) passing the tests against
            the fixed rows' products `grows` = G r, in ascending order."""
            d = diag[level]
            vec = [0] * n
            vec[level] = d
            if level == last:
                return [tuple(vec)] if d * d * g_ll % self_mod == 0 else []
            out: list[tuple[int, ...]] = []
            # g_cols[c][j] = grows[j][c]: what column c adds to each res[j]
            g_cols = list(zip(*grows))

            # fold each a + c t = 0 (mod m), in the order of grows, into
            # t = start (mod step): b = c * (the step so far), k = gcd(b, m)
            # divides a, and t moves on by the step times -(a/k) (b/k)^-1
            # mod m/k; all but a are fixed by the rows below
            fold = []
            step = 1
            for c in g_cols[last]:
                b = c * step
                k = gcd(b, m)
                mk = m // k
                fold.append((c, step, k, mk, pow(b // k, -1, mk)))
                step *= mk
            # the first test is k0 | a0, and a0 = res[0] + u e for the
            # coordinate u at column n-2 (when it is free) and e = grows[0][n-2]:
            # it holds exactly for u = u0 (mod hstep)
            if level < last - 1:
                k0, e = fold[0][2], g_cols[last - 1][0]
                ge = gcd(e, k0)
                hstep = k0 // ge
                hinv = pow(e // ge, -1, hstep)

            # res[j] = vec . grows[j] and q = vec . G vec for the coordinates
            # set so far; h2 = 2 (G vec)[col], as the later coordinates are 0
            def free(col: int, res: list[int], q: int) -> None:
                if col < last:
                    t0, dt = 0, 1
                    if col == last - 1:
                        a = res[0]
                        if a % ge:
                            return
                        t0, dt = -(a // ge) * hinv % hstep, hstep
                    g_col, g_row = g_cols[col], g[col]
                    h2, g_cc = 2 * sum(map(mul, g_row, vec)), g_row[col]
                    for t in range(t0, diag[col], dt):
                        vec[col] = t
                        free(col + 1, [a + t * b for a, b in zip(res, g_col)],
                             q + t * (h2 + g_cc * t))
                    vec[col] = 0
                    return
                start = 0
                for a, (c, st, k, mk, inv) in zip(res, fold):
                    a += c * start
                    if a % k:
                        return
                    start += st * (-(a // k) * inv % mk)
                h2 = 2 * sum(map(mul, g[last], vec))
                for t in range(start, diag[last], step):
                    if (q + t * (h2 + g_ll * t)) % self_mod == 0:
                        vec[last] = t
                        out.append(tuple(vec))
                vec[last] = 0

            free(level + 1, [d * x for x in g_cols[level]], d * d * g[level][level])
            return out

        def build(level: int, rows: list[tuple[int, ...]],
                  grows: list[tuple[int, ...]]) -> Iterator[list[list[int]]]:
            if level < 0:
                yield [[sum(map(mul, u, gv)) // m for gv in grows] for u in rows]
                return
            for vec in rows_at(level, grows):
                gvec = tuple(sum(map(mul, row, vec)) for row in g)
                yield from build(level - 1, [vec] + rows, [gvec] + grows)

        yield from build(last, [], [])


def oracle_ssl_count(m: int, gram: Sequence[Sequence[int]] | None = None) -> int:
    """Count sublattices similar to the ambient lattice with norm scale m.

    The ambient lattice is described by `gram` (the A4 Cartan matrix by
    default).  A similar sublattice with multiplier m has index m^2, so
    the search enumerates every index-m^2 sublattice in Hermite normal
    form, keeps those whose inner products are all divisible by m (the
    last coordinate of each row is solved from these linear congruences
    rather than tried one value at a time, and a diagonal with a pivot
    that does not divide m det G is skipped, as no such sublattice passes
    them; see `_ssl_candidates`), and counts the survivors whose rescaled
    Gram matrix is equivalent to the ambient one.  No multiplicative
    structure is assumed anywhere: the congruences and the pivot bound
    use only the divisibility by m.  The Gram must be 4x4 (ValueError
    otherwise): index m^2 is the index of a similar sublattice of norm
    scale m only in dimension 4.  An entry that is not an integer raises
    TypeError, as everywhere in `lattice`.
    """
    if m < 1:
        raise ValueError("norm scale must be a positive integer")
    g = _check_gram(CARTAN_A4 if gram is None else gram)
    if len(g) != 4:
        raise ValueError(f"the SSL search needs a 4x4 Gram, not {len(g)}x{len(g)}")
    return sum(1 for reduced in _ssl_candidates(m, g) if forms_equivalent(reduced, g))


# --------------------------------------------------------------------------
# coincidence rotations


def admissible_nr_divisors(n: int) -> tuple[GoldenInt, ...]:
    """Canonical reduced norms whose coincidence index equals n.

    A rotation of index n comes from a primitive icosian whose reduced
    norm d, taken as its canonical associate, is totally positive with a
    perfect-square absolute norm (the rotation's scale is rational),
    divides n, and has lcm(d, d') = n.  They are found by that definition:
    every d = a + b tau in a box that holds all of them is tested.
    """
    if n < 1:
        raise ValueError("coincidence index must be a positive integer")
    # d | n gives N(d) | n^2, so sqrt N(d) <= n.  The canonical window gives
    # d < tau^2 sqrt N and |d'| <= sqrt N, so b = (d - d')/sqrt 5 lies in
    # [0, 1.62 n] and a = (tau d' - tau' d)/sqrt 5 in [-0.73 n, 1.45 n]:
    # the box below holds every candidate, and is walked in (a, b) order.
    target = GoldenInt(n, 0)
    out = []
    for a in range(-2 * n, 2 * n + 1):
        for b in range(2 * n + 1):
            # N(d) in plain integers first: positive, a square, and dividing n^2
            norm = a * a + a * b - b * b
            if norm <= 0 or n * n % norm or isqrt(norm) ** 2 != norm:
                continue
            d = GoldenInt(a, b)
            if (d.is_totally_positive() and target.divisible_by(d)
                    and canonical_associate(d) == d and gi_lcm_conj(d) == target):
                out.append(d)
    return tuple(out)


def oracle_soc_count(n: int) -> int:
    """Count coincidence rotations of index n by exhaustive enumeration.

    Every rotation of index n is, up to sign, induced by a primitive
    icosian whose reduced norm is one of `admissible_nr_divisors(n)`.
    The search enumerates the full shell of icosians at the matching
    trace norm as Z^8 coordinates, one of each pair q, -q (both induce the
    same map), and forms each vector's pair products once: they give the
    tau part of its reduced norm and, for the primitive ones with the exact
    reduced norm, its rotation as an integer L-basis matrix over its
    denominator (`l_rotation_pairs`).  The rotations are closed under
    negation and counted.  The first icosian of each norm is also rotated
    in Q(sqrt 5) and must give the same map.  The total is a whole number
    of 120-element cosets of the rotation symmetry group of the lattice;
    the quotient is returned.
    """
    rotations = set()
    for d in admissible_nr_divisors(n):
        trace = 2 * d.a + d.b
        s = None
        for v in enumerate_by_trace_norm(trace):
            # the shell fixes Tr nr = 2a + b, so the tau parts decide nr == d
            w = pair_products(v)
            if sum(map(mul, w, NR_B)) != d.b or not is_primitive_zcoords(v):
                continue
            first = s is None
            if first:
                q = Icosian.from_zcoords(v)
                s = q.scale()  # s^2 = nr(q) nr(q)' = N(d), one value per shell
            m, den = l_rotation_pairs(w, s)
            if first and not matches_quat_rotation(q.rotation(), m, den):
                raise ConsistencyError(
                    f"integer and Q(sqrt 5) rotations of {q} disagree")
            rotations.add((m, den))
    closed = rotations | {(tuple(tuple(map(neg, row)) for row in m), den)
                          for m, den in rotations}
    if len(closed) % 120:
        raise ConsistencyError(
            f"rotation count {len(closed)} is not a multiple of 120"
        )
    return len(closed) // 120


# --------------------------------------------------------------------------
# coincidence site lattice sampling


#: the largest coincidence index that `oracle_csl_properties` samples
_SIGMA_CAP = 1000


def oracle_csl_properties(samples: int = 100, seed: int = 0) -> dict:
    """Check structural CSL invariants on randomly sampled icosians.

    Draws primitive admissible icosians with coordinates in [-2, 2] and
    coincidence index at most `_SIGMA_CAP`, computes each CSL by both the
    ideal route and the definitional intersection (`csl_of` verifies the
    two agree), and accumulates pass counts for the invariants:

    * the CSL index equals the coincidence index sigma,
    * the rotation denominator divides sigma and sigma divides its square,
    * sigma * L is contained in the CSL,
    * the CSL only depends on the right ideal (unit invariance).

    `samples` must be an integer (TypeError otherwise, for 1.5 too).
    """
    samples = index(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    units = norm_one_units()
    checks = {
        "index_equals_sigma": 0,
        "denominator_chain": 0,
        "sigma_l_contained": 0,
        "unit_invariance": 0,
    }
    accepted = 0
    rejected = 0
    attempts = 0
    max_attempts = samples * 100_000
    sigma_seen: list[int] = []
    while accepted < samples:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("sampling budget exhausted")
        zc = tuple(rng.randint(-2, 2) for _ in range(8))
        if not any(zc):
            rejected += 1
            continue
        q = Icosian.from_zcoords(zc)
        if not q.is_primitive() or not q.is_admissible():
            rejected += 1
            continue
        ext = q.extension()
        if ext.sigma > _SIGMA_CAP:
            rejected += 1
            continue
        accepted += 1
        result = csl_of(q)  # internally checks both construction routes
        sigma = result.sigma
        sigma_seen.append(sigma)
        if result.lattice.index == sigma:
            checks["index_equals_sigma"] += 1
        den = denominator_of(q)
        if sigma % den == 0 and (den * den) % sigma == 0:
            checks["denominator_chain"] += 1
        if all(
            result.lattice.contains(tuple(sigma if j == i else 0 for j in range(4)))
            for i in range(4)
        ):
            checks["sigma_l_contained"] += 1
        u = units[rng.randrange(len(units))]
        if csl_of(q * u).lattice == result.lattice:
            checks["unit_invariance"] += 1
    return {
        "requested": samples,
        "accepted": accepted,
        "rejected": rejected,
        "sigma_cap": _SIGMA_CAP,
        "sigma_min": min(sigma_seen),
        "sigma_max": max(sigma_seen),
        "checks": checks,
        "all_passed": all(v == samples for v in checks.values()),
    }


# --------------------------------------------------------------------------
# bundled verification report


class SectionReport(_Frozen):
    """Outcome of one verification section (unhashable: details is a dict)."""

    _fields = ("name", "ok", "details", "elapsed")

    def __init__(self, name: str, ok: bool, details: dict, elapsed: float) -> None:
        self.__dict__.update(name=name, ok=ok, details=details, elapsed=elapsed)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "details": self.details}


class VerificationReport(_Frozen):
    """Aggregate of every verification section."""

    _fields = ("sections",)

    def __init__(self, sections: tuple[SectionReport, ...]) -> None:
        self.__dict__["sections"] = sections

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "sections": [s.to_dict() for s in self.sections],
        }

    def to_json(self) -> str:
        import json
        # timing is left out so reruns compare byte-for-byte
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for s in self.sections:
            status = "ok" if s.ok else "FAIL"
            lines.append(f"[{status:4s}] {s.name} ({s.elapsed:.1f}s)")
        lines.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return lines


#: every `verify` profile's sizes, by section in report order: a range is
#: one unit per index, reported as rows; an int is one unit whose payload
#: is the section's details
PROFILES = {
    "smoke": {"ssl-counts": range(1, 6), "ssl-counts-dual": range(1, 6),
              "soc-counts": range(1, 3), "csl-samples": 10, "series-identities": 60},
    "default": {"ssl-counts": range(1, 12), "ssl-counts-dual": range(1, 10),
                "soc-counts": range(1, 9), "csl-samples": 100, "series-identities": 200},
    "deep": {"ssl-counts": range(1, 13), "ssl-counts-dual": range(1, 11),
             "soc-counts": range(1, 11), "csl-samples": 1000, "series-identities": 400},
}


def _run_unit(spec: tuple[str, int, int]) -> tuple[bool, dict, float]:
    """Execute one independent verification unit (picklable worker): the
    unit of section `name` at `size`, with the profile's seed."""
    started = time.monotonic()
    name, size, seed = spec
    if name in ("ssl-counts", "ssl-counts-dual"):
        gram = CARTAN_A4 if name == "ssl-counts" else dual_lattice_gram()
        payload = {"m": size, "oracle": oracle_ssl_count(size, gram), "formula": f_ssl(size)}
        ok = payload["oracle"] == payload["formula"]
    elif name == "soc-counts":
        payload = {"n": size, "oracle": oracle_soc_count(size), "formula": f_soc(size)}
        ok = payload["oracle"] == payload["formula"]
    elif name == "csl-samples":
        payload = oracle_csl_properties(samples=size, seed=seed)
        ok = payload["all_passed"]
    elif name == "series-identities":
        payload = {
            "limit": size,
            "ssl_identity": check_ssl_identity(size),
            "soc_identity": check_soc_identity(size),
        }
        ok = payload["ssl_identity"] and payload["soc_identity"]
    else:
        raise ValueError(f"unknown section {name!r}")
    return ok, payload, time.monotonic() - started


def verify_all(profile: str = "default", seed: int = 0, threads: int = 1) -> VerificationReport:
    """Run every oracle of a profile in `PROFILES` against the closed forms.

    The work is split into independent units (one per count, one for the
    sampling section, one for the Dirichlet-series identities) which may
    be distributed over worker processes; results are reassembled in a
    fixed order so the report is identical regardless of `threads`.  The
    worker count is clamped to the usable CPUs.  An unknown profile or a
    thread count below 1 raises ValueError before any unit runs.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {', '.join(PROFILES)}")
    threads = index(threads)
    if threads < 1:
        raise ValueError("need at least one thread")
    # at most the CPUs this process may run on (its affinity mask where the
    # platform has one): a fork pool starts all its workers at once
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, usable or 1)
    table = PROFILES[profile]
    units = {name: [(name, size, seed) for size in (sizes if isinstance(sizes, range)
                                                    else (sizes,))]
             for name, sizes in table.items()}
    specs = [spec for group in units.values() for spec in group]

    results: dict[tuple, tuple[bool, dict, float]] = {}
    if threads > 1:
        # imported here so that serial runs never load multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # only a failure of the pool itself falls back to serial; an
        # exception raised by an oracle propagates from pool.map as is
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results.update(zip(specs, pool.map(_run_unit, specs)))
        except (BrokenProcessPool, pickle.PicklingError) as exc:
            print(f"warning: worker pool failed ({type(exc).__name__}: {exc}); "
                  f"running the {len(specs) - len(results)} unfinished units serially",
                  file=sys.stderr)
    for spec in specs:
        if spec not in results:
            results[spec] = _run_unit(spec)

    sections = []
    for name, group in units.items():
        oks, payloads, times = zip(*(results[spec] for spec in group))
        details = {"rows": list(payloads)} if isinstance(table[name], range) else payloads[0]
        sections.append(SectionReport(name=name, ok=all(oks), details=details,
                                      elapsed=sum(times)))
    return VerificationReport(tuple(sections))
