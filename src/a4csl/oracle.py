"""Brute-force cross-checks for the closed-form counts.

Everything here recounts geometric objects from first principles --
exhaustive Hermite-normal-form enumeration for similar sublattices,
shell enumeration in the icosian ring for coincidence rotations, and
randomized property checks for coincidence site lattices -- so that the
multiplicative formulas in `counting` can be validated against an
independent computation.  `verify_all` bundles the checks into a
machine-readable report.
"""

from __future__ import annotations

import itertools
import json
import pickle
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from .a4 import (
    CARTAN_A4,
    ConsistencyError,
    csl_of,
    denominator_of,
    dual_lattice_gram,
    l_rotation_zcoords,
    matches_quat_rotation,
)
from .counting import check_soc_identity, check_ssl_identity, f_soc, f_ssl
from .golden import (
    GoldenInt,
    canonical_associate,
    factor_int,
    gi_lcm_std,
    prime_above,
    splitting_type,
)
from .icosian import Icosian, enumerate_by_trace_norm, norm_one_units
from .lattice import _divisor_tuples, det_int, forms_equivalent

IntMatrix = tuple[tuple[int, ...], ...]


# --------------------------------------------------------------------------
# similar sublattices


def _as_int(x: object) -> int:
    n = int(x)
    if n != x:
        raise ValueError(f"gram entry {x!r} is not an integer")
    return n


def _check_gram(gram: Sequence[Sequence[int]]) -> IntMatrix:
    g = tuple(tuple(_as_int(x) for x in row) for row in gram)
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("gram matrix must be square")
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
        raise ValueError("gram matrix must be symmetric")
    # leading principal minors of a positive-definite matrix are positive
    for k in range(1, n + 1):
        if det_int([row[:k] for row in g[:k]]) <= 0:
            raise ValueError("gram matrix must be positive definite")
    return g


def oracle_ssl_count(m: int, gram: Sequence[Sequence[int]] | None = None) -> int:
    """Count sublattices similar to the ambient lattice with norm scale m.

    The ambient lattice is described by `gram` (the A4 Cartan matrix by
    default).  A similar sublattice with multiplier m has index m^2, so
    the search enumerates every index-m^2 sublattice in Hermite normal
    form, prunes rows whose inner products are not divisible by m, and
    keeps the survivors whose rescaled Gram matrix is equivalent to the
    ambient one.  No multiplicative structure is assumed anywhere.
    """
    if m < 1:
        raise ValueError("norm scale must be a positive integer")
    g = _check_gram(CARTAN_A4 if gram is None else gram)
    n = len(g)
    # an even ambient form forces even diagonal on the rescaled form
    self_mod = 2 * m if all(g[i][i] % 2 == 0 for i in range(n)) else m

    def times_g(v: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(row[j] * v[j] for j in range(n)) for row in g)

    def dot(u: Sequence[int], gv: Sequence[int]) -> int:
        return sum(u[i] * gv[i] for i in range(n))

    # x^T G x from the nonzero entries on and above the diagonal
    terms = [(i, j, g[i][j] * (1 if i == j else 2))
             for i in range(n) for j in range(i, n) if g[i][j]]

    def norm(v: Sequence[int]) -> int:
        return sum(c * v[i] * v[j] for i, j, c in terms)

    count = 0
    for diag in _divisor_tuples(m * m, n):

        # rows[i] is a fixed row r and grows[i] its product G r, so each
        # inner product with a fixed row costs n multiplications
        def build(level: int, rows: list[tuple[int, ...]],
                  grows: list[tuple[int, ...]]) -> None:
            nonlocal count
            if level < 0:
                s = [[dot(u, gv) for gv in grows] for u in rows]
                reduced = [[x // m for x in row] for row in s]
                if forms_equivalent(reduced, g):
                    count += 1
                return

            def rec(col: int, vec: list[int]) -> None:
                if col == n:
                    if norm(vec) % self_mod:
                        return
                    if any(dot(vec, gr) % m for gr in grows):
                        return
                    build(level - 1, [tuple(vec)] + rows, [times_g(vec)] + grows)
                    return
                for t in range(diag[col]):
                    vec[col] = t
                    rec(col + 1, vec)
                vec[col] = 0

            vec = [0] * n
            vec[level] = diag[level]
            rec(level + 1, vec)

        # rows are built bottom-up so each new row is pruned against all
        # previously fixed rows before the next level is expanded
        build(n - 1, [], [])
    return count


# --------------------------------------------------------------------------
# coincidence rotations


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


def oracle_soc_count(n: int) -> int:
    """Count coincidence rotations of index n by exhaustive enumeration.

    Every rotation of index n is, up to sign, induced by a primitive
    icosian whose reduced norm is one of `admissible_nr_divisors(n)`.
    The search enumerates the full shell of icosians at the matching
    trace norm, keeps the primitive ones with the exact reduced norm,
    collects their rotations as integer L-basis matrices over their
    denominators (`l_rotation_zcoords`, one reduced norm per icosian),
    closes under negation, and counts them.  The first icosian of each
    norm is also rotated in Q(sqrt 5) and must give the same map.  The total is a whole number of 120-element cosets
    of the rotation symmetry group of the lattice; the quotient is returned.
    """
    rotations = set()
    for d in admissible_nr_divisors(n):
        trace = 2 * d.a + d.b
        s = None
        for q in enumerate_by_trace_norm(trace):
            if q.nr() != d or not q.is_primitive():
                continue
            first = s is None
            if first:
                s = q.scale()  # s^2 = nr(q) nr(q)' = N(d), one value per shell
            m, den = l_rotation_zcoords(q.zcoords(), s)
            if first and not matches_quat_rotation(q.rotation(), m, den):
                raise ConsistencyError(
                    f"integer and Q(sqrt 5) rotations of {q} disagree")
            rotations.add((m, den))
    closed = set(rotations)
    for m, den in rotations:
        closed.add((tuple(tuple(-x for x in row) for row in m), den))
    if len(closed) % 120:
        raise ConsistencyError(
            f"rotation count {len(closed)} is not a multiple of 120"
        )
    return len(closed) // 120


# --------------------------------------------------------------------------
# coincidence site lattice sampling


def oracle_csl_properties(
    samples: int = 100, seed: int = 0, sigma_cap: int = 1000
) -> dict:
    """Check structural CSL invariants on randomly sampled icosians.

    Draws primitive admissible icosians with coordinates in [-2, 2] and
    coincidence index at most `sigma_cap`, computes each CSL by both the
    ideal route and the definitional intersection (`csl_of` verifies the
    two agree), and accumulates pass counts for the invariants:

    * the CSL index equals the coincidence index sigma,
    * the rotation denominator divides sigma and sigma divides its square,
    * sigma * L is contained in the CSL,
    * the CSL only depends on the right ideal (unit invariance).
    """
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
        if ext.sigma > sigma_cap:
            rejected += 1
            continue
        accepted += 1
        result = csl_of(q)  # internally checks both construction routes
        sigma = result.sigma
        sigma_seen.append(sigma)
        if result.lattice.index == sigma:
            checks["index_equals_sigma"] += 1
        den = denominator_of(q)
        if isinstance(den, int) and sigma % den == 0 and (den * den) % sigma == 0:
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
        "sigma_cap": sigma_cap,
        "sigma_min": min(sigma_seen),
        "sigma_max": max(sigma_seen),
        "checks": checks,
        "all_passed": all(v == samples for v in checks.values()),
    }


# --------------------------------------------------------------------------
# bundled verification report


@dataclass(frozen=True)
class SectionReport:
    """Outcome of one verification section."""

    name: str
    ok: bool
    details: dict
    elapsed: float

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {"name": self.name, "ok": self.ok, "details": self.details}
        if include_timing:
            out["elapsed"] = round(self.elapsed, 3)
        return out


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of every verification section."""

    sections: tuple[SectionReport, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "ok": self.ok,
            "sections": [s.to_dict(include_timing) for s in self.sections],
        }

    def to_json(self, include_timing: bool = False) -> str:
        # timing is excluded by default so reruns compare byte-for-byte
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for s in self.sections:
            status = "ok" if s.ok else "FAIL"
            lines.append(f"[{status:4s}] {s.name} ({s.elapsed:.1f}s)")
        lines.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return lines


def _run_unit(spec: tuple) -> tuple[tuple, dict, float]:
    """Execute one independent verification unit (picklable worker)."""
    started = time.monotonic()
    kind = spec[0]
    if kind == "ssl":
        _, which, m = spec
        gram = CARTAN_A4 if which == "cartan" else dual_lattice_gram()
        payload = {"m": m, "oracle": oracle_ssl_count(m, gram), "formula": f_ssl(m)}
    elif kind == "soc":
        _, n = spec
        payload = {"n": n, "oracle": oracle_soc_count(n), "formula": f_soc(n)}
    elif kind == "csl":
        _, samples, seed = spec
        payload = oracle_csl_properties(samples=samples, seed=seed)
    elif kind == "series":
        _, limit = spec
        payload = {
            "limit": limit,
            "ssl_identity": check_ssl_identity(limit),
            "soc_identity": check_soc_identity(limit),
        }
    else:
        raise ValueError(f"unknown unit kind {kind!r}")
    return spec, payload, time.monotonic() - started


def verify_all(
    max_ssl_m: int = 11,
    max_ssl_m_dual: int = 9,
    max_soc_n: int = 5,
    csl_samples: int = 100,
    seed: int = 0,
    series_limit: int = 200,
    threads: int = 1,
) -> VerificationReport:
    """Run every oracle against the closed-form counts.

    The work is split into independent units (one per count, one for the
    sampling section, one for the Dirichlet-series identities) which may
    be distributed over worker processes; results are reassembled in a
    fixed order so the report is identical regardless of `threads`.
    """
    specs: list[tuple] = []
    specs += [("ssl", "cartan", m) for m in range(1, max_ssl_m + 1)]
    specs += [("ssl", "dual", m) for m in range(1, max_ssl_m_dual + 1)]
    specs += [("soc", n) for n in range(1, max_soc_n + 1)]
    specs.append(("csl", csl_samples, seed))
    specs.append(("series", series_limit))

    results: dict[tuple, tuple[dict, float]] = {}
    if threads > 1:
        # only a failure of the pool itself falls back to serial; an
        # exception raised by an oracle propagates from pool.map as is
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for spec, payload, elapsed in pool.map(_run_unit, specs):
                    results[spec] = (payload, elapsed)
        except (BrokenProcessPool, pickle.PicklingError) as exc:
            print(f"warning: worker pool failed ({type(exc).__name__}: {exc}); "
                  f"running the {len(specs) - len(results)} unfinished units serially",
                  file=sys.stderr)
    for spec in specs:
        if spec not in results:
            _, payload, elapsed = _run_unit(spec)
            results[spec] = (payload, elapsed)

    def gather(kind: str, which: str | None = None) -> tuple[list[dict], float]:
        rows, spent = [], 0.0
        for spec in specs:
            if spec[0] != kind:
                continue
            if which is not None and spec[1] != which:
                continue
            payload, elapsed = results[spec]
            rows.append(payload)
            spent += elapsed
        return rows, spent

    sections = []
    primal, spent = gather("ssl", "cartan")
    sections.append(
        SectionReport(
            name="ssl-counts",
            ok=all(r["oracle"] == r["formula"] for r in primal),
            details={"rows": primal},
            elapsed=spent,
        )
    )
    dual, spent = gather("ssl", "dual")
    sections.append(
        SectionReport(
            name="ssl-counts-dual",
            ok=all(r["oracle"] == r["formula"] for r in dual),
            details={"rows": dual},
            elapsed=spent,
        )
    )
    soc, spent = gather("soc")
    sections.append(
        SectionReport(
            name="soc-counts",
            ok=all(r["oracle"] == r["formula"] for r in soc),
            details={"rows": soc},
            elapsed=spent,
        )
    )
    (csl,), spent = gather("csl")
    sections.append(
        SectionReport(name="csl-samples", ok=csl["all_passed"], details=csl, elapsed=spent)
    )
    (series,), spent = gather("series")
    sections.append(
        SectionReport(
            name="series-identities",
            ok=series["ssl_identity"] and series["soc_identity"],
            details=series,
            elapsed=spent,
        )
    )
    return VerificationReport(tuple(sections))
