"""Acceptance suite: one test (and one pass/fail line) per criterion.

Every count asserted here is exact integer arithmetic -- there are no
tolerances anywhere.  The brute-force recounts are capped so the whole
suite stays well inside its time budget on one core.
"""

import random
import time

from a4csl.a4 import dual_lattice_gram
from a4csl.counting import (
    check_soc_identity,
    check_ssl_identity,
    f_soc,
    f_ssl,
)
from a4csl.golden import GoldenInt, canonical_associate, gi_gcd
from a4csl.icosian import Icosian
from a4csl.oracle import oracle_csl_properties, oracle_soc_count, oracle_ssl_count

# frozen reference counts, hand-checked against the prime-power rules
SSL_EXPECTED = {1: 1, 4: 6, 5: 6, 9: 11, 11: 24, 16: 26, 19: 40, 20: 36,
                25: 31, 29: 60, 31: 64, 36: 66}
SSL_ZEROS = (2, 3, 6, 7, 8, 10, 12, 13, 17, 18, 21)
SOC_EXPECTED = [1, 5, 10, 20, 30, 50, 50, 80, 90, 150, 144]  # n = 1..11


def _report(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_c1_similar_sublattice_counts_frozen():
    for m, expected in SSL_EXPECTED.items():
        assert f_ssl(m) == expected, m
    for m in SSL_ZEROS:
        assert f_ssl(m) == 0, m
    _report("criterion 1: closed-form similar-sublattice counts match the "
            f"frozen table at {len(SSL_EXPECTED)} scales and vanish at "
            f"{len(SSL_ZEROS)} non-representable scales")


def test_c2_coincidence_counts_frozen():
    for n, expected in enumerate(SOC_EXPECTED, start=1):
        assert f_soc(n) == expected, n
    _report("criterion 2: closed-form coincidence counts match the frozen "
            "table for indices 1..11")


def test_c3_dirichlet_identities_to_200():
    started = time.monotonic()
    assert check_ssl_identity(200)
    assert check_soc_identity(200)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"identity checks took {elapsed:.2f}s"
    _report("criterion 3: both Dirichlet-series identities verified "
            f"coefficientwise to 200 in {elapsed:.2f}s (exact arithmetic)")


def test_c4_ssl_oracle_primal_to_11():
    for m in range(1, 12):
        assert oracle_ssl_count(m) == f_ssl(m), m
    _report("criterion 4: exhaustive HNF recount equals the closed form for "
            "every norm scale 1..11 on the root lattice")


def test_c5_ssl_oracle_dual_to_9():
    gram = dual_lattice_gram()
    for m in range(1, 10):
        assert oracle_ssl_count(m, gram) == f_ssl(m), m
    _report("criterion 5: exhaustive HNF recount equals the closed form for "
            "every norm scale 1..9 on the dual lattice")


def test_c6_soc_oracle_to_5():
    for n in range(1, 6):
        # oracle_soc_count raises internally unless the raw matrix count
        # is an exact multiple of 120
        assert oracle_soc_count(n) == f_soc(n), n
    _report("criterion 6: shell enumeration of rotations equals the closed "
            "form for indices 1..5 (raw counts all multiples of 120)")


def test_c7_csl_sampled_invariants():
    started = time.monotonic()
    report = oracle_csl_properties(samples=100, seed=20260816)
    elapsed = time.monotonic() - started
    assert report["all_passed"], report
    assert report["accepted"] == 100
    assert elapsed < 60.0, f"sampling took {elapsed:.1f}s"
    _report("criterion 7: 100 fixed-seed CSLs (sigma <= "
            f"{report['sigma_cap']}) agree between the ideal and "
            "intersection routes with index == sigma, denominator chain, "
            f"containment and unit invariance, in {elapsed:.1f}s")


def test_c8_algebraic_invariants_bulk():
    started = time.monotonic()
    rng = random.Random(20260816)
    checked = 0
    while checked < 1000:
        a = GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40))
        b = GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40))
        if a and b:
            # norm multiplicativity and conjugation
            assert (a * b).norm() == a.norm() * b.norm()
            assert (a * b).conj() == a.conj() * b.conj()
            g = gi_gcd(a, b)
            assert a % g == GoldenInt(0, 0) and b % g == GoldenInt(0, 0)
            assert canonical_associate(a) == canonical_associate(a * GoldenInt(1, 1))
        q1 = Icosian.from_zcoords(tuple(rng.randint(-2, 2) for _ in range(8)))
        q2 = Icosian.from_zcoords(tuple(rng.randint(-2, 2) for _ in range(8)))
        # reduced norm is multiplicative; the twist is an involutory
        # anti-automorphism; conjugation reverses products
        assert (q1 * q2).nr() == q1.nr() * q2.nr()
        assert (q1 * q2).twist() == q2.twist() * q1.twist()
        assert q1.twist().twist() == q1
        assert (q1 * q2).conj() == q2.conj() * q1.conj()
        tr = q1.nr() + q1.nr().conj()
        assert tr.b == 0 and q1.nr().trace() == tr.a
        assert Icosian.from_zcoords(q1.zcoords()) == q1
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("criterion 8: 1000 fixed-seed algebra samples uphold norm "
            "multiplicativity, twist/conjugation laws and coordinate "
            f"round-trips in {elapsed:.1f}s")


def test_c9_representable_scales_match_norm_form():
    by_form = set()
    bound = 500
    k_max = 2 * int(bound**0.5) + 2
    for k in range(-k_max, k_max + 1):
        for l in range(-k_max, k_max + 1):
            v = abs(k * k + k * l - l * l)
            if 1 <= v <= bound:
                by_form.add(v)
    nonzero = {m for m in range(1, 501) if f_ssl(m) > 0}
    assert nonzero == by_form
    _report("criterion 9: norm scales with nonzero counts up to 500 are "
            "exactly the absolute values of the golden norm form "
            f"({len(by_form)} scales)")
