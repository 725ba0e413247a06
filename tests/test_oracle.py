"""Oracle cross-checks: exhaustive recounts against the closed forms."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl import oracle
from a4csl.a4 import CARTAN_A4, dual_lattice_gram
from a4csl.counting import f_soc, f_ssl
from a4csl.golden import ConsistencyError, GoldenInt
from a4csl.lattice import det_int
from a4csl.oracle import (
    _check_gram,
    _divisor_tuples,
    _ssl_candidates,
    admissible_nr_divisors,
    oracle_csl_properties,
    oracle_soc_count,
    oracle_ssl_count,
    verify_all,
)
import soc_reference
from ssl_reference import enumerate_sublattices, ssl_candidates as reference_candidates


def test_divisor_tuples_cover_and_multiply():
    tuples = list(_divisor_tuples(12, 4))
    assert len(tuples) == len(set(tuples))
    for t in tuples:
        prod = 1
        for d in t:
            prod *= d
        assert prod == 12 and len(t) == 4 and all(d >= 1 for d in t)
    # ordered factorizations of p^2 into 4 slots = compositions of 2
    assert sum(1 for _ in _divisor_tuples(49, 4)) == 10


def test_admissible_divisors_are_rational_for_small_indices():
    # no split prime divides 1..7, so the canonical divisor is n itself
    for n in range(1, 8):
        assert admissible_nr_divisors(n) == (GoldenInt(n, 0),)
    assert admissible_nr_divisors(20) == (GoldenInt(20, 0),)


def test_admissible_divisors_split_prime_square():
    # at a split prime square three valuation patterns survive the
    # parity constraint: (2,0), (0,2) and (2,2)
    for square, p in ((121, 11), (961, 31)):
        divisors = admissible_nr_divisors(square)
        assert len(divisors) == 3
        assert sorted(d.norm() for d in divisors) == [square, square, square * square]


def test_admissible_divisors_reject_bad_index():
    with pytest.raises(ValueError):
        admissible_nr_divisors(0)


# below 1000, only these indices have an admissible norm that is not
# rational (by the prime-by-prime construction)
IRRATIONAL_INDICES = (121, 242, 361, 363, 484, 605, 722, 726, 841, 847, 961, 968)


def test_admissible_divisors_match_prime_by_prime_construction():
    for n in [*range(1, 101), *IRRATIONAL_INDICES[:5]]:
        assert admissible_nr_divisors(n) == soc_reference.admissible_nr_divisors(n), n


def test_admissible_divisors_box_misses_nothing():
    # the oracle searches -2n <= a <= 2n, 0 <= b <= 2n; twice as wide finds no more
    for n in [*range(1, 61), *IRRATIONAL_INDICES[:2]]:
        assert soc_reference.definitional_divisors(n, 4 * n) == admissible_nr_divisors(n), n


SSL_SMALL = {1: 1, 2: 0, 3: 0, 4: 6, 5: 6, 6: 0}


def test_ssl_oracle_matches_formula_primal():
    for m, expected in SSL_SMALL.items():
        assert f_ssl(m) == expected
        assert oracle_ssl_count(m) == expected


def test_ssl_oracle_matches_formula_dual():
    gram = dual_lattice_gram()
    for m in range(1, 6):
        assert oracle_ssl_count(m, gram) == f_ssl(m)


# A4 with one node of the diagram decoupled
G_MOD = ((2, 0, 0, 0), (0, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))


def test_ssl_oracle_counts_the_form_not_the_index():
    # decoupling one node of the diagram changes the answer, so the
    # equivalence gate is doing real work
    assert oracle_ssl_count(4, G_MOD) == 7
    assert oracle_ssl_count(5, G_MOD) == 0


def test_ssl_candidates_match_leaf_testing_search_in_four_dimensions():
    for g in (CARTAN_A4, dual_lattice_gram(), G_MOD):
        for m in range(1, 13):
            assert list(_ssl_candidates(m, g)) == reference_candidates(m, g), (g, m)


def test_ssl_candidates_match_leaf_testing_search_in_low_dimensions():
    # the last two forms have an odd diagonal entry, so norms are tested mod m
    for g in (((3,),), ((2, -1), (-1, 2)), ((2, 1), (1, 3)),
              ((3, 1, 0), (1, 2, 1), (0, 1, 4))):
        for m in range(1, 31):
            assert list(_ssl_candidates(m, g)) == reference_candidates(m, g), (g, m)


@st.composite
def small_forms(draw):
    """B B^T for a full-rank 2x2 or 3x3 integer matrix B with small entries."""
    n = draw(st.integers(2, 3))
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(lambda rows: det_int(rows) != 0))
    return tuple(tuple(sum(x * y for x, y in zip(r, s)) for s in b) for r in b)


@settings(max_examples=100, deadline=None)
@given(small_forms(), st.integers(1, 12))
def test_ssl_candidates_match_leaf_testing_search_on_drawn_forms(g, m):
    assert list(_ssl_candidates(m, g)) == reference_candidates(m, g)


@pytest.mark.parametrize("g", [CARTAN_A4, dual_lattice_gram()], ids=["primal", "dual"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ssl_candidates_match_filtered_hnf_enumeration(m, g):
    # every index-m^2 HNF basis B, kept when m divides B G B^T and, for an
    # even form, 2m divides its diagonal
    n = len(g)
    self_mod = 2 * m if all(g[i][i] % 2 == 0 for i in range(n)) else m
    expected = []
    for b in enumerate_sublattices(n, m * m):
        gb = [[sum(g[k][l] * row[l] for l in range(n)) for k in range(n)] for row in b]
        s = [[sum(x * y for x, y in zip(u, v)) for v in gb] for u in b]
        if any(x % m for row in s for x in row) or any(s[i][i] % self_mod for i in range(n)):
            continue
        expected.append([[x // m for x in row] for row in s])
    assert sorted(_ssl_candidates(m, g)) == sorted(expected)


def test_ssl_oracle_input_validation():
    with pytest.raises(ValueError):
        oracle_ssl_count(0)
    with pytest.raises(ValueError):
        oracle_ssl_count(2, ((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(ValueError):
        oracle_ssl_count(2, ((1, 2), (2, 1)))  # not positive definite


def test_check_gram_refuses_non_integral_entries():
    for gram in (((5 / 2, 1 / 2), (1 / 2, 3 / 2)),
                 ((Fraction(5, 2), 1), (1, 2)),
                 ((2, "1"), ("1", 2))):
        with pytest.raises(ValueError):
            _check_gram(gram)
        with pytest.raises(ValueError):
            oracle_ssl_count(2, gram)
    # integral values of other types are accepted as the integers they are
    assert _check_gram(((2.0, Fraction(-1)), (-1, 2))) == ((2, -1), (-1, 2))


def test_soc_oracle_matches_formula():
    for n in range(1, 11):
        assert oracle_soc_count(n) == f_soc(n), n


def test_soc_rotations_match_the_reference_path(monkeypatch):
    # the oracle collects the same (M, den) set, before the closure under
    # negation, as the per-vector path that summed the norm from components
    # and checked the reduced matrix
    kernel = oracle.l_rotation_pairs
    collected = set()

    def recording(w, s):
        rotation = kernel(w, s)
        collected.add(rotation)
        return rotation

    monkeypatch.setattr(oracle, "l_rotation_pairs", recording)
    for n in range(1, 9):
        collected.clear()
        assert oracle_soc_count(n) == f_soc(n), n
        assert collected == soc_reference.soc_rotations(n), n


def test_soc_oracle_compares_the_first_rotation_with_quaternions(monkeypatch):
    # -R passes both kernel checks and the closure hides it from the count:
    # only the Q(sqrt 5) rotation of the first icosian tells it from R
    kernel = oracle.l_rotation_pairs

    def negated(w, s):
        m, den = kernel(w, s)
        return tuple(tuple(-x for x in row) for row in m), den

    monkeypatch.setattr(oracle, "l_rotation_pairs", negated)
    with pytest.raises(ConsistencyError, match="rotations of .* disagree"):
        oracle_soc_count(2)


def test_soc_oracle_requires_whole_cosets(monkeypatch):
    # every icosian after the first of its shell maps to the identity
    kernel = oracle.l_rotation_pairs
    calls = []

    def collapsing(w, s):
        calls.append(w)
        if len(calls) == 1:
            return kernel(w, s)
        return tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), 1

    monkeypatch.setattr(oracle, "l_rotation_pairs", collapsing)
    with pytest.raises(ConsistencyError, match="not a multiple of 120"):
        oracle_soc_count(1)


def test_csl_property_sampler_all_pass():
    report = oracle_csl_properties(samples=5, seed=1)
    assert report["all_passed"]
    assert report["accepted"] == 5
    assert report["sigma_max"] <= 1000
    assert all(v == 5 for v in report["checks"].values())


def test_verify_all_serial_report():
    report = verify_all(
        max_ssl_m=4,
        max_ssl_m_dual=3,
        max_soc_n=2,
        csl_samples=4,
        seed=2,
        series_limit=40,
        threads=1,
    )
    assert report.ok
    names = [s.name for s in report.sections]
    assert names == [
        "ssl-counts",
        "ssl-counts-dual",
        "soc-counts",
        "csl-samples",
        "series-identities",
    ]
    blob = report.to_json()
    parsed = json.loads(blob)
    assert parsed["ok"] is True
    assert "elapsed" not in blob
    assert report.summary_lines()[-1] == "overall: ok"


def test_verify_all_threads_do_not_change_the_report():
    kwargs = dict(
        max_ssl_m=4,
        max_ssl_m_dual=3,
        max_soc_n=2,
        csl_samples=4,
        seed=2,
        series_limit=40,
    )
    serial = verify_all(threads=1, **kwargs)
    parallel = verify_all(threads=2, **kwargs)
    assert serial.to_json() == parallel.to_json()
