"""Properties of the integral LLL reduction, the integer shell enumeration,
the HNF, the canonical `ExactLattice` and the form-equivalence test.  The
integer LLL and Fincke-Pohst routines are compared with the Fraction
versions they replaced, kept in `fraction_reference`."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl import lattice
from a4csl.a4 import CARTAN_A4, dual_lattice_gram
from a4csl.icosian import TRACE_GRAM2
from a4csl.lattice import (
    ExactLattice,
    det_int,
    forms_equivalent,
    hnf,
    lll_reduce_gram,
    short_vectors,
)
from a4csl.oracle import _ssl_candidates
import fraction_reference as reference
from fraction_reference import _gso_from_gram

DUAL = dual_lattice_gram()


def conjugate(u, g):
    """U G U^T."""
    n = len(g)
    return tuple(tuple(sum(u[i][k] * g[k][l] * u[j][l] for k in range(n) for l in range(n))
                       for j in range(n)) for i in range(n))


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations and row swaps."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        q = draw(st.integers(-3, 3))
        if q:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        else:
            u[i], u[j] = u[j], u[i]
    return tuple(tuple(r) for r in u)


@st.composite
def positive_definite(draw, n):
    """B B^T for an integer matrix B of full rank."""
    entries = st.integers(-3, 3)
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
             .filter(lambda rows: det_int(rows) != 0))
    return conjugate(b, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


forms = st.one_of(st.just(CARTAN_A4), st.just(DUAL),
                  st.integers(2, 4).flatmap(positive_definite))


def is_lll_reduced(r) -> bool:
    b, mu = _gso_from_gram(r)
    n = len(r)
    size = all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    lovasz = all(b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]
                 for k in range(1, n))
    return size and lovasz


@settings(max_examples=150, deadline=None)
@given(forms.flatmap(lambda g: st.tuples(st.just(g), unimodular(len(g)))))
def test_lll_reduces_integrally(case):
    g, u = case
    h = conjugate(u, g)
    r, v = lll_reduce_gram(h)
    assert all(type(x) is int for row in r for x in row)
    assert r == conjugate(v, h)
    assert abs(det_int(v)) == 1
    assert is_lll_reduced(r)


def doubled(g):
    """2G: an integer Gram whose entries share the factor 2."""
    return tuple(tuple(2 * x for x in row) for row in g)


def grams(min_dim: int):
    """Integer positive definite Grams of dimension min_dim..5, plain and
    doubled, and the A4, dual and doubled icosian trace forms."""
    return st.one_of(
        st.sampled_from([CARTAN_A4, DUAL, TRACE_GRAM2]),
        st.integers(min_dim, 5).flatmap(positive_definite),
        st.integers(min_dim, 5).flatmap(positive_definite).map(doubled),
    )


@settings(max_examples=120, deadline=None)
@given(grams(1), st.integers(-1, 12))
def test_short_vectors_match_fraction_enumeration(g, bound):
    got = list(short_vectors(g, bound))
    want = list(reference.short_vectors(g, bound))
    assert got == want  # same vectors in the same order, same norms
    assert all(type(norm) is int for _, norm in got)


@settings(max_examples=150, deadline=None)
@given(grams(2).flatmap(lambda g: st.tuples(st.just(g), unimodular(len(g)))))
def test_lll_matches_fraction_reduction(case):
    g, u = case
    h = conjugate(u, g)
    assert lll_reduce_gram(h) == reference.lll_reduce_gram(h)


def ssl_work_candidates():
    """(candidate Gram, ambient Gram) for every candidate of the benchmark's
    SSL work list, where the reduction swaps the most."""
    work = [(CARTAN_A4, m) for m in (16, 19, 20, 25)] + [(DUAL, m) for m in (5, 9, 16, 19)]
    return [(c, g) for g, m in work for c in _ssl_candidates(m, g)]


def test_lll_matches_fraction_reduction_on_ssl_candidates():
    forms = [c for c, _ in ssl_work_candidates()]
    assert len(forms) == 366
    for c in forms:
        assert lll_reduce_gram(c) == reference.lll_reduce_gram(c), c


def twice_range_equivalent(g1, g2):
    """The theta prefilter forms_equivalent used to run: pair counts of the
    reduced forms compared at every norm up to twice the largest diagonal
    entry of the reduced G2, then forms_equivalent itself."""
    r1, _ = lll_reduce_gram(g1)
    r2, _ = lll_reduce_gram(g2)
    top = 2 * max(r2[i][i] for i in range(len(r2)))
    if (Counter(norm for _, norm in short_vectors(r1, top))
            != Counter(norm for _, norm in short_vectors(r2, top))):
        return False
    return forms_equivalent(g1, g2)


def test_forms_equivalent_on_the_ssl_candidates():
    # the benchmark's SSL work list accepts 216 of its 366 candidates, and the
    # walk to the largest diagonal entry decides each as the twice-range
    # prefilter did
    pairs = ssl_work_candidates()
    decided = [forms_equivalent(c, g) for c, g in pairs]
    assert len(pairs) == 366 and sum(decided) == 216
    assert decided == [twice_range_equivalent(c, g) for c, g in pairs]


def minors_gcd(g, k):
    """The gcd of every k x k minor of g, each from its own determinant."""
    n = len(g)
    return gcd(*(det_int([[g[i][j] for j in cols] for i in rows])
                 for rows in combinations(range(n), k) for cols in combinations(range(n), k)))


@settings(max_examples=120, deadline=None)
@given(grams(2).flatmap(lambda g: st.tuples(st.just(g), unimodular(len(g)))))
def test_divisors_are_the_minor_gcds_and_invariant(case):
    g, u = case
    assert lattice._divisors(g) == (minors_gcd(g, 1), minors_gcd(g, 2))
    assert lattice._divisors(conjugate(u, g)) == lattice._divisors(g)


@pytest.fixture
def reduced(monkeypatch):
    """The Grams `lattice.lll_reduce_gram` is called on from here on."""
    calls = []

    def counting(g):
        calls.append(g)
        return lll_reduce_gram(g)

    monkeypatch.setattr(lattice, "lll_reduce_gram", counting)
    return calls


def test_divisor_prefilter_reduces_only_the_accepted_dual_candidates(reduced):
    # at dual m = 5, 150 of the 156 candidates have the dual's gcd of
    # entries, 1, but 2x2 minors of gcd 1 against its 5; the prefilter
    # refuses them before any reduction, so only the 6 accepted are reduced
    forms_equivalent(DUAL, DUAL)  # the target's own reduction is cached
    reduced.clear()
    candidates = list(_ssl_candidates(5, DUAL))
    accepted = [c for c in candidates if forms_equivalent(c, DUAL)]
    assert len(candidates) == 156 and len(accepted) == 6
    assert reduced == accepted
    assert lattice._divisors(DUAL) == (1, 5)
    assert {lattice._divisors(c) for c in candidates if c not in accepted} == {(1, 1)}


def test_the_gram_gate_runs_before_the_divisor_prefilter():
    # not positive definite, with the target's determinant 4 and other
    # divisors, (2, 4) against (1, 4): the gate must refuse it, where the
    # prefilter would answer False
    g2 = ((1, 0), (0, 4))
    negative = ((-2, 0), (0, -2))
    assert det_int(negative) == det_int(g2) == 4
    assert lattice._divisors(negative) == (2, 4) != lattice._divisors(g2)
    with pytest.raises(ValueError):
        forms_equivalent(negative, g2)
    with pytest.raises(TypeError):
        forms_equivalent(((2.0, 0), (0, 2)), g2)


# A2 + A2 and a form of the same determinant with as many pairs of norm 2:
# the walk to the target's largest diagonal entry, 2, cannot tell them apart,
# so the isometry search has to reject the pair
A2_A2 = ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2))
SIX_ROOT_PAIRS = ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 1), (-1, 0, 1, 3))


def test_search_rejects_forms_the_theta_counts_pass():
    assert det_int(SIX_ROOT_PAIRS) == det_int(A2_A2) == 9
    # equal first two determinantal divisors, so the divisor prefilter passes
    # the pair on; their 3x3 minors differ (gcd 1 against 3), which this test
    # would have to give up if the prefilter compared those too
    assert lattice._divisors(SIX_ROOT_PAIRS) == lattice._divisors(A2_A2) == (1, 1)
    assert minors_gcd(SIX_ROOT_PAIRS, 3) == 1 and minors_gcd(A2_A2, 3) == 3
    r, _ = lll_reduce_gram(SIX_ROOT_PAIRS)
    theta = {k: len(v) for k, v in lattice._walk(r, 2).items()}
    assert theta == lattice._reduced_target(A2_A2)[2] == {2: 6}
    assert not forms_equivalent(SIX_ROOT_PAIRS, A2_A2)
    assert not twice_range_equivalent(SIX_ROOT_PAIRS, A2_A2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=4, max_size=4)
       .filter(lambda rows: det_int(rows) != 0), unimodular(4), unimodular(4), st.booleans())
def test_forms_equivalent_matches_the_twice_range_prefilter(b, t, u, isometric):
    # B B^T against an equivalent form U B B^T U^T, or against the Gram of
    # the rows of B T, which has the same determinant and seldom is
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    g2 = conjugate(b, eye)
    bt = [[sum(row[k] * t[k][j] for k in range(4)) for j in range(4)] for row in b]
    g1 = conjugate(u, g2) if isometric else conjugate(bt, eye)
    assert forms_equivalent(g1, g2) == twice_range_equivalent(g1, g2)
    if isometric:
        assert forms_equivalent(g1, g2)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=k, max_size=k),
    unimodular(k))))
def test_hnf_is_canonical_under_unimodular_change(case):
    a, u = case
    ua = [[sum(u[i][k] * a[k][j] for k in range(len(a))) for j in range(4)]
          for i in range(len(a))]
    assert hnf(ua) == hnf(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                      min_size=3, max_size=3), min_size=k, max_size=k),
    unimodular(k))))
def test_exact_lattice_is_canonical_under_unimodular_change(case):
    r, u = case
    ur = [[sum(u[i][k] * r[k][j] for k in range(len(r))) for j in range(3)]
          for i in range(len(r))]
    lat = ExactLattice.from_rows(r)
    assert ExactLattice.from_rows(ur) == lat
    assert all(lat.contains(row) for row in r)
    # den is the least denominator: it shares no factor with the integer basis
    assert gcd(lat.den, *(x for row in lat.basis for x in row)) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([CARTAN_A4, DUAL]).flatmap(
    lambda g: st.tuples(st.just(g), unimodular(4))))
def test_forms_equivalent_to_a_conjugate(case):
    g, u = case
    assert forms_equivalent(conjugate(u, g), g)
    assert forms_equivalent(g, conjugate(u, g))


# same determinant as CARTAN_A4 and DUAL respectively, but not equivalent:
# each represents 1, and both A4 forms are even.  NOT_DUAL's 2x2 minors have
# gcd 1 against the dual's 5, so the divisor prefilter refuses it; ODD_DUAL
# has the dual's divisors (1, 5), so the theta counts and the search decide
NOT_CARTAN = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 5))
NOT_DUAL = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 5, 0), (0, 0, 0, 25))
ODD_DUAL = ((1, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5))


def test_inequivalent_forms_with_equal_determinant(reduced):
    assert det_int(NOT_CARTAN) == det_int(CARTAN_A4)
    assert det_int(NOT_DUAL) == det_int(ODD_DUAL) == det_int(DUAL) == 125
    assert lattice._divisors(NOT_DUAL) == (1, 1)
    assert lattice._divisors(ODD_DUAL) == lattice._divisors(DUAL) == (1, 5)
    forms_equivalent(DUAL, DUAL)  # the target's own reduction is cached
    reduced.clear()
    assert not forms_equivalent(NOT_DUAL, DUAL)
    assert reduced == []
    assert not forms_equivalent(ODD_DUAL, DUAL)
    assert reduced == [ODD_DUAL]
    assert not forms_equivalent(NOT_CARTAN, CARTAN_A4)
    # a binary pair: diag(1, 6) represents 1, diag(2, 3) does not
    assert not forms_equivalent(((1, 0), (0, 6)), ((2, 0), (0, 3)))


def test_cached_targets_answer_as_fresh_calls():
    u = ((1, 2, 0, 0), (0, 1, 0, 0), (0, -1, 1, 0), (1, 0, 0, 1))
    cases = [(conjugate(u, CARTAN_A4), CARTAN_A4), (conjugate(u, DUAL), DUAL),
             (NOT_CARTAN, CARTAN_A4), (NOT_DUAL, DUAL), (ODD_DUAL, DUAL)] * 2
    lattice._reduced_target.cache_clear()
    cached = [forms_equivalent(g1, g2) for g1, g2 in cases]
    assert lattice._reduced_target.cache_info().misses == 2
    fresh = []
    for g1, g2 in cases:
        lattice._reduced_target.cache_clear()
        fresh.append(forms_equivalent(g1, g2))
    assert cached == fresh == [True, True, False, False, False] * 2


def test_non_positive_definite_target_raises_every_time():
    eye = ((1, 0), (0, 1))
    negative = ((-1, 0), (0, -1))  # determinant 1 too
    for _ in range(2):
        with pytest.raises(ValueError):
            forms_equivalent(eye, negative)
