"""Properties of the integral LLL reduction and the form-equivalence test."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl import lattice
from a4csl.a4 import CARTAN_A4, dual_lattice_gram
from a4csl.lattice import _gso_from_gram, det_int, forms_equivalent, lll_reduce_gram

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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([CARTAN_A4, DUAL]).flatmap(
    lambda g: st.tuples(st.just(g), unimodular(4))))
def test_forms_equivalent_to_a_conjugate(case):
    g, u = case
    assert forms_equivalent(conjugate(u, g), g)
    assert forms_equivalent(g, conjugate(u, g))


# same determinant as CARTAN_A4 and DUAL respectively, but not equivalent:
# each represents 1, and both A4 forms are even
NOT_CARTAN = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 5))
NOT_DUAL = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 5, 0), (0, 0, 0, 25))


def test_inequivalent_forms_with_equal_determinant():
    assert det_int(NOT_CARTAN) == det_int(CARTAN_A4)
    assert det_int(NOT_DUAL) == det_int(DUAL)
    assert not forms_equivalent(NOT_CARTAN, CARTAN_A4)
    assert not forms_equivalent(NOT_DUAL, DUAL)
    # a binary pair: diag(1, 6) represents 1, diag(2, 3) does not
    assert not forms_equivalent(((1, 0), (0, 6)), ((2, 0), (0, 3)))


def test_cached_targets_answer_as_fresh_calls():
    u = ((1, 2, 0, 0), (0, 1, 0, 0), (0, -1, 1, 0), (1, 0, 0, 1))
    cases = [(conjugate(u, CARTAN_A4), CARTAN_A4), (conjugate(u, DUAL), DUAL),
             (NOT_CARTAN, CARTAN_A4), (NOT_DUAL, DUAL)] * 2
    lattice._reduced_target.cache_clear()
    cached = [forms_equivalent(g1, g2) for g1, g2 in cases]
    assert lattice._reduced_target.cache_info().misses == 2
    fresh = []
    for g1, g2 in cases:
        lattice._reduced_target.cache_clear()
        fresh.append(forms_equivalent(g1, g2))
    assert cached == fresh == [True, True, False, False] * 2


def test_non_positive_definite_target_raises_every_time():
    eye = ((1, 0), (0, 1))
    negative = ((-1, 0), (0, -1))  # determinant 1 too
    for _ in range(2):
        with pytest.raises(ValueError):
            forms_equivalent(eye, negative)
