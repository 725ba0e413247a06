"""The integer routes of `csl_of`: the ideal table against quaternion
products, and the one-HNF lattice intersection against the duality formula."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from a4csl import a4
from a4csl.a4 import ConsistencyError, csl_of, l_coords, l_of_ideal, phi_plus
from a4csl.icosian import ZBASIS, Icosian
from a4csl.lattice import ExactLattice, lattice_dual, lattice_intersect


def quat_ideal(q: Icosian) -> ExactLattice:
    """l_of_ideal by quaternion products, as it was computed before the table."""
    return ExactLattice.from_rows(
        [l_coords(phi_plus(q.quat * f.quat)) for f in ZBASIS])


def rational_rows(lat: ExactLattice) -> list[list[Fraction]]:
    """The basis rows of lat as rationals, basis / den."""
    return [[Fraction(x, lat.den) for x in row] for row in lat.basis]


def dual_intersect(l1: ExactLattice, l2: ExactLattice) -> ExactLattice:
    """The intersection by duality, (L1 cap L2)* = L1* + L2*."""
    union = ExactLattice.from_rows(
        rational_rows(lattice_dual(l1)) + rational_rows(lattice_dual(l2)))
    return lattice_dual(union)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_ideal_table_matches_quaternion_products(zc):
    assume(any(zc))
    q = Icosian.from_zcoords(zc)
    assert l_of_ideal(q) == quat_ideal(q)


def test_corrupted_ideal_table_entry_makes_csl_of_raise(monkeypatch):
    q = Icosian.from_zcoords((1, 1, 0, 0, 0, 0, 0, 0))
    csl_of(q)
    table = [[list(entry) for entry in row] for row in a4._ideal_table()]
    # q is its own extension, z_0 = 1, and its CSL (index 2) does not contain b_3
    table[0][0][3] += 1
    corrupted = tuple(tuple(tuple(entry) for entry in row) for row in table)
    monkeypatch.setattr(a4, "_ideal_table", lambda: corrupted)
    with pytest.raises(ConsistencyError):
        csl_of(q)


@st.composite
def rational_lattices(draw, n):
    entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n + 2))
    lat = ExactLattice.from_rows(rows)
    assume(lat.is_full_rank())
    return lat


@st.composite
def lattice_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(rational_lattices(n)), draw(rational_lattices(n))


@settings(max_examples=200, deadline=None)
@given(lattice_pairs())
def test_hnf_intersection_matches_duality(pair):
    l1, l2 = pair
    meet = lattice_intersect(l1, l2)
    assert meet == dual_intersect(l1, l2)
    assert meet.is_full_rank()
    assert all(l1.contains(row) and l2.contains(row) for row in rational_rows(meet))
