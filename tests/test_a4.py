import random
from fractions import Fraction

import pytest

from a4csl import a4
from a4csl.a4 import (
    CARTAN_A4,
    L_BASIS,
    csl_of,
    denominator_of,
    dual_lattice_gram,
    l_coords,
    l_coords_rational,
    l_of_ideal,
    l_point,
    l_rotation,
    phi_plus,
    ssl_of,
    sublattice_gram,
)
from a4csl.golden import ConsistencyError, GoldenInt, TAU
from a4csl.icosian import (
    Icosian,
    NotAdmissibleError,
    NotPrimitiveError,
    enumerate_by_trace_norm,
    norm_one_units,
    nr_zcoords,
)
from a4csl.lattice import ExactLattice, det_int, forms_equivalent
from a4csl.quaternion import Quat, RotationMatrix


def random_icosian(rng, lo=-2, hi=2):
    return Icosian.from_zcoords([rng.randint(lo, hi) for _ in range(8)])


def test_l_basis_gram_is_cartan():
    def tr(x):
        a, b = x.as_fraction_pair()
        return 2 * a + b

    gram = [[tr(L_BASIS[i].dot(L_BASIS[j])) for j in range(4)] for i in range(4)]
    assert gram == [list(map(Fraction, row)) for row in CARTAN_A4]
    for b in L_BASIS:
        assert b.twist() == b


def test_l_membership_and_coords():
    assert l_coords(Quat.of(1, 0, 0, 0)) == (1, 0, 0, 0)
    assert l_coords(Quat.of(0, 1, 0, 0)) == (0, 0, -1, 0)  # the twist fixes 1 and i
    with pytest.raises(ValueError):
        l_coords(Quat.of(0, 0, 1, 0))  # ... but swaps j and k
    rng = random.Random(301)
    for _ in range(25):
        coords = [rng.randint(-5, 5) for _ in range(4)]
        p = l_point(coords)
        assert l_coords(p) == tuple(coords)


def test_l_coords_reject_points_off_the_rational_span():
    j = Quat.of(0, 0, 1, 0)
    with pytest.raises(ValueError):
        l_coords_rational(j)
    # half a basis vector is in the span, with a fractional coordinate
    assert l_coords_rational(L_BASIS[0] / 2) == (Fraction(1, 2), 0, 0, 0)
    with pytest.raises(ValueError):
        l_coords(L_BASIS[0] / 2)


@pytest.mark.parametrize("image", [Quat.of(0, 0, 1, 0), L_BASIS[0] / 2])
def test_table_entries_off_l_name_the_entry(image):
    with pytest.raises(ConsistencyError, match="ideal table, entry"):
        a4._table_l_coords(image, "ideal table, entry (0, 2)")


def test_rotated_l_coords_are_the_l_rotation_columns():
    rng = random.Random(313)
    checked = 0
    while checked < 12:
        q = random_icosian(rng)
        if not q or not q.is_admissible():
            continue
        m, den = l_rotation(q)
        rot = q.rotation()
        for c, b in enumerate(L_BASIS):
            assert l_coords_rational(rot.apply(b)) == tuple(Fraction(m[k][c], den)
                                                             for k in range(4))
        checked += 1


def test_phi_plus_lands_in_l():
    rng = random.Random(307)
    for _ in range(25):
        x = random_icosian(rng)
        sym = phi_plus(x.quat)
        assert sym.twist() == sym
        l_coords(sym)  # raises ValueError off the lattice


def test_dual_gram():
    d = dual_lattice_gram()
    assert det_int(d) == 125
    assert all(d[i][j] == d[j][i] for i in range(4) for j in range(4))
    # 5 * inverse of the Cartan matrix: C d = 5 I
    assert all(sum(CARTAN_A4[i][k] * d[k][j] for k in range(4)) == 5 * (i == j)
               for i in range(4) for j in range(4))


def test_ssl_of_two():
    p = Icosian.from_quat(Quat.of(2, 0, 0, 0))
    sub = ssl_of(p)
    assert sub.index == 256
    assert sub.basis == tuple(tuple(4 * int(i == j) for j in range(4)) for i in range(4))


def test_ssl_is_similar_sublattice():
    rng = random.Random(311)
    done = 0
    for _ in range(200):
        if done >= 12:
            break
        p = random_icosian(rng)
        if not p:
            continue
        m = p.norm_quadruple()
        if m > 150:
            continue
        sub = ssl_of(p)
        assert sub.index == m * m
        g = sublattice_gram(sub)
        assert all(x % m == 0 for row in g for x in row)
        scaled = tuple(tuple(x // m for x in row) for row in g)
        assert forms_equivalent(scaled, CARTAN_A4)
        done += 1
    assert done >= 12


def test_csl_of_one_plus_i():
    q = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    res = csl_of(q)
    assert res.sigma == 2
    assert res.lattice.index == 2
    assert res.rotation.is_orthogonal()
    # the CSL is exactly the index-2 sublattice of points that stay on L
    # after the rotation
    for coords in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        p = l_point(coords)
        image = res.rotation.apply(p.quat)
        on_l = all(x.denominator == 1 for x in l_coords_rational(image))
        assert on_l == res.lattice.contains(coords)


def test_transposed_rotation_makes_csl_of_raise(monkeypatch):
    # the intersection route rotates L by the very matrix csl_of returns, so
    # a wrong matrix, here the inverse rotation, fails the ideal cross-check
    q = Icosian.from_zcoords((2, 1, 0, 0, 0, 0, 0, 0))
    assert csl_of(q).sigma == 5
    rotation = Icosian.rotation
    monkeypatch.setattr(Icosian, "rotation",
                        lambda self: RotationMatrix(tuple(zip(*rotation(self).entries))))
    with pytest.raises(ConsistencyError, match="ideal and intersection routes disagree"):
        csl_of(q)


def test_csl_requires_primitive_and_admissible():
    with pytest.raises(NotPrimitiveError):
        csl_of(Icosian.from_quat(Quat.of(2, 2, 0, 0)))
    shell = enumerate_by_trace_norm(5)
    bad = next(Icosian.from_zcoords(v) for v in shell if nr_zcoords(v) == GoldenInt(2, 1))
    with pytest.raises(NotAdmissibleError):
        csl_of(bad)


def test_csl_random_samples_have_sigma_index():
    rng = random.Random(313)
    done = 0
    for _ in range(400):
        if done >= 10:
            break
        q = random_icosian(rng)
        if not q or not q.is_primitive() or not q.is_admissible():
            continue
        res = csl_of(q)  # two routes agree, index == sigma (internal asserts)
        assert res.lattice.index == res.sigma
        den = denominator_of(q)
        assert res.sigma % den == 0
        assert (den * den) % res.sigma == 0
        done += 1
    assert done >= 10


def test_csl_index_can_exceed_denominator():
    # nr(q) = 29 + 24*tau is a unit multiple of pi^2 for a prime pi over 31,
    # so the matrix denominator is 31 while the coincidence index is 31^2.
    q = Icosian.from_zcoords([0, -1, -2, 2, -2, 2, 0, 2])
    assert q.norm_quadruple() == 961
    res = csl_of(q)
    assert denominator_of(q) == 31
    assert res.sigma == 961
    assert res.lattice.index == 961


def test_csl_invariant_under_right_unit_and_tau():
    rng = random.Random(317)
    units = norm_one_units()
    done = 0
    for _ in range(300):
        if done >= 6:
            break
        q = random_icosian(rng)
        if not q or not q.is_primitive() or not q.is_admissible():
            continue
        base = csl_of(q)
        for other in (q * rng.choice(units), q * TAU):
            res = csl_of(other)
            assert res.lattice == base.lattice
            assert res.sigma == base.sigma
        done += 1
    assert done >= 6


def test_denominator_examples():
    q = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    assert denominator_of(q) == 2
    assert denominator_of(q * GoldenInt(3, 0)) == 2  # scale invariant
    assert denominator_of(Icosian.from_quat(Quat.of(1, 0, 0, 0))) == 1
    shell = enumerate_by_trace_norm(5)
    v = next(Icosian.from_zcoords(w) for w in shell if nr_zcoords(w) == GoldenInt(2, 1))
    # nr(v) nr(v)' = N(2 + tau) = 5 is no square: the scale is irrational
    assert v.norm_quadruple() == 5
    with pytest.raises(NotAdmissibleError):
        denominator_of(v)


def test_l_of_ideal_full_rank():
    q = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    sub = l_of_ideal(q)
    assert len(sub.basis) == 4
    assert sub.index >= 1


def test_coord_sublattice_contains():
    sub = ExactLattice.from_rows([(2, 0, 0, 0), (0, 1, 0, 0),
                                  (0, 0, 1, 0), (0, 0, 0, 1)])
    assert sub.index == 2
    assert sub.contains((4, 1, -3, 0))
    assert not sub.contains((1, 0, 0, 0))
