import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl import golden, icosian
from a4csl.golden import ONE, RAT_ONE, TAU, ConsistencyError, GoldenInt, factor_int, gi_gcd
from a4csl.icosian import (
    ICOSIAN_BASIS,
    NR_A,
    NR_B,
    TRACE_GRAM2,
    ZBASIS,
    Icosian,
    NotAdmissibleError,
    NotPrimitiveError,
    enumerate_by_trace_norm,
    is_primitive_zcoords,
    norm_one_units,
    nr_zcoords,
    pair_products,
    tr_frac,
)
from a4csl.lattice import _adjugate, det_int
from a4csl.quaternion import Quat


def test_half_vector_membership():
    q = Quat.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    v = Icosian.from_quat(q)
    assert v.coords == (GoldenInt(0, 0), GoldenInt(0, 0), GoldenInt(1, 0), GoldenInt(0, 0))


def test_half_one_one_is_not_icosian():
    q = Quat.of(Fraction(1, 2), Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        Icosian.from_quat(q)


def test_half_of_a_unit_is_not_icosian():
    for u in norm_one_units():
        with pytest.raises(ValueError):
            Icosian.from_quat(u.quat / 2)
    assert Icosian.from_quat(norm_one_units()[0].quat * 2) == norm_one_units()[0] * 2


def in_basis(coords):
    """sum c_i e_i over the Z[tau] basis, in Q(sqrt 5) quaternions."""
    out = Quat.of(0, 0, 0, 0)
    for c, e in zip(coords, ICOSIAN_BASIS):
        out = out + e * c
    return out


def test_basis_coordinates_roundtrip():
    rng = random.Random(211)
    for _ in range(30):
        zc = [rng.randint(-4, 4) for _ in range(8)]
        v = Icosian.from_zcoords(zc)
        assert v.zcoords() == tuple(zc)
        assert Icosian.from_quat(v.quat) == v
        assert in_basis(v.coords) == v.quat


def test_ring_closed_under_multiplication_conj_twist():
    rng = random.Random(223)
    for _ in range(25):
        v = Icosian.from_zcoords([rng.randint(-2, 2) for _ in range(8)])
        w = Icosian.from_zcoords([rng.randint(-2, 2) for _ in range(8)])
        product = v * w  # from_quat raises if the product left the ring
        assert product.quat == v.quat * w.quat
        assert v.conj().quat == v.quat.conj()
        assert v.twist().quat == v.quat.twist()


def test_trace_gram_has_half_integral_entry():
    # the trace form has the entry 1/2, so the module keeps it doubled
    assert all(type(x) is int for row in TRACE_GRAM2 for x in row)
    assert TRACE_GRAM2[0][3] == 1
    assert all(TRACE_GRAM2[i][i] == 4 for i in range(4))
    # reference: twice Tr of the polarisation (nr(f+g) - nr(f) - nr(g)) / 2
    # over Q(sqrt 5)
    assert TRACE_GRAM2 == tuple(
        tuple(tr_frac((f.quat + g.quat).nr() - f.quat.nr() - g.quat.nr()) for g in ZBASIS)
        for f in ZBASIS)


small_zcoords = st.tuples(*[st.integers(-2, 2)] * 8)
wide_zcoords = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 8)
golden_ints = st.builds(GoldenInt, st.integers(-50, 50), st.integers(-50, 50))


@settings(max_examples=200, deadline=None)
@given(wide_zcoords, wide_zcoords, golden_ints, st.integers(-50, 50))
def test_integer_operations_match_quaternions(a, b, g, n):
    v, w = Icosian.from_zcoords(a), Icosian.from_zcoords(b)
    assert Icosian.from_quat(v.quat) == v
    assert in_basis(v.coords) == v.quat
    assert (v + w).quat == v.quat + w.quat
    assert (v - w).quat == v.quat - w.quat
    assert (-v).quat == -v.quat
    assert (v * g).quat == v.quat * g
    assert (v * n).quat == v.quat * n
    assert bool(v) == bool(v.quat)


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), "1", None])
def test_from_zcoords_rejects_non_int(bad):
    with pytest.raises(TypeError):
        Icosian.from_zcoords((1, 0, 0, 0, 0, 0, 0, bad))


@settings(max_examples=40, deadline=None)
@given(small_zcoords, small_zcoords, small_zcoords)
def test_ring_axioms(a, b, c):
    u, v, w = (Icosian.from_zcoords(z) for z in (a, b, c))
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w
    assert nr_zcoords((v * w).zcoords()) == nr_zcoords(b) * nr_zcoords(c)
    assert (v * w).twist() == w.twist() * v.twist()


def test_nr_zcoords_matches_quaternion_norm():
    rng = random.Random(227)
    for _ in range(40):
        zc = [rng.randint(-3, 3) for _ in range(8)]
        v = Icosian.from_zcoords(zc)
        assert nr_zcoords(zc) == v.quat.nr().as_golden_int()


def test_corrupted_norm_row_raises():
    # the table the module builds its norm rows from at import, with one
    # doubled component of f_0 off by one: nr(f_0) is no longer integral
    twice = [list(row) for row in icosian._TWICE]
    assert icosian._nr_entries(twice) == list(icosian._NR.values())
    twice[0][1] += 1
    with pytest.raises(ConsistencyError, match=r"reduced norm, pair \(0, 0\)"):
        icosian._nr_entries(twice)


def test_norm_rows_are_the_trace_form():
    # the shells fix Tr nr, so the tau row alone decides the reduced norm
    for (i, j), e in icosian._NR.items():
        assert e.trace() * (1 + (i == j)) == TRACE_GRAM2[i][j]
    for zc in [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 2, -1, 3)]:
        w = pair_products(zc)
        assert w == [zc[i] * zc[j] for i, j in icosian._PAIRS]
        assert nr_zcoords(zc) == GoldenInt(sum(map(mul, w, NR_A)), sum(map(mul, w, NR_B)))


def box_count_trace_norm(t):
    """Independent shell count: full box enumeration of Z^8 coordinates,
    using the doubled (integral) Gram matrix and running sums."""
    g2 = TRACE_GRAM2
    adj, det = _adjugate(g2), det_int(g2)
    bounds = []
    for i in range(8):
        # x^T g2 x = 2t bounds x_i^2 by 2t (g2^-1)_ii
        r = Fraction(2 * t * adj[i][i], det)
        b = 0
        while (b + 1) * (b + 1) <= r:
            b += 1
        bounds.append(b)

    target = 2 * t
    count = 0
    x = [0] * 8

    def rec(i, partial):
        nonlocal count
        if i == 8:
            if partial == target:
                count += 1
            return
        row = g2[i]
        for xi in range(-bounds[i], bounds[i] + 1):
            x[i] = xi
            contrib = row[i] * xi * xi + 2 * xi * sum(
                row[j] * x[j] for j in range(i))
            rec(i + 1, partial + contrib)
        x[i] = 0

    rec(0, 0)
    return count


@pytest.mark.parametrize("t", [1, 2, 3])
def test_shell_sizes_against_box_enumeration(t):
    # the enumeration returns one of each pair q, -q
    assert 2 * len(enumerate_by_trace_norm(t)) == box_count_trace_norm(t)


def test_unit_group_has_order_120():
    units = norm_one_units()
    assert len(units) == 120
    assert len({u.zcoords() for u in units}) == 120
    for u in units:
        assert u.nr() == ONE
    # closed under multiplication
    rng = random.Random(229)
    keys = {u.zcoords() for u in units}
    for _ in range(50):
        a, b = rng.choice(units), rng.choice(units)
        assert (a * b).zcoords() in keys


def test_odd_shell_is_nonempty():
    shell = enumerate_by_trace_norm(3)
    assert 2 * len(shell) == 240
    for v in shell[:10]:
        assert Icosian.from_zcoords(v).nr().trace() == 3


def test_primitivity():
    p = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    assert p.is_primitive()
    assert not (p * GoldenInt(2, 0)).is_primitive()
    assert (p * TAU).is_primitive()  # unit content survives


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=8, max_size=8))
def test_primitive_zcoords_means_unit_content(zc):
    coords = [GoldenInt(zc[i], zc[4 + i]) for i in range(4)]
    content = None
    for c in coords:
        if c:
            content = c if content is None else gi_gcd(content, c)
    expected = content is not None and content.is_unit()
    assert is_primitive_zcoords(zc) == expected
    assert Icosian.from_zcoords(zc).is_primitive() == expected


def test_extension_trivial_case():
    p = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    ext = p.extension()
    assert ext.alpha == ONE
    assert ext.sigma == 2
    assert ext.extended == p
    assert ext.twisted.quat == p.quat.twist()


def test_extension_rescales_norm_and_flips_sign():
    # q = tau*(1+i) has nr = 2*tau^2; the extension divides tau back out,
    # and because N(tau) = -1 the two rotations differ by a global sign.
    p = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    q = p * TAU
    assert q.nr() == GoldenInt(2, 2)  # 2*tau^2
    ext = q.extension()
    assert ext.sigma == 2
    assert ext.alpha == GoldenInt(-1, 1)  # tau^{-1} = tau - 1
    assert ext.extended == p
    assert ext.extended.rotation().entries == tuple(
        tuple(-e for e in row) for row in q.rotation().entries)


def test_extension_sign_preserved_when_norm_of_alpha_positive():
    p = Icosian.from_quat(Quat.of(1, 1, 0, 0))
    q = p * GoldenInt(1, 1)  # tau^2 * (1+i), alpha = tau^{-2}, N(alpha) = 1
    ext = q.extension()
    assert ext.extended == p
    assert ext.extended.rotation() == q.rotation()


def test_extension_requires_primitive():
    p = Icosian.from_quat(Quat.of(2, 2, 0, 0))
    with pytest.raises(NotPrimitiveError):
        p.extension()


def test_extension_factors_the_norm_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factor_int(n)

    monkeypatch.setattr(golden, "factor_int", counting)
    q = Icosian.from_zcoords((1000036, 1, 0, 0, 0, 0, 0, 0))
    assert q.extension().sigma == q.scale() == 1000072001297
    assert calls == [q.scale() ** 2]


def test_non_admissible_icosian():
    shell = enumerate_by_trace_norm(5)
    golden_five = GoldenInt(2, 1)  # 2 + tau, norm 5
    witnesses = [Icosian.from_zcoords(v) for v in shell if nr_zcoords(v) == golden_five]
    assert witnesses, "2 + tau must be represented by the norm form"
    v = witnesses[0]
    assert v.norm_quadruple() == 5
    assert not v.is_admissible()
    with pytest.raises(NotAdmissibleError):
        v.scale()
    with pytest.raises(NotAdmissibleError):
        v.extension()


def test_admissible_rotation_is_special_orthogonal():
    rng = random.Random(233)
    found = 0
    for _ in range(5000):
        if found >= 8:
            break
        v = Icosian.from_zcoords([rng.randint(-2, 2) for _ in range(8)])
        if not v or not v.is_admissible():
            continue
        found += 1
        r = v.rotation()
        assert r.is_orthogonal()
        assert r.det() == RAT_ONE
    assert found >= 8


def test_zbasis_is_twist_and_conj_stable():
    for f in ZBASIS:
        f.twist()  # raises if not in the ring
        f.conj()
        assert f.twist().twist() == f


def test_basis_norms():
    assert [Icosian.from_quat(b).nr() for b in ICOSIAN_BASIS] == [
        GoldenInt(1, 0), GoldenInt(1, 0), GoldenInt(1, 0), GoldenInt(1, 0)]
