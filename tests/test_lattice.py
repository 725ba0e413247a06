import random
from fractions import Fraction
from math import prod

import pytest

from a4csl.lattice import (
    ExactLattice,
    det_int,
    forms_equivalent,
    hnf,
    lattice_dual,
    lattice_intersect,
    lll_reduce_gram,
    short_vectors,
    _walk,
)
from ssl_reference import enumerate_sublattices

CARTAN = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_hnf_known_example():
    rows = [(4, 0), (1, 1)]
    assert hnf(rows) == ((1, 1), (0, 4))
    # and a rank-deficient one: the zero row disappears
    assert hnf([(2, 4), (1, 2), (3, 6)]) == ((1, 2),)


def test_hnf_invariant_under_row_ops():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_int(rows) == 0:
            continue
        u = random_unimodular(rng, n)
        mixed = [[sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        assert hnf(rows) == hnf(mixed)


def test_hnf_canonical_shape():
    rng = random.Random(103)
    for _ in range(30):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        h = hnf(rows)
        assert hnf(h) == h
        leads = []
        for row in h:
            lead = next(j for j, x in enumerate(row) if x)
            assert row[lead] > 0
            leads.append(lead)
        assert leads == sorted(leads)


def test_det_int_matches_cofactor_expansion():
    def cof(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * cof([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    rng = random.Random(107)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == cof(m)


def test_hnf_refuses_non_integer_entries():
    # the rows span ((1, 10), (0, 30)) / 10, which only ExactLattice can hold
    for rows in ([[0.1, 1], [0.3, 0]], [[Fraction(1, 10), 1], [Fraction(3, 10), 0]],
                 [[2.0, 0], [0, 1]]):
        with pytest.raises(TypeError):
            hnf(rows)
    lat = ExactLattice.from_rows([[Fraction(1, 10), 1], [Fraction(3, 10), 0]])
    assert (lat.basis, lat.den) == (((1, 10), (0, 30)), 10)


@pytest.mark.parametrize("rows", [[[1], [2, 3]], [[0, 0], [1]], [[1, 2], [3]], [[1, 2], []]],
                         ids=["short-first", "zero-first", "short-last", "empty-last"])
def test_hnf_refuses_rows_of_unequal_length(rows):
    # as det_int and ExactLattice.from_rows do: the first two used to return
    # ((1,),), dropping entries, and the third raised IndexError
    with pytest.raises(ValueError):
        hnf(rows)


@pytest.mark.parametrize("entry", [1.5, 2.0, "2"], ids=["float", "integral-float", "str"])
@pytest.mark.parametrize("call", [
    lambda x: ExactLattice.from_rows([[x, 0], [0, 1]]),
    lambda x: ExactLattice.from_rows([[Fraction(1, 2), 0], [0, x]]),
    lambda x: ExactLattice.from_rows([[1, 0], [0, 1]]).contains([x, 0]),
], ids=["from_rows", "from_rows-with-a-fraction", "contains"])
def test_exact_lattice_refuses_entries_other_than_int_and_fraction(call, entry):
    # as hnf and det_int do; an integral float is refused too
    with pytest.raises(TypeError):
        call(entry)


def test_det_int_refuses_non_integer_entries():
    # Bareiss floor division would round these: the true values are -0.75 and -0.02
    for m in ([[0.5, 1], [1, 0.5]], [[0.1, 0.2], [0.3, 0.4]], [[Fraction(1, 2), 1], [1, 1]],
              [[1.0]]):
        with pytest.raises(TypeError):
            det_int(m)


def test_det_cartan_is_five():
    assert det_int(CARTAN) == 5


def test_index_two_sublattices_of_z4():
    subs = list(enumerate_sublattices(4, 2))
    assert len(subs) == 15  # one per index-2 subgroup of (Z/2)^4
    assert len(set(subs)) == 15
    for h in subs:
        assert det_int(h) == 2
        assert hnf(h) == h


def c_rank(n, rank):
    # number of index-n sublattices of Z^rank by Dirichlet-series recursion:
    # c_r = c_{r-1} * Id^{r-1}, c_1 = 1
    if rank == 1:
        return 1
    return sum(c_rank(d, rank - 1) * (n // d) ** (rank - 1)
               for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_sublattice_counts_match_recursion(rank):
    for n in range(1, 61 if rank == 2 else 25):
        got = sum(1 for _ in enumerate_sublattices(rank, n))
        assert got == c_rank(n, rank), (rank, n)


def test_exact_lattice_contains_and_canonical():
    lat = ExactLattice.from_rows([(2, 0), (0, 3)])
    assert lat.contains((4, 3))
    assert not lat.contains((1, 0))
    assert not lat.contains((2, Fraction(3, 2)))
    with pytest.raises(ValueError):
        lat.contains((2, 0, 1))  # a longer vector is not cut to the dimension
    same = ExactLattice.from_rows([(2, 3), (2, -3), (4, 3)])
    assert same == lat


def test_dual_of_dual_returns_original():
    rng = random.Random(109)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)]
        try:
            lat = ExactLattice.from_rows(rows)
        except ValueError:
            continue
        if not lat.is_full_rank():
            continue
        assert lattice_dual(lattice_dual(lat)) == lat


def test_dual_with_gram():
    # dual of the A4 root lattice w.r.t. its own Gram has index 5 over it
    z4 = ExactLattice.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    dual = lattice_dual(z4, CARTAN)
    assert lattice_intersect(z4, dual) == z4
    # the covolume of dual is prod(diagonal) / den^4 = 1/5
    assert prod(row[i] for i, row in enumerate(dual.basis)) * 5 == dual.den ** 4


def test_intersection_properties():
    rng = random.Random(113)
    for _ in range(15):
        r1 = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        r2 = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if det_int(r1) == 0 or det_int(r2) == 0:
            continue
        l1 = ExactLattice.from_rows(r1)
        l2 = ExactLattice.from_rows(r2)
        meet = lattice_intersect(l1, l2)
        for row in meet.basis:
            assert l1.contains(row) and l2.contains(row)
        # spot-check maximality on small vectors
        for _ in range(25):
            v = [rng.randint(-6, 6) for _ in range(3)]
            if l1.contains(v) and l2.contains(v):
                assert meet.contains(v)


def test_intersection_of_scaled_copies():
    z2 = ExactLattice.from_rows([(1, 0), (0, 1)])
    l2 = ExactLattice.from_rows([(2, 0), (0, 2)])
    l3 = ExactLattice.from_rows([(3, 0), (0, 3)])
    assert lattice_intersect(l2, l3) == ExactLattice.from_rows([(6, 0), (0, 6)])
    half = ExactLattice.from_rows([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
    assert lattice_intersect(half, z2) == z2


def test_a4_has_twenty_roots():
    pairs = list(short_vectors(CARTAN, 2))
    norms = [n for _, n in pairs]
    assert all(n in (1, 2) for n in norms)
    assert sum(1 for n in norms if n == 2) == 10  # 20 roots as +- pairs
    assert sum(1 for n in norms if n == 1) == 0
    # independent box check
    count = 0
    rng = range(-3, 4)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    x = (a, b, c, d)
                    q = sum(x[i] * CARTAN[i][j] * x[j] for i in range(4) for j in range(4))
                    if q == 2:
                        count += 1
    assert count == 20


def test_short_vectors_one_per_sign_pair():
    seen = set()
    for v, _ in short_vectors(CARTAN, 6):
        assert v not in seen
        neg = tuple(-c for c in v)
        assert neg not in seen
        seen.add(v)
        last = next(c for c in reversed(v) if c)
        assert last > 0


def test_short_vectors_half_integral_gram():
    # the hexagonal form with minimum 1, doubled to an integer Gram
    g = ((2, 1), (1, 2))
    pairs = list(short_vectors(g, 2))
    assert len(pairs) == 3
    assert all(type(n) is int and n == 2 for _, n in pairs)


def test_theta_counts_cartan():
    # one walk to the largest diagonal entry gives the vectors of each norm in
    # walk order; their numbers are the theta counts, 10 pairs of norm 2 for A4
    assert _walk(CARTAN, 2) == {2: [v for v, _ in short_vectors(CARTAN, 2)]}
    assert {k: len(v) for k, v in _walk(CARTAN, 4).items()} == {2: 10, 4: 15}


# the one Gram gate: not symmetric, not square, not integral
BAD_GRAMS = [(((2, 5), (0, 2)), ValueError),
             (((2, 1), (1,)), ValueError),
             (((2.0, 1.0), (1.0, 2.0)), TypeError)]
HEXAGONAL = ((2, 1), (1, 2))


@pytest.mark.parametrize("gram, error", BAD_GRAMS, ids=["asymmetric", "ragged", "float"])
@pytest.mark.parametrize("call", [
    lambda g: list(short_vectors(g, 2)),
    lll_reduce_gram,
    lambda g: forms_equivalent(g, HEXAGONAL),
    lambda g: forms_equivalent(HEXAGONAL, g),
], ids=["short_vectors", "lll_reduce_gram", "forms_equivalent", "forms_equivalent_target"])
def test_gram_gate_refuses_bad_grams(call, gram, error):
    # with the hexagonal target cached, a float copy of it must still be refused
    assert forms_equivalent(HEXAGONAL, HEXAGONAL)
    with pytest.raises(error):
        call(gram)


def test_forms_equivalent_under_unimodular_change():
    rng = random.Random(127)
    for _ in range(10):
        u = random_unimodular(rng, 4)
        g = [[sum(u[k][i] * CARTAN[k][l] * u[l][j] for k in range(4) for l in range(4))
              for j in range(4)] for i in range(4)]
        assert forms_equivalent(CARTAN, g)
        assert forms_equivalent(g, CARTAN)


def test_forms_inequivalent_same_determinant():
    other = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 5))
    assert det_int(other) == 5
    assert not forms_equivalent(CARTAN, other)


def test_forms_equivalent_determinant_mismatch_raises():
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        forms_equivalent(CARTAN, eye)
