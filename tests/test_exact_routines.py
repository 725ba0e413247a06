"""The single copies of the exact linear-algebra and prime helpers: one
determinant over Z and Z[tau], one adjugate pass, one Euclidean division in
Z[tau], the square root from its norm-trace identity, and one HNF pass that
also decides lattice membership."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl import a4, golden, icosian, lattice, oracle
from a4csl.a4 import csl_of
from a4csl.counting import f_soc
from a4csl.golden import RAT_ONE, RAT_ZERO, GoldenInt, GoldenRat, _is_prime, factor_int, gi_sqrt
from a4csl.lattice import ExactLattice, _adjugate, _divisor_tuples, det_int, hnf, lattice_dual


def det4_cofactor(m):
    """The 4x4 cofactor expansion over Q(sqrt 5) that `RotationMatrix.det`
    used before it went through `det_int`, kept as the reference."""
    def det3(r):
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    total = RAT_ZERO
    sign = 1
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        term = m[0][col] * det3(minor)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def cofactor_adjugate(m):
    """adj(m)[i][j] = (-1)^(i+j) det(m without row j and column i): the n^2
    cofactor determinants `lattice._adjugate` ran before its one Bareiss
    pass, kept as the reference."""
    n = len(m)
    return [[(-1) ** (i + j) * det_int([list(r[:i]) + list(r[i + 1:])
                                        for k, r in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def in_echelon_span(basis, v):
    """Whether the integer vector v is an integer combination of the rows
    of an echelon basis: the reduction `ExactLattice.contains` ran before it
    went through `hnf`, kept as the reference."""
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[lead], row[lead])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def golden_box(bound):
    return [GoldenInt(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)]


@pytest.mark.parametrize("n, k", [(12, 4), (36, 3), (625, 4), (360, 2), (1, 3)])
def test_divisor_tuples_sorted_and_shared(n, k):
    assert oracle._divisor_tuples is lattice._divisor_tuples
    tuples = list(_divisor_tuples(n, k))
    assert tuples == sorted(set(tuples))
    assert all(math.prod(t) == n for t in tuples)
    if n <= 36:
        brute = [t for t in itertools.product(range(1, n + 1), repeat=k) if math.prod(t) == n]
        assert tuples == brute


def test_primes_through_41_are_prime():
    small = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
    assert [p for p in range(60) if _is_prime(p)] == small
    assert factor_int(41) == [(41, 1)]


def test_strong_pseudoprime_to_bases_through_37_is_factored():
    p, q = 399165290221, 798330580441
    n = p * q
    assert n == 318665857834031151167461
    assert not _is_prime(n)
    assert factor_int(n) == [(p, 1), (q, 1)]
    assert f_soc(n) == f_soc(p) * f_soc(q)


def test_strong_pseudoprime_to_bases_through_41_is_refused():
    n = 3317044064679887385961981
    assert n == 1287836182261 * 2575672364521
    assert pow(43, n - 1, n) != 1  # base 43 proves it composite
    with pytest.raises(ValueError):
        _is_prime(n)
    with pytest.raises(ValueError):
        factor_int(n)


def test_trial_division_leaves_large_prime_factors_exact():
    # no factor below 10^6: the whole trial-division range is walked
    p, q = 1000003, 1000033
    assert factor_int(p * q) == [(p, 1), (q, 1)]
    assert factor_int(2**61 - 1) == [(2**61 - 1, 1)]
    # factors on both sides of the trial-division bound 2^20
    below, above = 1048573, 1048583
    assert _is_prime(below) and _is_prime(above)
    assert factor_int(below**2 * above) == [(below, 2), (above, 1)]
    assert factor_int(-(2**5) * 3**4 * 1048571) == [(2, 5), (3, 4), (1048571, 1)]


def test_factor_int_matches_naive_trial_division():
    def naive(n):
        out, p = [], 2
        while n > 1:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            if k:
                out.append((p, k))
            p += 1
        return out

    for n in range(1, 3000):
        assert factor_int(n) == naive(n)


def test_square_cofactors_are_split_without_rho(monkeypatch):
    def no_rho(n):
        raise AssertionError(f"rho ran on {n}")

    monkeypatch.setattr(golden, "_pollard_rho", no_rho)
    s = 1000072001297  # prime, the scale of the icosian (1000036, 1, 0, ..., 0)
    assert _is_prime(s)
    assert factor_int(s**2) == [(s, 2)]
    assert factor_int(9 * s**4) == [(3, 2), (s, 4)]
    # that icosian's CSL factors s^2 once, for lcm(nr, nr')
    assert csl_of(icosian.Icosian.from_zcoords((1000036, 1, 0, 0, 0, 0, 0, 0))).sigma == s


def test_large_cofactors_still_factor_when_decidable():
    mersenne = 2**61 - 1
    assert factor_int(mersenne) == [(mersenne, 1)]
    # above the deterministic bound, but the bases prove it composite
    assert factor_int(mersenne * (2**31 - 1)) == [(2**31 - 1, 1), (mersenne, 1)]


def test_det_int_over_golden_ints_matches_cofactor_expansion():
    rng = random.Random(401)
    singular = 0
    for trial in range(300):
        m = [[GoldenInt(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
             for _ in range(4)]
        if trial % 7 == 0:
            m[0][0] = GoldenInt(0, 0)  # a zero first pivot needs a row swap
        if trial % 3 == 0:
            # the last row a Z[tau] combination of two others
            g = GoldenInt(rng.randint(-3, 3), rng.randint(-3, 3))
            h = GoldenInt(1, rng.randint(-2, 2))
            m[3] = [g * x + h * y for x, y in zip(m[0], m[rng.randint(1, 2)])]
        d = det_int(m)
        assert GoldenRat.make(d) == det4_cofactor(m)
        singular += not d
    assert singular >= 100


def test_rotation_det_matches_cofactor_expansion():
    rng = random.Random(409)
    found = 0
    while found < 12:
        v = icosian.Icosian.from_zcoords([rng.randint(-2, 2) for _ in range(8)])
        if not v or not v.is_admissible():
            continue
        found += 1
        r = v.rotation()
        assert r.det() == det4_cofactor(r.entries) == RAT_ONE
        d = math.lcm(*(x.den for row in r.entries for x in row))
        nums = [[x.num * (d // x.den) for x in row] for row in r.entries]
        assert GoldenRat.make(det_int(nums)) == det4_cofactor(nums) == GoldenRat.make(d ** 4)


@st.composite
def square_matrices(draw):
    """Integer n x n matrices, 1 <= n <= 8; every third one or so has a zero
    leading entry, which needs a row swap, and as many have a row that is
    an integer combination of two others, so they are singular."""
    n = draw(st.integers(1, 8))
    m = [draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = 0
    if n >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_adjugate_is_the_cofactor_adjugate(m):
    d = det_int(m)
    if not d:
        with pytest.raises(ValueError, match="singular"):
            _adjugate(m)
        return
    adj = _adjugate(m)
    scalar = [[d * (i == j) for j in range(len(m))] for i in range(len(m))]
    assert matmul(adj, m) == matmul(m, adj) == scalar
    assert adj == cofactor_adjugate(m)


def test_adjugate_refuses_singular_and_non_integer_input():
    # rank n - 1: the cofactors are not all zero, but the pass has no pivot
    assert cofactor_adjugate([[1, 2], [2, 4]]) == [[4, -2], [-2, 1]]
    for singular in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 1, 2], [0, 3, 6], [5, 6, 7]]):
        with pytest.raises(ValueError, match="singular"):
            _adjugate(singular)
    with pytest.raises(ValueError, match="non-square"):
        _adjugate([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        _adjugate([[Fraction(1, 2), 0], [0, 1]])
    # a singular Gram has no dual; it used to come back with denominator 0
    z2 = ExactLattice.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        lattice_dual(z2, [[1, 1], [1, 1]])


def test_every_adjugate_in_the_package_is_of_a_nonsingular_matrix():
    # the four callers: _ZMAP, the L-basis block, the Cartan matrix in
    # dual_lattice_gram, and lattice_dual on a full-rank lattice and Gram
    for m in (icosian._ZMAP, a4._L_BLOCK, a4.CARTAN_A4):
        assert det_int(m) != 0
        assert _adjugate(m) == cofactor_adjugate(m)
    assert det_int(a4.dual_lattice_gram()) == 125


def test_golden_division_operators_agree_with_divmod():
    box = golden_box(6)
    for y in box:
        for x in box:
            if not y:
                for op in (divmod, lambda a, b: a // b, lambda a, b: a % b,
                           GoldenInt.exact_div):
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                assert x.divisible_by(y) == (not x) == x.divisible_by(0)
                continue
            q, r = divmod(x, y)
            assert (x // y, x % y) == (q, r)
            assert q * y + r == x and r.norm() < y.norm()
            assert x.divisible_by(y) == (not r)
            if r:
                with pytest.raises(ValueError):
                    x.exact_div(y)
            else:
                assert x.exact_div(y) == q
    assert GoldenInt(6, 4) // 2 == GoldenInt(3, 2)
    assert GoldenInt(6, 4).divisible_by(2) and not GoldenInt(6, 3).divisible_by(2)


def test_gi_sqrt_of_every_square_in_a_box():
    for y in golden_box(30):
        r = gi_sqrt(y * y)
        if not y:
            assert r == GoldenInt(0, 0)
            continue
        assert r in (y, -y) and r.sign_embedding() > 0
    for c in range(1, 200):
        # x = 5c^2, the one case where y + conj(y) = 0
        assert gi_sqrt(5 * c * c) == GoldenInt(-c, 2 * c)


def test_gi_sqrt_rejects_non_squares():
    # a prime times a nonzero square is not a square; tau^2 times one is
    for y in golden_box(8):
        if not y:
            continue
        for p in (GoldenInt(2, 0), GoldenInt(3, 0), GoldenInt(2, 1), GoldenInt(-1, 2)):
            assert gi_sqrt(p * y * y) is None
        assert gi_sqrt(golden.TAU_SQ * y * y) in (golden.TAU * y, -golden.TAU * y)


def random_rows(rng):
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    return [[rng.randint(-9, 9) if rng.random() < 0.8 else 0 for _ in range(nc)]
            for _ in range(nr)]


def test_hnf_is_reduced_echelon_and_spans_its_input():
    rng = random.Random(419)
    for _ in range(2000):
        rows = random_rows(rng)
        h = hnf(rows)
        leads = [next(j for j, x in enumerate(row) if x) for row in h]
        assert leads == sorted(set(leads))
        for k, (row, lead) in enumerate(zip(h, leads)):
            assert row[lead] > 0
            assert all(0 <= h[i][lead] < row[lead] for i in range(k))
        assert all(in_echelon_span(h, row) for row in rows)
        assert hnf(h) == h


def test_contains_matches_echelon_reduction():
    rng = random.Random(421)
    outsiders = 0
    for _ in range(300):
        rows = random_rows(rng)
        den = rng.randint(1, 4)
        lat = ExactLattice.from_rows([[Fraction(x, den) for x in row] for row in rows])
        n = lat.ambient_dim
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in lat.basis]
            v = [Fraction(sum(c * row[j] for c, row in zip(coeffs, lat.basis)), lat.den)
                 for j in range(n)]
            assert lat.contains(v)
            w = [Fraction(rng.randint(-9, 9), rng.choice((1, den, 2 * den))) for _ in range(n)]
            want = all(x.denominator == 1 for x in (y * lat.den for y in w)) and in_echelon_span(
                lat.basis, [int(y * lat.den) for y in w])
            assert lat.contains(w) == want
            outsiders += not want
    assert outsiders > 1000
    # half the first basis vector lies outside every lattice it generates
    lat = ExactLattice.from_rows([(2, 0, 1), (0, 3, 0)])
    assert not lat.contains((1, 0, Fraction(1, 2)))
