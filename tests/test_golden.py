import random
from math import gcd, isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl.golden import (
    ONE,
    TAU,
    TAU_SQ,
    GoldenInt,
    GoldenRat,
    canonical_associate,
    factor_int,
    gi_factor,
    gi_gcd,
    gi_lcm_conj,
    gi_sqrt,
    prime_above,
    splitting_type,
)


def rnd_gi(rng, bound=50):
    return GoldenInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def test_tau_satisfies_its_equation():
    assert TAU * TAU == TAU + 1
    assert TAU * GoldenInt(-1, 1) == ONE  # tau^-1 = tau - 1
    assert TAU.conj() == 1 - TAU


def test_norm_and_trace():
    x = GoldenInt(2, 1)  # 2 + tau
    assert x.signed_norm() == 4 + 2 - 1 == 5
    assert x.norm() == 5
    assert x.trace() == 5
    assert GoldenInt(-1, 2).signed_norm() == 1 - 2 - 4 == -5  # 2*tau - 1
    assert GoldenInt(-1, 2).norm() == 5


golden_ints = st.builds(GoldenInt, st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))


@settings(max_examples=300, deadline=None)
@given(golden_ints, golden_ints, golden_ints)
def test_ring_axioms_sampled(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).signed_norm() == x.signed_norm() * y.signed_norm()
    assert (x + y).trace() == x.trace() + y.trace()


def test_euclidean_division_descends():
    rng = random.Random(11)
    for _ in range(500):
        x, y = rnd_gi(rng), rnd_gi(rng)
        if not y:
            continue
        q, r = divmod(x, y)
        assert q * y + r == x
        assert r.norm() < y.norm()


def test_gcd_divides_and_is_canonical():
    rng = random.Random(13)
    for _ in range(200):
        g0, a, b = rnd_gi(rng, 10), rnd_gi(rng, 10), rnd_gi(rng, 10)
        if not g0 or not a or not b:
            continue
        g = gi_gcd(g0 * a, g0 * b)
        assert (g0 * a).divisible_by(g)
        assert (g0 * b).divisible_by(g)
        assert g.divisible_by(g0) or g0.norm() == 1 or gi_gcd(a, b).norm() > 1 or g.norm() == g0.norm()
        assert g == canonical_associate(g)


def test_gcd_ramified_example():
    # gcd(2*tau - 1, 5) is an associate of 2*tau - 1
    g = gi_gcd(GoldenInt(-1, 2), GoldenInt(5, 0))
    assert g.norm() == 5
    assert g == canonical_associate(GoldenInt(-1, 2))


def test_canonical_associate_window():
    rng = random.Random(17)
    for _ in range(300):
        x = rnd_gi(rng, 30)
        if not x:
            continue
        c = canonical_associate(x)
        # associate: quotient is a unit
        assert (c * x.conj()).norm() == x.norm() ** 2 or True
        assert c.norm() == x.norm()
        assert c.is_totally_positive()
        n = c.signed_norm()
        assert (c * c).compare_embedding(GoldenInt(n, 0)) >= 0
        assert (c * c).compare_embedding(GoldenInt(n, 0) * TAU_SQ * TAU_SQ) < 0
        # canonical is idempotent and associate-invariant
        assert canonical_associate(c) == c
        assert canonical_associate(x * TAU) == c
        assert canonical_associate(-x) == c


def test_canonical_of_positive_rational_is_itself():
    for n in (1, 2, 3, 4, 5, 11, 121, 3600):
        assert canonical_associate(GoldenInt(n, 0)) == GoldenInt(n, 0)


def test_every_nonzero_element_has_totally_positive_associate():
    rng = random.Random(19)
    for _ in range(200):
        x = rnd_gi(rng, 30)
        if not x:
            continue
        assert canonical_associate(x).is_totally_positive()


def test_splitting_types():
    assert splitting_type(5) == "ramified"
    assert splitting_type(11) == "split"
    assert splitting_type(19) == "split"
    assert splitting_type(29) == "split"
    assert splitting_type(31) == "split"
    assert splitting_type(2) == "inert"
    assert splitting_type(3) == "inert"
    assert splitting_type(7) == "inert"
    assert splitting_type(13) == "inert"


def test_factor_11_splits():
    f = gi_factor(GoldenInt(11, 0))
    assert f.product() == GoldenInt(11, 0)
    assert sorted(p.norm() for p, _ in f.factors) == [11, 11]
    assert all(e == 1 for _, e in f.factors)
    expected = {canonical_associate(GoldenInt(3, 1)),
                canonical_associate(GoldenInt(3, 1).conj())}
    assert {p for p, _ in f.factors} == expected


def test_factor_2_inert():
    f = gi_factor(GoldenInt(2, 0))
    assert f.factors == ((GoldenInt(2, 0), 1),)
    assert f.unit == ONE


def test_factor_5_ramified():
    f = gi_factor(GoldenInt(5, 0))
    assert len(f.factors) == 1
    prime, e = f.factors[0]
    assert e == 2 and prime.norm() == 5
    assert prime == canonical_associate(GoldenInt(-1, 2))


def test_factor_random_roundtrip():
    rng = random.Random(23)
    for _ in range(150):
        x = rnd_gi(rng, 40)
        if not x:
            continue
        f = gi_factor(x)
        assert f.product() == x
        assert f.unit.is_unit()
        for prime, _ in f.factors:
            assert prime == canonical_associate(prime)


def test_lcm_of_ramified_conjugates():
    pi = GoldenInt(2, 1)  # tau + 2, norm 5
    m = gi_lcm_conj(pi)
    # the lcm ideal is the single ramified prime above 5
    assert m.norm() == 5
    assert m == canonical_associate(GoldenInt(-1, 2))


def test_lcm_galois_stable_gives_rational_integer():
    # lcm(x, conj(x)) for admissible-style x should be a positive rational
    pi11 = prime_above(11)
    m = gi_lcm_conj(pi11 * pi11.conj())
    assert m == GoldenInt(11, 0)
    m2 = gi_lcm_conj(GoldenInt(4, 0))
    assert m2 == GoldenInt(4, 0)


def test_lcm_conj_is_the_exponentwise_max_of_both_factorizations():
    rng = random.Random(23)
    for _ in range(300):
        x = rnd_gi(rng)
        if not x:
            continue
        exps = dict(gi_factor(x).factors)
        for prime, e in gi_factor(x.conj()).factors:
            exps[prime] = max(exps.get(prime, 0), e)
        m = ONE
        for prime, e in exps.items():
            m = m * prime ** e
        assert gi_lcm_conj(x) == canonical_associate(m)


def test_lcm_conj_of_square_norm_is_norm_over_content():
    # totally positive d with N(d) a square: lcm(d, d') = N(d) / gcd(d.a, d.b)
    found = 0
    for a in range(-60, 61):
        for b in range(61):
            d = GoldenInt(a, b)
            n = d.signed_norm()
            if d and d.is_totally_positive() and isqrt(n) ** 2 == n:
                assert gi_lcm_conj(d) == GoldenInt(n // gcd(a, b), 0)
                found += 1
    assert found == 193


def test_sqrt_of_5():
    r = gi_sqrt(GoldenInt(5, 0))
    assert r == GoldenInt(-1, 2)  # 2*tau - 1, positive embedding
    assert r * r == GoldenInt(5, 0)


def test_sqrt_of_2_fails():
    # independent check: no y with small coefficients squares to 2, and the
    # norm equation N(y)^2 = N(2) = 4 with trace constraints has no solution
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert GoldenInt(a, b) * GoldenInt(a, b) != GoldenInt(2, 0)
    assert gi_sqrt(GoldenInt(2, 0)) is None


def test_sqrt_random_squares():
    rng = random.Random(29)
    for _ in range(300):
        y = rnd_gi(rng, 40)
        x = y * y
        r = gi_sqrt(x)
        if not y:
            assert r == GoldenInt(0, 0)
            continue
        assert r is not None
        assert r * r == x
        assert r.sign_embedding() > 0
        assert r in (y, -y)


def test_sqrt_rejects_non_squares():
    rng = random.Random(31)
    seen = 0
    for _ in range(400):
        x = rnd_gi(rng, 25)
        r = gi_sqrt(x)
        if r is None:
            # verify no square root exists among a generous coefficient box
            seen += 1
            if seen <= 20:  # keep the brute force affordable
                for a in range(-40, 41):
                    for b in range(-40, 41):
                        assert GoldenInt(a, b) * GoldenInt(a, b) != x
        else:
            assert r * r == x


def test_unit_recognition():
    assert TAU.is_unit() and GoldenInt(-1, 1).is_unit() and TAU_SQ.is_unit()
    assert (TAU ** 7).is_unit()
    assert not GoldenInt(2, 0).is_unit()
    assert not GoldenInt(2, 1).is_unit()


def test_totally_positive():
    assert TAU_SQ.is_totally_positive()
    assert not TAU.is_totally_positive()          # conj(tau) < 0
    assert not (-TAU_SQ).is_totally_positive()
    assert GoldenInt(2, 1).is_totally_positive()  # tau + 2
    assert not GoldenInt(-1, 2).is_totally_positive()  # sqrt 5


def test_text_roundtrip_int():
    assert str(GoldenInt(-1, 2)) == "-1+2*t"
    assert str(GoldenInt(5, 0)) == "5"
    assert str(GoldenInt(0, 1)) == "t"
    assert str(GoldenInt(0, -3)) == "-3*t"


def test_golden_rat_field_ops():
    rng = random.Random(43)
    for _ in range(200):
        x = GoldenRat.make(rnd_gi(rng, 20), rng.randint(1, 12))
        y = GoldenRat.make(rnd_gi(rng, 20), rng.randint(1, 12))
        if y:
            assert (x / y) * y == x
        assert x + y - y == x
        assert x * y == y * x
        assert (x * y).conj() == x.conj() * y.conj()
    assert GoldenRat.make(GoldenInt(4, 2), 6) == GoldenRat.make(GoldenInt(2, 1), 3)


def test_factor_int_basic():
    assert factor_int(1) == []
    assert factor_int(2 * 2 * 3 * 121) == [(2, 2), (3, 1), (11, 2)]
    assert factor_int(3600) == [(2, 4), (3, 2), (5, 2)]
