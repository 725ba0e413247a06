"""The single copies of the exact linear-algebra and prime helpers."""

import itertools
import math

import pytest

from a4csl import golden, icosian, lattice, oracle
from a4csl.a4 import csl_of
from a4csl.counting import f_soc
from a4csl.golden import _is_prime, factor_int
from a4csl.lattice import _divisor_tuples


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
