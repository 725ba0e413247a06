import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl.counting import (
    _mobius_pp,
    _soc_closed_form_coeffs,
    _zeta_golden_inverse_pp,
    check_soc_identity,
    check_ssl_identity,
    dirichlet_convolve,
    expand_multiplicative,
    f_soc,
    f_soc_values,
    f_ssl,
    f_ssl_values,
    zeta_golden_coeffs,
)

SSL_KNOWN = {1: 1, 4: 6, 5: 6, 9: 11, 11: 24, 16: 26, 19: 40, 20: 36,
             25: 31, 29: 60, 31: 64, 36: 66}
SOC_KNOWN = [1, 5, 10, 20, 30, 50, 50, 80, 90, 150, 144]  # n = 1..11


def mobius(n):
    """The Moebius function by its definition, from trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_f_ssl_known_values():
    for m, expected in SSL_KNOWN.items():
        assert f_ssl(m) == expected, m


def test_f_ssl_vanishes_off_golden_norms():
    for m in (2, 3, 6, 7, 8, 10, 12, 13, 17, 18, 21):
        assert f_ssl(m) == 0, m


def test_f_soc_known_values():
    for n, expected in enumerate(SOC_KNOWN, start=1):
        assert f_soc(n) == expected, n


def test_f_soc_positive_up_to_ten_thousand():
    values = f_soc_values(10_000)
    assert all(v > 0 for v in values[1:])


def test_sieve_matches_direct_evaluation():
    ssl = f_ssl_values(400)
    soc = f_soc_values(400)
    rng = random.Random(401)
    for _ in range(40):
        n = rng.randint(1, 400)
        assert ssl[n] == f_ssl(n)
        assert soc[n] == f_soc(n)


def test_zeta_golden_coeffs():
    ak = zeta_golden_coeffs(30)
    assert ak[1] == 1
    assert ak[2] == 0  # inert, odd exponent
    assert ak[4] == 1  # inert, even exponent
    assert ak[5] == 1  # ramified
    assert ak[11] == 2  # split
    assert ak[20] == 1  # 4 * 5
    assert ak[22] == 0  # 2 * 11
    # norms <= 20 are 1, 4, 5, 9, 11 (twice), 16, 19 (twice), 20
    assert sum(ak[1:21]) == 10


def test_zeta_icosian_coeffs():
    # zeta_I(s) = zeta_K(2s) zeta_K(2s - 1) counts right ideals of the icosian
    # ring; in u = 2s it is zeta_K(u) zeta_K(u - 1), c(m) ideals of index m^2
    ak = zeta_golden_coeffs(11)
    zk = {m: c for m, c in enumerate(ak) if c}
    c = dirichlet_convolve(zk, {m: a * m for m, a in zk.items()}, 11)
    assert c == {1: 1, 4: 5, 5: 6, 9: 10, 11: 24}


def test_dirichlet_inverse_of_ones_is_mobius():
    mu = expand_multiplicative(_mobius_pp, 3000)
    assert mu[1:11] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert mu == [0] + [mobius(n) for n in range(1, 3001)]
    ones = {n: 1 for n in range(1, 3001)}
    assert dirichlet_convolve(ones, {n: x for n, x in enumerate(mu) if x}, 3000) == {1: 1}


def test_dirichlet_convolution_with_inverse_gives_delta():
    # 1/zeta_K from its Euler factors (1 - x) at 5, (1 - x)^2 at a split p
    # and (1 - x^2) at an inert p inverts zeta_K from its own
    ak = zeta_golden_coeffs(3000)
    inv = expand_multiplicative(_zeta_golden_inverse_pp, 3000)
    assert inv[1:12] == [1, 0, 0, -1, -1, 0, 0, 0, -1, 0, -2]
    conv = dirichlet_convolve({n: a for n, a in enumerate(ak) if a},
                              {n: x for n, x in enumerate(inv) if x}, 3000)
    assert conv == {1: 1}


series = st.dictionaries(st.integers(1, 60), st.integers(-3, 3), max_size=20)


@settings(max_examples=300, deadline=None)
@given(series, series, st.integers(0, 50))
def test_dirichlet_convolve_matches_double_loop(a, b, limit):
    # zero coefficients and indices above the limit are drawn on purpose
    naive: dict[int, int] = {}
    for u, x in a.items():
        for v, y in b.items():
            if u * v <= limit:
                naive[u * v] = naive.get(u * v, 0) + x * y
    assert dirichlet_convolve(a, b, limit) == {n: c for n, c in naive.items() if c}


def test_expand_multiplicative_is_multiplicative():
    vals = expand_multiplicative(lambda p, r: p + r, 200)
    rng = random.Random(419)
    for _ in range(30):
        a = rng.randint(1, 14)
        b = rng.randint(1, 14)
        from math import gcd
        if gcd(a, b) == 1:
            assert vals[a * b] == vals[a] * vals[b]


def test_ssl_identity_holds():
    assert check_ssl_identity(60)


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_ssl_identity_holds_across_the_first_square(limit):
    # the quotient zeta(2u)/zeta_K(2u) gains its second term at 4
    assert check_ssl_identity(limit)


def test_ssl_identity_detects_corruption():
    ssl = f_ssl_values(60)
    # the first and last scales, a zero of f_ssl (7), a square (16, 25) and
    # the prime-power and composite scales around them
    for bad in (1, 4, 7, 16, 25, 59, 60):
        assert not check_ssl_identity(60, lambda m: ssl[m] + (m == bad)), bad


def test_soc_identity_holds():
    assert check_soc_identity(60)


def test_soc_identity_detects_corruption():
    soc = f_soc_values(60)

    def corrupted(n):
        return soc[n] + (1 if n == 7 else 0)

    assert not check_soc_identity(60, corrupted)

    def corrupted_prime_power(n):
        return soc[n] + (1 if n == 8 else 0)

    assert not check_soc_identity(60, corrupted_prime_power)


def dense_soc_closed_form(limit):
    """The SOC closed form by sparse convolution with zeta(s) and zeta(s-2)
    written out as full coefficient dicts."""
    ak = zeta_golden_coeffs(limit)
    factors = [{n: ak[n] * n for n in range(1, limit + 1) if ak[n]},
               {5 ** k: (-1) ** k for k in range(20) if 5 ** k <= limit},
               {n: 1 for n in range(1, limit + 1)},
               {n: n * n for n in range(1, limit + 1)}]
    mu = {k: mobius(k) for k in range(1, isqrt(limit) + 1)}
    factors.append({k * k: x for k, x in mu.items() if x})
    factors.append({k * k: x * k * k for k, x in mu.items() if x})
    out = {1: 1}
    for f in factors:
        out = dirichlet_convolve(out, f, limit)
    return out


@pytest.mark.parametrize("limit", [1, 24, 25, 3000])
def test_soc_closed_form_matches_dense_convolution(limit):
    dense = dense_soc_closed_form(limit)
    assert _soc_closed_form_coeffs(limit) == [dense.get(n, 0) for n in range(limit + 1)]


def test_representable_indices_small():
    ssl = f_ssl_values(20)
    assert {m for m in range(1, 21) if ssl[m]} == {1, 4, 5, 9, 11, 16, 19, 20}


def test_bad_arguments():
    with pytest.raises(ValueError):
        f_ssl(0)
    with pytest.raises(ValueError):
        f_soc(-3)
    with pytest.raises(ValueError):
        check_ssl_identity(0)
    with pytest.raises(ValueError):
        expand_multiplicative(_mobius_pp, 0)
    with pytest.raises(ValueError):
        dirichlet_convolve({0: 1}, {1: 1}, 5)


def test_closed_forms_refuse_non_integer_arguments():
    # factor_int reads n through operator.index: 6.0 used to give f_ssl 0 and
    # f_soc 50, and 2.5 or 7.5 failed inside the prime test
    for f, n in ((f_ssl, 6.0), (f_soc, 6.0), (f_ssl, 2.5), (f_soc, 7.5)):
        with pytest.raises(TypeError):
            f(n)
    assert f_ssl(4) == 6 and f_soc(6) == 50
