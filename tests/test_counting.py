import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl.counting import (
    _soc_closed_form_coeffs,
    check_soc_identity,
    check_ssl_identity,
    dirichlet_convolve,
    dirichlet_inverse,
    expand_multiplicative,
    f_soc,
    f_soc_values,
    f_ssl,
    f_ssl_values,
    _zeta_icosian_sparse,
    zeta_golden_coeffs,
)

SSL_KNOWN = {1: 1, 4: 6, 5: 6, 9: 11, 11: 24, 16: 26, 19: 40, 20: 36,
             25: 31, 29: 60, 31: 64, 36: 66}
SOC_KNOWN = [1, 5, 10, 20, 30, 50, 50, 80, 90, 150, 144]  # n = 1..11


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
    c = _zeta_icosian_sparse(130)
    assert c[1] == 1
    assert 4 not in c
    assert c[16] == 5
    assert c[25] == 6
    assert c[81] == 10
    assert c[121] == 24
    for n, v in c.items():
        assert v and isqrt(n) ** 2 == n


def test_dirichlet_inverse_of_ones_is_mobius():
    mu = dirichlet_inverse([0] + [1] * 10)
    assert mu[1:] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_dirichlet_convolution_with_inverse_gives_delta():
    rng = random.Random(409)
    a = [0, 1] + [rng.randint(-4, 4) for _ in range(28)]
    inv = dirichlet_inverse(a)
    conv = dirichlet_convolve(
        {n: a[n] for n in range(1, 30) if a[n]},
        {n: inv[n] for n in range(1, 30) if inv[n]},
        29,
    )
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


def test_ssl_identity_detects_corruption():
    ssl = f_ssl_values(60)

    def corrupted(m):
        return ssl[m] + (1 if m == 4 else 0)

    assert not check_ssl_identity(60, corrupted)


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
    mu = dirichlet_inverse([0] + [1] * isqrt(limit))
    factors.append({k * k: mu[k] for k in range(1, isqrt(limit) + 1) if mu[k]})
    factors.append({k * k: mu[k] * k * k for k in range(1, isqrt(limit) + 1) if mu[k]})
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
        dirichlet_inverse([0, 2, 1])
    with pytest.raises(ValueError):
        dirichlet_convolve({0: 1}, {1: 1}, 5)


def test_closed_forms_refuse_non_integer_arguments():
    # factor_int reads n through operator.index: 6.0 used to give f_ssl 0 and
    # f_soc 50, and 2.5 or 7.5 failed inside the prime test
    for f, n in ((f_ssl, 6.0), (f_soc, 6.0), (f_ssl, 2.5), (f_soc, 7.5)):
        with pytest.raises(TypeError):
            f(n)
    assert f_ssl(4) == 6 and f_soc(6) == 50
