import random

import pytest

from a4csl.golden import GoldenInt, GoldenRat
from a4csl.quaternion import (
    Quat,
    rotation_matrix,
)


def rnd_rat(rng, bound=6):
    return GoldenRat.make(
        GoldenInt(rng.randint(-bound, bound), rng.randint(-bound, bound)),
        rng.randint(1, 4),
    )


def rnd_quat(rng, bound=6):
    return Quat(*(rnd_rat(rng, bound) for _ in range(4)))


def test_hamilton_table():
    i = Quat.of(0, 1, 0, 0)
    j = Quat.of(0, 0, 1, 0)
    k = Quat.of(0, 0, 0, 1)
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k and k * j == -i and i * k == -j
    assert i * i == j * j == k * k == -Quat.of(1, 0, 0, 0)


def test_nr_multiplicative_and_tr_linear():
    rng = random.Random(5)
    for _ in range(200):
        p, q = rnd_quat(rng), rnd_quat(rng)
        assert (p * q).nr() == p.nr() * q.nr()
        assert p * p.conj() == Quat.of(p.nr(), 0, 0, 0)


def test_twist_example():
    # twist of (1-t)/2 + (t/2)i + 0j + (1/2)k swaps and conjugates
    q = Quat(
        GoldenRat.make(GoldenInt(1, -1), 2),
        GoldenRat.make(GoldenInt(0, 1), 2),
        GoldenRat.make(GoldenInt(0, 0), 1),
        GoldenRat.make(GoldenInt(1, 0), 2),
    )
    expected = Quat(
        GoldenRat.make(GoldenInt(0, 1), 2),
        GoldenRat.make(GoldenInt(1, -1), 2),
        GoldenRat.make(GoldenInt(1, 0), 2),
        GoldenRat.make(GoldenInt(0, 0), 1),
    )
    assert q.twist() == expected


def test_twist_involution_and_antimultiplicative():
    rng = random.Random(7)
    for _ in range(300):
        p, q = rnd_quat(rng), rnd_quat(rng)
        assert p.twist().twist() == p
        assert (p * q).twist() == q.twist() * p.twist()
        assert (p + q).twist() == p.twist() + q.twist()
        assert p.twist().nr() == p.nr().conj()


def test_rotation_matrix_identity():
    m = rotation_matrix(Quat.of(1, 0, 0, 0), 1)
    for i in range(4):
        for j in range(4):
            want = GoldenRat.make(GoldenInt(int(i == j), 0), 1)
            assert m.entries[i][j] == want


def test_rotation_matrix_orthogonal_det_one():
    # q = 1 + i is twist-fixed with nr = 2, so scale = 2
    q = Quat.of(1, 1, 0, 0)
    m = rotation_matrix(q, 2)
    assert m.is_orthogonal()
    assert m.det() == GoldenRat.make(GoldenInt(1, 0), 1)
    # the image of 1 is q*1*q/2 = i
    assert m.apply(Quat.of(1, 0, 0, 0)) == Quat.of(0, 1, 0, 0)


def test_rotation_matrix_rejects_bad_scale():
    q = Quat.of(1, 1, 0, 0)
    with pytest.raises(ValueError):
        rotation_matrix(q, 3)
    with pytest.raises(ValueError):
        rotation_matrix(q, 1)


def test_rotation_preserves_norm_sampled():
    rng = random.Random(17)
    # build admissible quaternions q with rational nr by symmetrizing
    for _ in range(20):
        x = rnd_quat(rng, 3)
        q = x + x.twist()  # twist-fixed, nr rational
        if not q:
            continue
        n2 = q.nr() * q.twist().nr()
        # nr(q) is rational so the scale is nr(q) itself if integral
        nr = q.nr()
        if not nr.is_rational():
            continue
        num, den = nr.num.a, nr.den
        if den != 1:
            continue
        m = rotation_matrix(q, abs(num))
        for _ in range(5):
            v = rnd_quat(rng, 3)
            assert m.apply(v).nr() == v.nr()
