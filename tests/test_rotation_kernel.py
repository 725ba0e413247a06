"""The integer conjugation kernel against the Q(sqrt 5) quaternion routes."""

import os
import random
import subprocess
import sys
import textwrap
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a4csl import a4
from a4csl.a4 import (
    CARTAN_A4,
    L_BASIS,
    ConsistencyError,
    _conjugation_matrix,
    denominator_of,
    l_coords,
    l_rotation,
    matches_quat_rotation,
    ssl_of,
)
from a4csl.icosian import (
    Icosian,
    NotAdmissibleError,
    enumerate_by_trace_norm,
    nr_zcoords,
    pair_products,
)
from a4csl.lattice import ExactLattice, det_int

import soc_reference

SRC = Path(__file__).resolve().parents[1] / "src"


def quat_rows(q: Icosian) -> tuple[tuple[int, ...], ...]:
    """L-coordinates of q b twist(q) for each b, by quaternion products."""
    qt = q.twist()
    return tuple(l_coords(q.quat * b * qt.quat) for b in L_BASIS)


def quat_denominator(q: Icosian) -> int:
    """denominator_of of an admissible q, as it was computed before the
    kernel existed."""
    content = 0
    for row in quat_rows(q):
        for x in row:
            content = gcd(content, x)
    s = isqrt(q.norm_quadruple())
    return s // gcd(s, content)


def small_primitive_icosians():
    """One of q, -q for every primitive icosian of trace norm at most 6; the
    kernel and the quaternion route are both even in q."""
    for t in range(1, 7):
        pairs = enumerate_by_trace_norm(t)
        assert not {tuple(-x for x in v) for v in pairs} & set(pairs)
        for v in pairs:
            q = Icosian.from_zcoords(v)
            if q.is_primitive():
                yield q


def sample_icosians(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        zc = tuple(rng.randint(-2, 2) for _ in range(8))
        if any(zc):
            out.append(Icosian.from_zcoords(zc))
    return out


def test_kernel_matches_quaternion_products_on_small_shells():
    shells = list(small_primitive_icosians())
    assert 2 * len(shells) == 4800  # trace norms 2..6; trace norm 1 is empty
    for q in shells:
        assert _conjugation_matrix(pair_products(q.zcoords())) == quat_rows(q), q


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 8))
def test_kernel_matches_quaternion_products_on_drawn_coordinates(zc):
    q = Icosian.from_zcoords(zc)
    assert _conjugation_matrix(pair_products(zc)) == quat_rows(q)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-5, 5)] * 8))
def test_integer_norm_matches_quaternion_norm(zc):
    q = Icosian.from_zcoords(zc)
    assert nr_zcoords(zc) == q.quat.nr().as_golden_int() == q.nr()


def test_ssl_and_denominator_match_the_quaternion_route():
    irrational = 0
    for q in sample_icosians(150, seed=5):
        assert ssl_of(q) == ExactLattice.from_rows(quat_rows(q))
        if q.is_admissible():
            assert denominator_of(q) == quat_denominator(q)
        else:
            with pytest.raises(NotAdmissibleError):
                denominator_of(q)
            irrational += 1
    assert 0 < irrational < 150  # both branches are exercised


def test_l_rotation_matches_quaternion_rotation():
    checked = 0
    for q in sample_icosians(400, seed=7):
        if not q.is_admissible():
            with pytest.raises(NotAdmissibleError):
                l_rotation(q)
            continue
        m, den = l_rotation(q)
        assert den > 0 and gcd(den, *(x for row in m for x in row)) == 1
        rot = q.rotation()
        assert matches_quat_rotation(rot, m, den)
        # independently: column c of m is den * R(b_c) in L-coordinates
        for c, b in enumerate(L_BASIS):
            assert l_coords(rot.apply(b) * den) == tuple(m[k][c] for k in range(4))
        assert den == denominator_of(q)
        checked += 1
    assert checked >= 20


def test_matches_quat_rotation_rejects_another_rotation():
    q = Icosian.from_zcoords((1, 1, 0, 0, 0, 0, 0, 0))
    m, den = l_rotation(q)
    negated = tuple(tuple(-x for x in row) for row in m)
    assert not matches_quat_rotation(q.rotation(), negated, den)


def test_corrupted_table_entry_makes_l_rotation_raise(monkeypatch):
    q = Icosian.from_zcoords((1, 1, 0, 0, 0, 0, 0, 0))
    l_rotation(q)
    table = [list(row) for row in a4._conjugation_table()]
    table[0][0] += 1  # coordinate 0 of K_00(b_0); z_0 = 1 for q
    corrupted = tuple(tuple(row) for row in table)
    monkeypatch.setattr(a4, "_conjugation_table", lambda: corrupted)
    # the packer without its cache, which holds columns of the sound table:
    # the kernel packs the corrupted one, and the cache stays sound
    monkeypatch.setattr(a4, "_packed_columns", a4._packed_columns.__wrapped__)
    with pytest.raises(ConsistencyError):
        l_rotation(q)


def test_packed_kernel_is_exact_at_its_width_bound():
    # w need not be pair products: the field width must hold span * max|w_k|
    table = a4._conjugation_table()
    r = max(range(len(table)), key=lambda i: sum(map(abs, table[i])))
    span = sum(map(abs, table[r]))
    assert span == a4._packed_columns(a4._FIELD_BITS)[0] == 33
    # both sides of each power of two that span * M can reach, to 2^200,
    # so that one bit less of width breaks some entry at any rounding
    magnitudes = {1, 2**63 - 1, 2**63, 2**63 + 1, 2**64}
    for b in range(201):
        least = -(-(1 << b) // span)  # the least M with span M >= 2^b
        magnitudes |= {least - 1, least}
    for m in sorted(magnitudes - {0}):
        for sign in (1, -1):
            # every |w_k| = m with the signs of row r: entry r is +-span m
            w = [sign * m if x >= 0 else -sign * m for x in table[r]]
            rows = soc_reference.conjugation_rows(w)
            assert rows[r // 4][r % 4] == sign * span * m
            assert _conjugation_matrix(w) == rows, m
    # the pair products of the slowest csl input below the scale cap
    w = pair_products((1677980717078, 708113534483, 0, 0, 0, 0, 0, 0))
    assert _conjugation_matrix(w) == soc_reference.conjugation_rows(w)


def reflected(rows):
    """The rows composed with the simple reflection x -> x - (x . b_0) b_0
    of A4: x_0 -> x_1 - x_0 on L-coordinates."""
    return tuple((b - a, b, c, d) for a, b, c, d in rows)


def test_reflection_preserves_the_form_with_determinant_minus_one():
    p = reflected(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert det_int(p) == -1
    pc = [[sum(p[i][k] * CARTAN_A4[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    assert all(sum(pc[i][k] * p[j][k] for k in range(4)) == CARTAN_A4[i][j]
               for i in range(4) for j in range(4))


def test_improper_rows_make_l_rotation_raise(monkeypatch):
    # R C R^T = s^2 C still holds; only det R = -s^4 tells
    q = Icosian.from_zcoords((1, 1, 0, 0, 0, 0, 0, 0))
    kernel = a4._conjugation_matrix
    monkeypatch.setattr(a4, "_conjugation_matrix", lambda w: reflected(kernel(w)))
    with pytest.raises(ConsistencyError, match="determinant"):
        l_rotation(q)


def test_one_wrong_off_diagonal_product_makes_l_rotation_raise(monkeypatch):
    # negating rows 0 and 1 keeps the diagonal of R C R^T and det R, and
    # flips the one nonzero product of row 1 with row 2
    q = Icosian.from_zcoords((1, 1, 0, 0, 0, 0, 0, 0))
    kernel = a4._conjugation_matrix

    def two_negated(w):
        r0, r1, r2, r3 = kernel(w)
        return tuple(-x for x in r0), tuple(-x for x in r1), r2, r3

    monkeypatch.setattr(a4, "_conjugation_matrix", two_negated)
    with pytest.raises(ConsistencyError, match="do not preserve the A4 form"):
        l_rotation(q)


def test_improper_rows_raise_under_optimize():
    script = textwrap.dedent("""
        import sys
        from a4csl import a4
        from a4csl.icosian import Icosian
        if not sys.flags.optimize:
            sys.exit(9)
        kernel = a4._conjugation_matrix
        a4._conjugation_matrix = lambda w: tuple(
            (b - a, b, c, d) for a, b, c, d in kernel(w))
        try:
            a4.l_rotation(Icosian.from_zcoords((1, 1, 0, 0, 0, 0, 0, 0)))
        except a4.ConsistencyError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "do not have determinant +1" in proc.stdout


def test_consistency_checks_run_under_optimize():
    script = textwrap.dedent("""
        import sys
        from a4csl import a4, cli
        if not sys.flags.optimize:
            sys.exit(9)
        whole = a4.ExactLattice.from_rows(
            [[int(i == j) for j in range(4)] for i in range(4)])
        a4._csl_by_intersection = lambda ext: whole
        sys.exit(cli.main(["csl", "1", "1", "0", "0", "0", "0", "0", "0"]))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ConsistencyError: ideal and intersection")
    assert proc.stderr.count("\n") == 1
