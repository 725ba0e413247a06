"""The A4 root lattice inside the icosian ring, its similar sublattices
(SSLs) and coincidence site lattices (CSLs).

The twist-fixed icosians form a copy of the A4 root lattice once the
ambient bilinear form is taken to be Tr(x . y).  Conjugation by an
icosian q, x -> q x twist(q), preserves that fixed space, and this
module turns the algebra into explicit integer sublattices of A4, each an
`ExactLattice` in integer L-basis coordinates (den == 1):

* `ssl_of` maps an icosian to the similar sublattice q L twist(q),
* `csl_of` maps a primitive admissible icosian to its coincidence site
  lattice L(q), computed two independent ways (the twist-symmetrised
  right ideal, and the literal intersection L with R(q)L) which are
  checked against each other on every call,
* `denominator_of` computes the exact denominator of the induced
  orthogonal matrix, which is irrational precisely when nr(q) nr(q)' is
  not a perfect square,
* `l_rotation` gives that rotation as an integer matrix in the L basis over
  its denominator, the canonical form the rotation counts work with.

L-coordinates are read from Z^8 coordinates through the integer inverse of
a unimodular block of the L basis's Z^8 rows, and checked against all eight.
`ssl_of`, `denominator_of` and `l_rotation` read q x twist(q) on L from one
integer table that is quadratic in the Z^8 coordinates of q, so they do no
Q(sqrt 5) arithmetic per icosian.  `_conjugation_matrix` evaluates it as
one dot product of the 36 pair products w with the table's columns, each
packed into one integer of 16 fields of B bits, biased by 2^(B-1).  Every
entry is at most span max|w_k| in absolute value (span the table's largest
absolute row sum), and each call takes 2^(B-1) above that bound, so each
biased field lies in [0, 2^B) and reads back exactly.  The ideal route of
`csl_of` reads its generators from a second integer table (`_ideal_table`),
linear in those coordinates.  Its independent intersection route builds
the one Q(sqrt 5) rotation matrix of the call, `q.rotation()`, and
intersects L with its image; `csl_of` returns that same matrix, so the
matrix the `csl` command prints is the one whose CSL is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .golden import ONE, RAT_ZERO, ConsistencyError, GoldenInt
from .icosian import (
    _PAIRS,
    ZBASIS,
    ExtensionPair,
    Icosian,
    _half,
    _zcoords_scaled,
    pair_products,
    tr_frac,
)
from .lattice import (
    ExactLattice,
    IntMatrix,
    _adjugate,
    det_int,
    lattice_intersect,
)
from .quaternion import Quat, RotationMatrix


#: Basis of the twist-fixed lattice, chosen so the Gram matrix below is
#: exactly the A4 Cartan matrix.
L_BASIS: tuple[Quat, ...] = (
    Quat.of(1, 0, 0, 0),
    Quat(_half(GoldenInt(-1, 0)), _half(ONE), _half(ONE), _half(ONE)),
    Quat.of(0, -1, 0, 0),
    Quat(RAT_ZERO, _half(ONE), _half(GoldenInt(-1, 1)), _half(GoldenInt(0, -1))),
)

CARTAN_A4: IntMatrix = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)


def phi_plus(q: Quat) -> Quat:
    """Twist symmetrisation q + twist(q), a projection onto the fixed
    space up to the factor 2."""
    return q + q.twist()


# the Z^8 coordinates of the L basis; from_quat raises if one is not an icosian
_L_ZCOORDS = [Icosian.from_quat(b).z for b in L_BASIS]
_L_ZCOLS = tuple(zip(*_L_ZCOORDS))
# their columns 0-3, a unimodular block B0: a point x . B of the span has
# L-coordinates x = z[:4] B0^-1 for its Z^8 coordinates z
_L_BLOCK = [z[:4] for z in _L_ZCOORDS]


def _check_basis() -> None:
    for b in L_BASIS:
        if b.twist() != b:
            raise ConsistencyError(f"L basis vector {b} is not twist-fixed")
    gram = [[tr_frac(L_BASIS[i].dot(L_BASIS[j])) for j in range(4)]
            for i in range(4)]
    if gram != [[Fraction(x) for x in row] for row in CARTAN_A4]:
        raise ConsistencyError(f"L basis has Gram {gram}, not the A4 Cartan matrix")
    if det_int(_L_BLOCK) not in (1, -1):
        raise ConsistencyError(f"the L basis block {_L_BLOCK} is not unimodular")


_check_basis()
# B0^-1 = det(B0) adj(B0), by columns
_L_BLOCK_INV_COLS = tuple(zip(*([det_int(_L_BLOCK) * x for x in row]
                                for row in _adjugate(_L_BLOCK))))


def dual_lattice_gram() -> IntMatrix:
    """Gram matrix of the dual root lattice, rescaled by det = 5 to be
    integral (similar-sublattice counts are scale invariant): 5 C^-1 is the
    adjugate of the Cartan matrix C."""
    if det_int(CARTAN_A4) != 5:
        raise ConsistencyError("the A4 Cartan matrix does not have determinant 5")
    return tuple(tuple(row) for row in _adjugate(CARTAN_A4))


def _l_coords_scaled(q: Quat) -> tuple[list[int], int]:
    """The L-coordinates of q as integer numerators over one denominator,
    read from its Z^8 coordinates through the block inverse; ValueError
    unless q lies in the rational span of the L basis."""
    num, den = _zcoords_scaled(q)
    x = [sum(map(mul, num[:4], col)) for col in _L_BLOCK_INV_COLS]
    if [sum(map(mul, x, col)) for col in _L_ZCOLS] != num:
        raise ValueError(f"{q} is not in the rational span of the L basis")
    return x, den


def l_coords_rational(q: Quat) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coordinates of a twist-fixed quaternion in the L basis; they are
    always rational, and q off their rational span raises ValueError."""
    x, den = _l_coords_scaled(q)
    return tuple(Fraction(v, den) for v in x)


def l_coords(q: Quat | Icosian) -> tuple[int, int, int, int]:
    """Integer coordinates of a lattice point of L; raises ValueError for
    quaternions outside L."""
    quat = q.quat if isinstance(q, Icosian) else q
    x, den = _l_coords_scaled(quat)
    if any(v % den for v in x):
        raise ValueError(f"{quat} is not a point of the root lattice")
    return tuple(v // den for v in x)


def l_point(coords: Sequence[int]) -> Icosian:
    """The lattice point with the given L-basis coordinates."""
    return Icosian.from_zcoords(sum(map(mul, coords, col)) for col in zip(*_L_ZCOORDS))


# -- the integer conjugation kernel -----------------------------------------


def _table_l_coords(image: Quat, entry: str) -> tuple[int, int, int, int]:
    """The L-coordinates of a table entry, which must be integers; a
    ConsistencyError names the entry otherwise."""
    try:
        return l_coords(image)
    except ValueError as err:
        raise ConsistencyError(f"{entry}: {err}") from None


@lru_cache(maxsize=1)
def _conjugation_table() -> tuple[tuple[int, ...], ...]:
    """The L-coordinates of x -> q x twist(q), quadratic in q's Z^8 coordinates.

    twist is additive, so for q = sum z_i f_i over `ZBASIS`,
    q b twist(q) = sum_{i<=j} z_i z_j K_ij(b), where K_ii(b) = f_i b twist(f_i)
    and K_ij(b) = f_i b twist(f_j) + f_j b twist(f_i) for i < j.  Each K_ij(b)
    is a twist-fixed icosian, so a point of L.  Row 4*c + k holds coordinate k
    of K_ij(b_c) for every pair of `_PAIRS`.
    """
    quats = [f.quat for f in ZBASIS]
    twists = [f.twist() for f in quats]
    cols = []
    for i, j in _PAIRS:
        col = []
        for b in L_BASIS:
            image = quats[i] * b * twists[j]
            if i != j:
                image = image + quats[j] * b * twists[i]
            col += _table_l_coords(image, f"conjugation table, pair {(i, j)}")
        cols.append(col)
    return tuple(zip(*cols))


#: packed field widths are multiples of this many bits, so few widths occur
_FIELD_BITS = 16


@lru_cache(maxsize=8)
def _packed_columns(width: int) -> tuple[int, tuple[int, ...], int]:
    """The conjugation table T packed into fields of `width` bits, as
    (span, columns, bias); the one reader of `_conjugation_table`.

    Column k is sum_r T[r][k] 2^(r width), bias is sum_r 2^(width - 1)
    2^(r width), and span = max_r sum_k |T[r][k]|, so that every entry of
    w . T is at most span max|w_k| in absolute value."""
    table = _conjugation_table()
    span = max(sum(map(abs, row)) for row in table)
    columns = tuple(sum(x << r * width for r, x in enumerate(col)) for col in zip(*table))
    bias = sum(1 << (r + 1) * width - 1 for r in range(len(table)))
    return span, columns, bias


def _conjugation_matrix(w: Sequence[int]) -> IntMatrix:
    """Row c is the integer L-coordinates of q b_c twist(q), for the icosian
    q with pair products w (`pair_products`).

    The 16 entries e_r = sum_k w_k T[r][k] of the table T come from one
    dot product of w with the packed columns of `_packed_columns`:
    w . columns + bias = sum_r (e_r + 2^(B-1)) 2^(r B).  The field width B
    is the least multiple of `_FIELD_BITS` with 2^(B-1) > span max|w_k|,
    a bound on every |e_r|, so each biased field e_r + 2^(B-1) lies in
    [0, 2^B).  No field carries into the next, and field r, read back and
    unbiased, is e_r exactly, for any integers w."""
    span, columns, bias = _packed_columns(_FIELD_BITS)
    bound = span * max(max(w), -min(w))
    width = _FIELD_BITS * (bound.bit_length() // _FIELD_BITS + 1)
    if width > _FIELD_BITS:
        span, columns, bias = _packed_columns(width)
    x = sum(map(mul, w, columns)) + bias
    mask, half = (1 << width) - 1, 1 << width - 1
    f = [(x >> shift & mask) - half for shift in range(0, 16 * width, width)]
    return tuple(f[0:4]), tuple(f[4:8]), tuple(f[8:12]), tuple(f[12:16])


def l_rotation(q: Icosian) -> tuple[IntMatrix, int]:
    """The rotation x -> q x twist(q) / s of an admissible icosian q, as an
    integer matrix over its denominator.

    Returns (M, den) with b_c -> (1/den) sum_k M[k][c] b_k on the L basis,
    reduced so that den > 0 and gcd(den, content of M) = 1; the pair is
    therefore a canonical key for the rotation.  Raises NotAdmissibleError
    when s is irrational, and ConsistencyError unless M^T C M = den^2 C for
    the Cartan matrix C and det M = den^4.
    """
    return l_rotation_pairs(pair_products(q.zcoords()), q.scale())


def l_rotation_pairs(w: Sequence[int], s: int) -> tuple[IntMatrix, int]:
    """`l_rotation` of the icosian with pair products w and scale s.

    Both checks run on the rows R = g M^T before they are divided by
    g = gcd(s, content of R) = s / den: R C R^T = s^2 C is the statement
    M^T C M = den^2 C, and det R = s^4 is det M = den^4."""
    rows = _conjugation_matrix(w)
    s2 = s * s
    # R C from the tridiagonal C, then the symmetric product on i <= j only
    rc = [(2 * a - b, 2 * b - a - c, 2 * c - b - d, 2 * d - c) for a, b, c, d in rows]
    if any(sum(map(mul, rc[i], rows[j])) != s2 * CARTAN_A4[i][j]
           for i in range(4) for j in range(i, 4)):
        raise ConsistencyError(f"rows {rows} over {s} do not preserve the A4 form")
    if det_int(rows) != s2 * s2:
        raise ConsistencyError(f"rows {rows} over {s} do not have determinant +1")
    g = gcd(s, *rows[0], *rows[1], *rows[2], *rows[3])
    return tuple(tuple(r[k] // g for r in rows) for k in range(4)), s // g


def matches_quat_rotation(rot: RotationMatrix, m: IntMatrix, den: int) -> bool:
    """Whether the Q(sqrt 5) matrix rot maps each b_c to (1/den) sum_k M[k][c] b_k,
    i.e. whether (m, den) from `l_rotation` is the same rotation."""
    return all(rot.apply(b) == l_point(col).quat / den for b, col in zip(L_BASIS, zip(*m)))


def sublattice_gram(sub: ExactLattice) -> IntMatrix:
    """Gram matrix B C B^T, in the A4 form C, of the HNF basis B of an
    integer sublattice of L."""
    if sub.den != 1:
        raise ValueError("the Gram of a rational lattice is not integral")
    b = sub.basis
    return tuple(
        tuple(sum(b[i][k] * CARTAN_A4[k][l] * b[j][l] for k in range(4) for l in range(4))
              for j in range(len(b)))
        for i in range(len(b))
    )


def ssl_of(p: Icosian) -> ExactLattice:
    """The similar sublattice p L twist(p), of norm scale nr(p) nr(p)' and
    lattice index (nr(p) nr(p)')^2, in integer L-coordinates."""
    if not p:
        raise ValueError("the zero icosian spans no sublattice")
    sub = ExactLattice.from_rows(_conjugation_matrix(pair_products(p.zcoords())))
    if sub.index != p.norm_quadruple() ** 2:
        raise ConsistencyError(f"similar sublattice of {p} has index {sub.index}")
    return sub


@lru_cache(maxsize=1)
def _ideal_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry [i][k] holds the L-coordinates of phi_plus(f_i f_k) for f_i, f_k
    in `ZBASIS`.

    phi_plus(q f) is linear in q, so for q = sum z_i f_i it is
    sum_i z_i phi_plus(f_i f).  Each phi_plus(f_i f_k) is a twist-fixed
    icosian, so a point of L.
    """
    quats = [f.quat for f in ZBASIS]
    return tuple(
        tuple(_table_l_coords(phi_plus(fi * fk), f"ideal table, entry {(i, k)}")
              for k, fk in enumerate(quats))
        for i, fi in enumerate(quats))


def l_of_ideal(q: Icosian) -> ExactLattice:
    """The twist symmetrisation of the right ideal qI, as a sublattice of
    L: the Z-span of q*f + twist(q*f) over a Z-basis f of the ring.

    Row k is sum_i z_i T[i][k] for q's Z^8 coordinates z and the integer
    table T of `_ideal_table`, so no Q(sqrt 5) arithmetic runs per call."""
    if not q:
        raise ValueError("the zero ideal has no symmetrisation")
    terms = [(z, t) for z, t in zip(q.zcoords(), _ideal_table()) if z]
    rows = [[sum(z * t[k][c] for z, t in terms) for c in range(4)]
            for k in range(8)]
    return ExactLattice.from_rows(rows)


_I4 = ExactLattice.from_rows([[int(i == j) for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class CslResult:
    """A coincidence rotation of A4 together with its CSL."""

    source: Icosian
    extension: ExtensionPair
    rotation: RotationMatrix
    lattice: ExactLattice
    sigma: int


def _csl_by_intersection(rot: RotationMatrix) -> ExactLattice:
    """L meet R L, with R L spanned by the L-coordinates of R b over the
    L basis."""
    rotated = ExactLattice.from_rows(l_coords_rational(rot.apply(b)) for b in L_BASIS)
    return lattice_intersect(_I4, rotated)


def csl_of(q: Icosian) -> CslResult:
    """Coincidence site lattice of the rotation induced by a primitive
    admissible icosian, computed along two independent routes that are
    required to agree: the symmetrised ideal of the norm-extended
    quaternion (integer table, `l_of_ideal`), and the lattice intersection
    L with R L for the checked Q(sqrt 5) rotation matrix R = `q.rotation()`
    that the result carries (intersected by one integer HNF).  The
    coincidence index equals the extension norm sigma = lcm(nr q, (nr q)')."""
    ext = q.extension()  # raises NotPrimitiveError / NotAdmissibleError
    rot = q.rotation()
    from_ideal = l_of_ideal(ext.extended)
    if from_ideal != _csl_by_intersection(rot):
        raise ConsistencyError(f"ideal and intersection routes disagree for {q}")
    if from_ideal.index != ext.sigma:
        raise ConsistencyError(
            f"CSL index {from_ideal.index} != sigma {ext.sigma} for {q}")
    return CslResult(source=q, extension=ext, rotation=rot, lattice=from_ideal,
                     sigma=ext.sigma)


@dataclass(frozen=True)
class IrrationalDenominator:
    """Denominator of an orthogonal matrix of the shape sqrt(square) with
    a non-square positive integer under the root."""

    square: int

    def __str__(self) -> str:
        return f"sqrt({self.square})"


def denominator_of(q: Icosian) -> int | IrrationalDenominator:
    """Exact denominator of the orthogonal map x -> q x twist(q) / s on L,
    the least positive multiplier making the matrix integral.

    For admissible q the result is the integer s / gcd(s, content); for
    non-admissible q the true scale is an irrational square root and the
    result reports its square.
    """
    if not q:
        raise ValueError("the zero icosian induces no rotation")
    content = gcd(*(x for row in _conjugation_matrix(pair_products(q.zcoords())) for x in row))
    n4 = q.norm_quadruple()
    s = isqrt(n4)
    if s * s == n4:
        return s // gcd(s, content)
    if n4 % (content * content):
        raise ConsistencyError(
            f"content^2 {content * content} does not divide nr(q) nr(q)' = {n4}")
    return IrrationalDenominator(n4 // (content * content))
