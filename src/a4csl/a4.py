"""The A4 root lattice inside the icosian ring, its similar sublattices
(SSLs) and coincidence site lattices (CSLs).

The twist-fixed icosians form a copy of the A4 root lattice once the
ambient bilinear form is taken to be Tr(x . y).  Conjugation by an
icosian q, x -> q x twist(q), preserves that fixed space, and this
module turns the algebra into explicit integer sublattices of A4:

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

All three read q x twist(q) on L from one integer table (`_conjugation_matrix`)
that is quadratic in the Z^8 coordinates of q, so they do no Q(sqrt 5)
arithmetic per icosian.
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
    ZBASIS,
    ExtensionPair,
    Icosian,
    _coords_from_inverse,
    _half,
    tr_frac,
)
from .lattice import (
    ExactLattice,
    IntMatrix,
    _rat_inverse,
    det_int,
    hnf,
    lattice_index,
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


_LB_INV = _rat_inverse([list(b.components()) for b in L_BASIS])


def _check_basis() -> None:
    for b in L_BASIS:
        if b.twist() != b:
            raise ConsistencyError(f"L basis vector {b} is not twist-fixed")
        Icosian.from_quat(b)  # raises if outside the icosian ring
    gram = [[tr_frac(L_BASIS[i].dot(L_BASIS[j])) for j in range(4)]
            for i in range(4)]
    if gram != [[Fraction(x) for x in row] for row in CARTAN_A4]:
        raise ConsistencyError(f"L basis has Gram {gram}, not the A4 Cartan matrix")


_check_basis()


def dual_lattice_gram() -> IntMatrix:
    """Gram matrix of the dual root lattice, rescaled by det = 5 to be
    integral (similar-sublattice counts are scale invariant)."""
    n = 4
    c = [[Fraction(CARTAN_A4[i][j]) for j in range(n)] for i in range(n)]
    # adjugate = det * inverse
    inv = _rat_inverse(c)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            e = 5 * inv[i][j]
            if e.denominator != 1:
                raise ConsistencyError(f"5 C^-1 has non-integral entry {e}")
            row.append(int(e))
        out.append(tuple(row))
    return tuple(out)


def l_coords_rational(q: Quat) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coordinates of a twist-fixed quaternion in the L basis; they are
    always rational (the tau parts cancel), and this is checked."""
    out = []
    for x in _coords_from_inverse(q, _LB_INV):
        a, b = x.as_fraction_pair()
        if b:
            raise ValueError(f"{q} is not in the rational span of the L basis")
        out.append(a)
    return tuple(out)


def l_coords(q: Quat | Icosian) -> tuple[int, int, int, int]:
    """Integer coordinates of a lattice point of L; raises ValueError for
    quaternions outside L."""
    quat = q.quat if isinstance(q, Icosian) else q
    rat = l_coords_rational(quat)
    if any(x.denominator != 1 for x in rat):
        raise ValueError(f"{quat} is not a point of the root lattice")
    return tuple(int(x) for x in rat)


def l_contains(q: Quat | Icosian) -> bool:
    quat = q.quat if isinstance(q, Icosian) else q
    try:
        l_coords(quat)
    except ValueError:
        return False
    return True


def l_point(coords: Sequence[int]) -> Icosian:
    """The lattice point with the given L-basis coordinates."""
    q = Quat.of(0, 0, 0, 0)
    for c, b in zip(coords, L_BASIS):
        q = q + b * c
    return Icosian.from_quat(q)


# -- the integer conjugation kernel -----------------------------------------

#: index pairs i <= j of the Z^8 basis, in the column order of the table
_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(8) for j in range(i, 8))


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
    twists = [f.quat.twist() for f in ZBASIS]
    cols = []
    for i, j in _PAIRS:
        col = []
        for b in L_BASIS:
            image = quats[i] * b * twists[j]
            if i != j:
                image = image + quats[j] * b * twists[i]
            for x in _coords_from_inverse(image, _LB_INV):
                if not (x.is_integral() and x.is_rational()):
                    raise ConsistencyError(
                        f"conjugation table entry {x} for pair {(i, j)} is not an integer")
                col.append(x.num.a)
        cols.append(col)
    return tuple(zip(*cols))


def _conjugation_matrix(zc: Sequence[int]) -> IntMatrix:
    """Row c is the integer L-coordinates of q b_c twist(q), for the icosian
    q with Z^8 coordinates zc."""
    w = [zc[i] * zc[j] for i, j in _PAIRS]
    flat = [sum(map(mul, w, row)) for row in _conjugation_table()]
    return tuple(tuple(flat[4 * c:4 * c + 4]) for c in range(4))


def l_rotation(q: Icosian) -> tuple[IntMatrix, int]:
    """The rotation x -> q x twist(q) / s of an admissible icosian q, as an
    integer matrix over its denominator.

    Returns (M, den) with b_c -> (1/den) sum_k M[k][c] b_k on the L basis,
    reduced so that den > 0 and gcd(den, content of M) = 1; the pair is
    therefore a canonical key for the rotation.  Raises NotAdmissibleError
    when s is irrational, and ConsistencyError unless M^T C M = den^2 C for
    the Cartan matrix C and det M = den^4.
    """
    return l_rotation_zcoords(q.zcoords(), q.scale())  # scale raises NotAdmissibleError


def l_rotation_zcoords(zc: Sequence[int], s: int) -> tuple[IntMatrix, int]:
    """`l_rotation` of the icosian with Z^8 coordinates zc and scale s, for
    callers that already know s."""
    rows = _conjugation_matrix(zc)
    g = gcd(s, *(x for row in rows for x in row))
    m = tuple(tuple(rows[c][k] // g for c in range(4)) for k in range(4))
    den = s // g
    cartan = CARTAN_A4
    cm = [[sum(cartan[i][k] * m[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    d2 = den * den
    if any(sum(m[k][i] * cm[k][j] for k in range(4)) != d2 * cartan[i][j]
           for i in range(4) for j in range(4)):
        raise ConsistencyError(f"rotation of {zc} does not preserve the A4 form")
    if det_int(m) != d2 * d2:
        raise ConsistencyError(f"rotation of {zc} does not have determinant +1")
    return m, den


def matches_quat_rotation(rot: RotationMatrix, m: IntMatrix, den: int) -> bool:
    """Whether the Q(sqrt 5) matrix rot maps each b_c to (1/den) sum_k M[k][c] b_k,
    i.e. whether (m, den) from `l_rotation` is the same rotation."""
    for col, b in enumerate(L_BASIS):
        image = Quat.of(0, 0, 0, 0)
        for k, bk in enumerate(L_BASIS):
            image = image + bk * m[k][col]
        if rot.apply(b) != image / den:
            return False
    return True


@dataclass(frozen=True)
class CoordSublattice:
    """A full-rank sublattice of L in integer L-basis coordinates.

    `basis` is the canonical HNF basis (rows), `index` its index in L.
    """

    basis: IntMatrix
    index: int

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> CoordSublattice:
        h = hnf(rows)
        if len(h) != 4:
            raise ValueError("generators do not span a full-rank sublattice")
        return CoordSublattice(h, det_int(h))

    def contains(self, coords: Sequence[int]) -> bool:
        v = list(coords)
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x)
            if v[lead] % row[lead]:
                return False
            q = v[lead] // row[lead]
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def gram(self, ambient: Sequence[Sequence[int]] = CARTAN_A4) -> IntMatrix:
        b = self.basis
        return tuple(
            tuple(sum(b[i][k] * ambient[k][l] * b[j][l]
                      for k in range(4) for l in range(4))
                  for j in range(4))
            for i in range(4)
        )


def ssl_of(p: Icosian) -> CoordSublattice:
    """The similar sublattice p L twist(p), of norm scale nr(p) nr(p)' and
    lattice index (nr(p) nr(p)')^2."""
    if not p:
        raise ValueError("the zero icosian spans no sublattice")
    sub = CoordSublattice.from_rows(_conjugation_matrix(p.zcoords()))
    if sub.index != p.norm_quadruple() ** 2:
        raise ConsistencyError(f"similar sublattice of {p} has index {sub.index}")
    return sub


def l_of_ideal(q: Icosian) -> CoordSublattice:
    """The twist symmetrisation of the right ideal qI, as a sublattice of
    L: the Z-span of q*f + twist(q*f) over a Z-basis f of the ring."""
    if not q:
        raise ValueError("the zero ideal has no symmetrisation")
    rows = [l_coords(phi_plus(q.quat * f.quat)) for f in ZBASIS]
    return CoordSublattice.from_rows(rows)


_I4 = ExactLattice.from_rows([[int(i == j) for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class CslResult:
    """A coincidence rotation of A4 together with its CSL."""

    source: Icosian
    extension: ExtensionPair
    rotation: RotationMatrix
    lattice: CoordSublattice
    sigma: int


def _csl_by_intersection(ext: ExtensionPair) -> CoordSublattice:
    qe, qt, n = ext.extended.quat, ext.twisted.quat, ext.sigma
    rows = []
    for b in L_BASIS:
        img = qe * b * qt
        rows.append([c / n for c in l_coords_rational(img)])
    rotated = ExactLattice.from_rows(rows)
    meet = lattice_intersect(_I4, rotated)
    basis = []
    for row in meet.basis:
        if any(x.denominator != 1 for x in row):
            raise ConsistencyError(f"L meet R(q)L is not integral for {ext.extended}")
        basis.append([int(x) for x in row])
    sub = CoordSublattice.from_rows(basis)
    if sub.index != lattice_index(meet, _I4):
        raise ConsistencyError(f"HNF of L meet R(q)L changed its index for {ext.extended}")
    return sub


def csl_of(q: Icosian) -> CslResult:
    """Coincidence site lattice of the rotation induced by a primitive
    admissible icosian, computed along two independent routes that are
    required to agree: the symmetrised ideal of the norm-extended
    quaternion, and the lattice intersection L with R L.  The coincidence
    index equals the extension norm sigma = lcm(nr q, (nr q)')."""
    ext = q.extension()  # raises NotPrimitiveError / NotAdmissibleError
    from_ideal = l_of_ideal(ext.extended)
    from_meet = _csl_by_intersection(ext)
    if from_ideal != from_meet:
        raise ConsistencyError(f"ideal and intersection routes disagree for {q}")
    if from_ideal.index != ext.sigma:
        raise ConsistencyError(
            f"CSL index {from_ideal.index} != sigma {ext.sigma} for {q}")
    return CslResult(
        source=q,
        extension=ext,
        rotation=q.rotation(),
        lattice=from_ideal,
        sigma=ext.sigma,
    )


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
    content = gcd(*(x for row in _conjugation_matrix(q.zcoords()) for x in row))
    n4 = q.norm_quadruple()
    s = isqrt(n4)
    if s * s == n4:
        return s // gcd(s, content)
    if n4 % (content * content):
        raise ConsistencyError(
            f"content^2 {content * content} does not divide nr(q) nr(q)' = {n4}")
    return IrrationalDenominator(n4 // (content * content))
