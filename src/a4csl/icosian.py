"""The icosian ring: the maximal order of the Hamilton quaternions over
Q(sqrt 5) generated by the 120 unit icosians.

The standard basis over Z[tau] is

    e1 = 1,  e2 = i,  e3 = (1 + i + j + k)/2,  e4 = ((1-tau) + tau*i + k)/2,

so as a Z-module the ring is free of rank 8 on e1..e4, tau*e1..tau*e4.  An
`Icosian` is its eight integer coordinates in that Z-basis and nothing
else.  Sums, differences, scaling by a golden integer, the reduced norm and
primitivity run on those integers; the quaternion value is derived from
them only where a product, conjugate, twist or printed rotation needs it.
`from_quat` reads a quaternion's coordinates through the adjugate of one
8x8 integer matrix, `_ZMAP`, and tests them for divisibility.
The trace form Tr(nr(x)) makes Z^8 a positive definite lattice; its
polarisation has half-integral entries, so the module keeps twice the form
as an integer Gram and enumerates its shells exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .golden import (
    ONE,
    RAT_ZERO,
    TAU,
    ZERO,
    ConsistencyError,
    GoldenInt,
    GoldenRat,
    _Frozen,
    _setattr,
    gi_gcd,
    gi_lcm_conj,
    gi_sqrt,
)
from .lattice import IntMatrix, _adjugate, det_int, short_vectors
from .quaternion import Quat, RotationMatrix, rotation_matrix


class NotPrimitiveError(ValueError):
    """Raised when an operation needs coordinates with unit content."""


class NotAdmissibleError(ValueError):
    """Raised when nr(q)*nr(q)' is not a perfect square, so q induces no
    rotation with rational scale."""


def _half(x: GoldenInt) -> GoldenRat:
    return GoldenRat.make(x, 2)


def tr_frac(x: GoldenRat) -> Fraction:
    """The rational trace x + x' of an element of Q(sqrt 5)."""
    a, b = x.as_fraction_pair()
    return 2 * a + b


ICOSIAN_BASIS: tuple[Quat, ...] = (
    Quat.of(1, 0, 0, 0),
    Quat.of(0, 1, 0, 0),
    Quat(_half(ONE), _half(ONE), _half(ONE), _half(ONE)),
    Quat(_half(GoldenInt(1, -1)), _half(GoldenInt(0, 1)), RAT_ZERO, _half(ONE)),
)


# twice the components 1, i, j, k of the Z-basis e1..e4, tau*e1..tau*e4 lie
# in Z[tau]
_TWICE: list[list[GoldenInt]] = [[(2 * c * t).as_golden_int() for c in e.components()]
                                 for t in (1, TAU) for e in ICOSIAN_BASIS]
#: Row k holds the a parts, then the b parts, of twice the components of the
#: k-th Z-basis icosian: z . _ZMAP is that vector for 2q, q with coordinates z.
_ZMAP: IntMatrix = tuple(tuple(c.a for c in row) + tuple(c.b for c in row) for row in _TWICE)
_ZMAP_COLS = tuple(zip(*_ZMAP))
_ZMAP_ADJ_COLS = tuple(zip(*_adjugate(_ZMAP)))
_ZMAP_DET = det_int(_ZMAP)


def _zcoords_scaled(q: Quat) -> tuple[list[int], int]:
    """q's Z^8 coordinates as integer numerators over one denominator: for d
    the lcm of its component denominators, the a and b parts of 2dq times
    adj(_ZMAP), over d det(_ZMAP)."""
    comps = q.components()
    d = lcm(*(c.den for c in comps))
    v = [2 * d // c.den * c.num.a for c in comps] + [2 * d // c.den * c.num.b for c in comps]
    return [sum(map(mul, v, col)) for col in _ZMAP_ADJ_COLS], d * _ZMAP_DET


class Icosian(_Frozen):
    """An element of the icosian ring, stored as its Z^8 coordinates z:
    the Z[tau] coordinate on e_i is z[i] + z[4+i] tau."""

    __slots__ = _fields = ("z",)

    def __init__(self, z: tuple[int, ...]) -> None:
        _setattr(self, "z", z)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.z,) == (other.z,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.z,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_quat(q: Quat) -> Icosian:
        num, den = _zcoords_scaled(q)
        if any(x % den for x in num):
            raise ValueError(f"{q} is not in the icosian ring")
        return Icosian(tuple(x // den for x in num))

    @staticmethod
    def from_zcoords(zc: Iterable[int]) -> Icosian:
        z = tuple(zc)
        if len(z) != 8:
            raise ValueError("need exactly eight integer coordinates")
        if not all(isinstance(x, int) for x in z):
            raise TypeError(f"coordinates {z!r} are not all ints")
        return Icosian(z)

    def zcoords(self) -> tuple[int, ...]:
        return self.z

    @property
    def coords(self) -> tuple[GoldenInt, GoldenInt, GoldenInt, GoldenInt]:
        """The Z[tau] coordinates on e1..e4."""
        z = self.z
        return tuple(GoldenInt(z[i], z[4 + i]) for i in range(4))

    @property
    def quat(self) -> Quat:
        """The quaternion value, z . _ZMAP over 2 read as four golden parts."""
        v = [sum(map(mul, self.z, col)) for col in _ZMAP_COLS]
        return Quat(*(GoldenRat.make(GoldenInt(v[k], v[4 + k]), 2) for k in range(4)))

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: Icosian) -> Icosian:
        return Icosian(tuple(map(add, self.z, other.z)))

    def __sub__(self, other: Icosian) -> Icosian:
        return Icosian(tuple(map(sub, self.z, other.z)))

    def __neg__(self) -> Icosian:
        return Icosian(tuple(-x for x in self.z))

    def __mul__(self, other) -> Icosian:
        if isinstance(other, Icosian):
            return Icosian.from_quat(self.quat * other.quat)
        if isinstance(other, (GoldenInt, int)):
            cs = [c * other for c in self.coords]
            return Icosian(tuple(c.a for c in cs) + tuple(c.b for c in cs))
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.z)

    def conj(self) -> Icosian:
        return Icosian.from_quat(self.quat.conj())

    def twist(self) -> Icosian:
        return Icosian.from_quat(self.quat.twist())

    # -- arithmetic invariants ---------------------------------------------

    def nr(self) -> GoldenInt:
        return nr_zcoords(self.z)

    def norm_quadruple(self) -> int:
        """The rational integer nr(q) * nr(q)' (always >= 0)."""
        return self.nr().signed_norm()

    def is_primitive(self) -> bool:
        return is_primitive_zcoords(self.z)

    def is_admissible(self) -> bool:
        n4 = self.norm_quadruple()
        return n4 > 0 and isqrt(n4) ** 2 == n4

    def scale(self) -> int:
        """The positive integer s with s^2 = nr(q) * nr(q)'."""
        n4 = self.norm_quadruple()
        s = isqrt(n4)
        if n4 == 0 or s * s != n4:
            raise NotAdmissibleError(
                f"nr(q)*nr(q)' = {n4} is not a positive perfect square")
        return s

    def rotation(self) -> RotationMatrix:
        """The orthogonal matrix of x -> q x twist(q) / scale."""
        return rotation_matrix(self.quat, self.scale())

    # -- the extension trick --------------------------------------------------

    def extension(self) -> ExtensionPair:
        """Scale q by alpha in Z[tau] so that the reduced norm becomes the
        rational integer lcm(nr q, (nr q)'), the coincidence index of the
        induced rotation.

        Requires q primitive (unit coordinate content) and admissible.
        """
        if not self.is_primitive():
            raise NotPrimitiveError(f"{self} has non-unit content")
        s = self.scale()  # raises NotAdmissibleError if need be
        n = self.nr()
        m_gi = gi_lcm_conj(n)
        if m_gi.b != 0 or m_gi.a <= 0:
            raise ConsistencyError(
                f"lcm(nr, nr') = {m_gi} should be a positive rational integer")
        sigma = m_gi.a
        ratio = m_gi.exact_div(n)
        alpha = gi_sqrt(ratio)
        if alpha is None:
            raise ConsistencyError(
                f"lcm(nr, nr')/nr = {ratio} should be a square in Z[tau]")
        extended = self * alpha
        if extended.nr() != m_gi:
            raise ConsistencyError(f"extended icosian has nr {extended.nr()}, not {m_gi}")
        return ExtensionPair(extended, extended.twist(), alpha, sigma)

    def __str__(self) -> str:
        return str(self.quat)


class ExtensionPair(_Frozen):
    """An icosian rescaled to integer reduced norm, with its twist.

    extended = alpha * q has nr = sigma = lcm(nr q, (nr q)'), and the pair
    (extended, twisted) generates the rotation of coincidence index sigma.
    """

    __slots__ = _fields = ("extended", "twisted", "alpha", "sigma")

    def __init__(self, extended: Icosian, twisted: Icosian, alpha: GoldenInt, sigma: int) -> None:
        _setattr(self, "extended", extended)
        _setattr(self, "twisted", twisted)
        _setattr(self, "alpha", alpha)
        _setattr(self, "sigma", sigma)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.extended, self.twisted, self.alpha, self.sigma)
                    == (other.extended, other.twisted, other.alpha, other.sigma))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.extended, self.twisted, self.alpha, self.sigma))


# -- the trace form on the rank-8 Z-module --------------------------------

#: The Z-basis of the ring, the unit vectors of Z^8.
ZBASIS: tuple[Icosian, ...] = tuple(
    Icosian(tuple(int(i == j) for j in range(8))) for i in range(8))

#: index pairs i <= j of the Z^8 coordinates, in the order of `pair_products`
_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(8) for j in range(i, 8))


def pair_products(zc: Sequence[int]) -> list[int]:
    """The products z_i z_j, i <= j, in the order of `_PAIRS`: every quantity
    quadratic in an icosian (its reduced norm, its conjugation matrix) is an
    integer row dotted with them."""
    return [a * b for i, a in enumerate(zc) for b in zc[i:]]


def _nr_entries(twice: Sequence[Sequence[GoldenInt]]) -> list[GoldenInt]:
    """nr as a form in the pair products: nr(f_i) on i == j, the polarisation
    2 f_i . f_j on i < j.  `twice` holds the components of the f_i doubled,
    so their products sum to 4 f_i . f_j, to be divided by 4 or 2 in Z[tau]."""
    out = []
    for i, j in _PAIRS:
        s = sum((x * y for x, y in zip(twice[i], twice[j])), ZERO)
        k = 4 if i == j else 2
        if s.a % k or s.b % k:
            raise ConsistencyError(f"reduced norm, pair {(i, j)}: {s}/{k} is not integral")
        out.append(GoldenInt(s.a // k, s.b // k))
    return out


_NR = dict(zip(_PAIRS, _nr_entries(_TWICE)))
#: nr(q) = w . NR_A + (w . NR_B) tau for the pair products w of q
NR_A, NR_B = (tuple(e.a for e in _NR.values()), tuple(e.b for e in _NR.values()))
#: Twice the trace form Tr(nr) on Z^8, as an integer Gram: the trace of the
#: polarisation off the diagonal, and twice Tr nr(f_i) on it.
TRACE_GRAM2: IntMatrix = tuple(
    tuple(_NR[min(i, j), max(i, j)].trace() * (1 + (i == j)) for j in range(8))
    for i in range(8))


def nr_zcoords(zc: Sequence[int]) -> GoldenInt:
    """Reduced norm as a golden integer, straight from Z^8 coordinates."""
    w = pair_products(zc)
    return GoldenInt(sum(map(mul, w, NR_A)), sum(map(mul, w, NR_B)))


def is_primitive_zcoords(zc: Sequence[int]) -> bool:
    """Whether the four Z[tau] coordinates (zc[i] + zc[4+i] tau) have unit
    content; the running gcd stops at the first unit."""
    g = None
    for i in range(4):
        c = GoldenInt(zc[i], zc[4 + i])
        if c:
            g = c if g is None else gi_gcd(g, c)
            if g.is_unit():
                return True
    return False


def enumerate_by_trace_norm(t: int) -> list[tuple[int, ...]]:
    """The Z^8 coordinates of the icosians q with Tr(nr(q)) = t, one of each
    pair q, -q (deterministic `short_vectors` order)."""
    return [v for v, norm in short_vectors(TRACE_GRAM2, 2 * t) if norm == 2 * t]


@lru_cache(maxsize=1)
def norm_one_units() -> tuple[Icosian, ...]:
    """The 120 unit icosians (the H4 root system rescaled to norm 1)."""
    units = []
    for v in enumerate_by_trace_norm(2):
        q = Icosian.from_zcoords(v)
        units += (q, -q)
    if len(units) != 120:
        raise ConsistencyError(f"found {len(units)} unit icosians, not 120")
    return tuple(units)
