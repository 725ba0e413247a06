"""The icosian ring: the maximal order of the Hamilton quaternions over
Q(sqrt 5) generated by the 120 unit icosians.

Elements carry both their quaternion value and their exact coordinates
over Z[tau] in the standard basis

    e1 = 1,  e2 = i,  e3 = (1 + i + j + k)/2,  e4 = ((1-tau) + tau*i + k)/2.

As a Z-module the ring is free of rank 8 on e1..e4, tau*e1..tau*e4; the
trace form Tr(nr(x)) makes that Z^8 a positive definite (odd, with some
half-integral polarisation entries) lattice whose shells this module can
enumerate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Sequence

from .golden import (
    ONE,
    RAT_ZERO,
    ConsistencyError,
    GoldenInt,
    GoldenRat,
    gi_gcd,
    gi_lcm_std,
    gi_sqrt,
)
from .lattice import _rat_inverse, short_vectors
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


# rows of _E are the basis icosians written in components 1, i, j, k
_E: list[list[GoldenRat]] = [list(e.components()) for e in ICOSIAN_BASIS]
_E_INV: list[list[GoldenRat]] = _rat_inverse(_E)


def _coords_from_inverse(q: Quat, inv: Sequence[Sequence[GoldenRat]]
                         ) -> tuple[GoldenRat, GoldenRat, GoldenRat, GoldenRat]:
    """Coefficients of q in the basis whose component matrix has inverse inv."""
    comps = q.components()
    return tuple(
        sum((comps[k] * inv[k][i] for k in range(4)), RAT_ZERO)
        for i in range(4)
    )


def basis_coordinates(q: Quat) -> tuple[GoldenRat, GoldenRat, GoldenRat, GoldenRat]:
    """Coefficients x with q = sum x_i e_i, as exact golden rationals."""
    return _coords_from_inverse(q, _E_INV)


@dataclass(frozen=True, slots=True)
class Icosian:
    """An element of the icosian ring with exact Z[tau] coordinates."""

    quat: Quat
    coords: tuple[GoldenInt, GoldenInt, GoldenInt, GoldenInt]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_quat(q: Quat) -> Icosian:
        xs = basis_coordinates(q)
        if any(not x.is_integral() for x in xs):
            raise ValueError(f"{q} is not in the icosian ring")
        return Icosian(q, tuple(x.as_golden_int() for x in xs))

    @staticmethod
    def from_coords(coords: Iterable[GoldenInt]) -> Icosian:
        cs = tuple(coords)
        if len(cs) != 4:
            raise ValueError("need exactly four coordinates")
        q = Quat.of(0, 0, 0, 0)
        for c, e in zip(cs, ICOSIAN_BASIS):
            q = q + e * c
        return Icosian(q, cs)

    @staticmethod
    def from_zcoords(zc: Iterable[int]) -> Icosian:
        z = tuple(zc)
        if len(z) != 8:
            raise ValueError("need exactly eight integer coordinates")
        return Icosian.from_coords(
            GoldenInt(z[i], z[4 + i]) for i in range(4)
        )

    def zcoords(self) -> tuple[int, ...]:
        return tuple(c.a for c in self.coords) + tuple(c.b for c in self.coords)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: Icosian) -> Icosian:
        return Icosian(self.quat + other.quat,
                       tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Icosian) -> Icosian:
        return Icosian(self.quat - other.quat,
                       tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> Icosian:
        return Icosian(-self.quat, tuple(-c for c in self.coords))

    def __mul__(self, other) -> Icosian:
        if isinstance(other, Icosian):
            return Icosian.from_quat(self.quat * other.quat)
        if isinstance(other, (GoldenInt, int)):
            g = other if isinstance(other, GoldenInt) else GoldenInt(other, 0)
            return Icosian(self.quat * g, tuple(c * g for c in self.coords))
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.coords)

    def conj(self) -> Icosian:
        return Icosian.from_quat(self.quat.conj())

    def twist(self) -> Icosian:
        return Icosian.from_quat(self.quat.twist())

    # -- arithmetic invariants ---------------------------------------------

    def nr(self) -> GoldenInt:
        return nr_zcoords(self.zcoords())

    def trace_norm(self) -> int:
        return self.nr().trace()

    def norm_quadruple(self) -> int:
        """The rational integer nr(q) * nr(q)' (always >= 0)."""
        return self.nr().signed_norm()

    def is_unit(self) -> bool:
        return self.nr().is_unit()

    def is_primitive(self) -> bool:
        g = None
        for c in self.coords:
            if not c:
                continue
            g = c if g is None else gi_gcd(g, c)
        return g is not None and g.is_unit()

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

    def ideal_index(self) -> int:
        """Index of the right ideal qI in I, i.e. (nr(q) nr(q)')^2."""
        if not self:
            raise ValueError("the zero ideal has infinite index")
        return self.norm_quadruple() ** 2

    def right_ideal_equal(self, other: Icosian) -> bool:
        """Whether qI = pI, i.e. q^{-1} p is a unit of the ring."""
        if not (self and other):
            return not (self or other)
        u = self.quat.inverse() * other.quat
        try:
            v = Icosian.from_quat(u)
        except ValueError:
            return False
        return v.is_unit()

    # -- the extension trick --------------------------------------------------

    def extension(self) -> ExtensionPair:
        """Scale q by alpha in Z[tau] so that the reduced norm becomes the
        rational integer lcm(nr q, (nr q)'), the coincidence index of the
        induced rotation.

        Requires q primitive (unit coordinate content) and admissible.
        """
        if not self.is_primitive():
            raise NotPrimitiveError(f"{self.quat} has non-unit content")
        s = self.scale()  # raises NotAdmissibleError if need be
        n = self.nr()
        m_gi = gi_lcm_std(n, n.conj())
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


@dataclass(frozen=True, slots=True)
class ExtensionPair:
    """An icosian rescaled to integer reduced norm, with its twist.

    extended = alpha * q has nr = sigma = lcm(nr q, (nr q)'), and the pair
    (extended, twisted) generates the rotation of coincidence index sigma.
    """

    extended: Icosian
    twisted: Icosian
    alpha: GoldenInt
    sigma: int


# -- the trace form on the rank-8 Z-module --------------------------------

def _zbasis() -> tuple[Icosian, ...]:
    tau_scaled = tuple(Icosian.from_quat(e * GoldenInt(0, 1))
                       for e in ICOSIAN_BASIS)
    plain = tuple(Icosian.from_quat(e) for e in ICOSIAN_BASIS)
    return plain + tau_scaled


ZBASIS: tuple[Icosian, ...] = _zbasis()


def _trace_gram() -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for f in ZBASIS:
        row = []
        for g in ZBASIS:
            # polarisation of nr: (nr(f+g) - nr(f) - nr(g)) / 2
            pol = (((f.quat + g.quat).nr() - f.quat.nr() - g.quat.nr())
                   * GoldenRat.make(1, 2))
            row.append(tr_frac(pol))
        rows.append(tuple(row))
    return tuple(rows)


TRACE_GRAM: tuple[tuple[Fraction, ...], ...] = _trace_gram()

# integer tables for nr straight from Z^8 coordinates:
# nr(c) = (c P c^T)/2 + tau * (c Q c^T)/2
_P: list[list[int]] = []
_Q: list[list[int]] = []
for _f in ZBASIS:
    _prow, _qrow = [], []
    for _g in ZBASIS:
        _pol2 = ((_f.quat + _g.quat).nr() - _f.quat.nr() - _g.quat.nr())
        _gi = _pol2.as_golden_int()
        _prow.append(_gi.a)
        _qrow.append(_gi.b)
    _P.append(_prow)
    _Q.append(_qrow)


def nr_zcoords(zc: Sequence[int]) -> GoldenInt:
    """Reduced norm as a golden integer, straight from Z^8 coordinates."""
    a = sum(zc[i] * _P[i][j] * zc[j] for i in range(8) for j in range(i, 8)
            ) - sum(_P[i][i] * zc[i] * zc[i] for i in range(8)) // 2
    b = sum(zc[i] * _Q[i][j] * zc[j] for i in range(8) for j in range(i, 8)
            ) - sum(_Q[i][i] * zc[i] * zc[i] for i in range(8)) // 2
    return GoldenInt(a, b)


def enumerate_by_trace_norm(t: int) -> list[Icosian]:
    """All icosians q with Tr(nr(q)) = t (both signs, deterministic order)."""
    out: list[Icosian] = []
    for v, norm in short_vectors(TRACE_GRAM, t):
        if norm == t:
            q = Icosian.from_zcoords(v)
            out.append(q)
            out.append(-q)
    return out


@lru_cache(maxsize=1)
def norm_one_units() -> tuple[Icosian, ...]:
    """The 120 unit icosians (the H4 root system rescaled to norm 1)."""
    units = tuple(enumerate_by_trace_norm(2))
    if len(units) != 120:
        raise ConsistencyError(f"found {len(units)} unit icosians, not 120")
    return units
