"""Quaternions with coefficients in Q(sqrt 5), plus the twist involution.

The twist of q = (a, b, c, d) is (a', b', d', c'): algebraic conjugation
applied componentwise combined with a swap of the last two components.
It is an involutory anti-automorphism (twist(p*q) = twist(q)*twist(p))
whose fixed points, inside the icosian ring, form the A4 lattice.

A quaternion q with |q * twist(q)| = n (a positive integer) induces the
orthogonal map x -> q*x*twist(q)/n; `rotation_matrix` returns it as an
exact 4x4 matrix over Q(sqrt 5), always checked orthogonal with
determinant +1 (which `lattice.det_int` computes over Z[tau]).  Icosians
are integer coordinates (`icosian.Icosian`); this module gives their
products, conjugates and twists, and the rotation matrix that `a4.csl_of`
checks and the `csl` command prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .golden import RAT_ONE, RAT_ZERO, GoldenInt, GoldenRat, _coerce_rat
from .lattice import det_int


def _as_rat(x: GoldenRat | GoldenInt | Fraction | int) -> GoldenRat:
    if isinstance(x, Fraction):
        return GoldenRat.make(x.numerator, x.denominator)
    r = _coerce_rat(x)
    if r is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a quaternion coefficient")
    return r


@dataclass(frozen=True, slots=True)
class Quat:
    """A quaternion a + b*i + c*j + d*k over Q(sqrt 5)."""

    a: GoldenRat
    b: GoldenRat
    c: GoldenRat
    d: GoldenRat

    @staticmethod
    def of(a, b, c, d) -> Quat:
        return Quat(_as_rat(a), _as_rat(b), _as_rat(c), _as_rat(d))

    def components(self) -> tuple[GoldenRat, GoldenRat, GoldenRat, GoldenRat]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: Quat) -> Quat:
        return Quat(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: Quat) -> Quat:
        return Quat(self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __neg__(self) -> Quat:
        return Quat(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other) -> Quat:
        if isinstance(other, Quat):
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            return Quat(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )
        s = _as_rat(other)
        return Quat(self.a * s, self.b * s, self.c * s, self.d * s)

    def __rmul__(self, other) -> Quat:
        s = _as_rat(other)  # scalars are central
        return Quat(s * self.a, s * self.b, s * self.c, s * self.d)

    def __truediv__(self, other) -> Quat:
        s = _as_rat(other)
        return Quat(self.a / s, self.b / s, self.c / s, self.d / s)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b) or bool(self.c) or bool(self.d)

    def conj(self) -> Quat:
        """Quaternionic conjugate (negate the imaginary part)."""
        return Quat(self.a, -self.b, -self.c, -self.d)

    def nr(self) -> GoldenRat:
        """Reduced norm q * conj(q) = a^2 + b^2 + c^2 + d^2."""
        return (self.a * self.a + self.b * self.b
                + self.c * self.c + self.d * self.d)

    def twist(self) -> Quat:
        """(a, b, c, d) -> (conj a, conj b, conj d, conj c)."""
        return Quat(self.a.conj(), self.b.conj(), self.d.conj(), self.c.conj())

    def dot(self, other: Quat) -> GoldenRat:
        """Componentwise inner product over Q(sqrt 5)."""
        return (self.a * other.a + self.b * other.b
                + self.c * other.c + self.d * other.d)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components()) + ")"


_STANDARD_BASIS = tuple(Quat.of(*(int(i == j) for j in range(4))) for i in range(4))


@dataclass(frozen=True)
class RotationMatrix:
    """Exact 4x4 special orthogonal matrix over Q(sqrt 5)."""

    entries: tuple[tuple[GoldenRat, ...], ...]

    def __post_init__(self):
        m = self.entries
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise ValueError("rotation matrix must be 4x4")

    def apply(self, x: Quat) -> Quat:
        comps = x.components()
        out = []
        for i in range(4):
            acc = RAT_ZERO
            for j in range(4):
                acc = acc + self.entries[i][j] * comps[j]
            out.append(acc)
        return Quat(*out)

    def is_orthogonal(self) -> bool:
        m = self.entries
        for i in range(4):
            for j in range(i, 4):
                acc = RAT_ZERO
                for k in range(4):
                    acc = acc + m[k][i] * m[k][j]
                if acc != (RAT_ONE if i == j else RAT_ZERO):
                    return False
        return True

    def det(self) -> GoldenRat:
        """det_int of the numerators over the common denominator D, divided by D^4."""
        d = lcm(*(x.den for row in self.entries for x in row))
        return GoldenRat.make(
            det_int([[x.num * (d // x.den) for x in row] for row in self.entries]), d ** 4)


def rotation_matrix(q: Quat, scale: int) -> RotationMatrix:
    """Matrix of x -> q*x*twist(q)/scale in the standard basis 1, i, j, k.

    scale must be the positive integer with scale^2 = nr(q)*nr(twist q);
    the result is then orthogonal with determinant +1, which is verified.
    """
    if not q:
        raise ValueError("zero quaternion induces no rotation")
    if scale <= 0:
        raise ValueError("scale must be a positive integer")
    norm_product = q.nr() * q.twist().nr()
    if norm_product != _as_rat(scale * scale):
        raise ValueError(
            f"scale {scale} does not match |q*twist(q)|: nr(q)*nr(twist q) = {norm_product}")
    tw = q.twist()
    cols = []
    for e in _STANDARD_BASIS:
        image = q * e * tw / scale
        cols.append(image.components())
    entries = tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))
    m = RotationMatrix(entries)
    if not m.is_orthogonal():
        raise ArithmeticError("rotation image is not orthogonal")
    if m.det() != RAT_ONE:
        raise ArithmeticError("rotation has determinant != +1")
    return m
