"""Exact arithmetic in Q(sqrt 5) and its ring of integers Z[tau].

tau = (1 + sqrt 5)/2 is the golden ratio, tau^2 = tau + 1.  An element
a + b*tau is stored as the integer pair (a, b), so everything here is
exact.  Z[tau] is norm-Euclidean: one division, `divmod`, gives //, %,
`exact_div`, `divisible_by` and the gcds, and `gi_sqrt` takes square roots
from the norm-trace identity.  The unit group is {+-tau^k}, which is what
the canonical-associate windowing is built on.

Conjugation sends tau to 1 - tau (the other embedding).  The field norm
of x = a + b*tau is x * conj(x) = a^2 + a*b - b^2; its absolute value is
what `norm` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import index


class ConsistencyError(ArithmeticError):
    """Two exact computations that must agree did not.  Raised explicitly,
    so the check also runs under `python -O`."""


def _sign_a_plus_b_sqrt5(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(5) for integers a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Mixed signs: compare a^2 with 5*b^2 (never equal for a, b != 0).
    if a > 0:
        return 1 if a * a > 5 * b * b else -1
    return 1 if a * a < 5 * b * b else -1


def _round_nearest(num: int, den: int) -> int:
    """Round num/den to the nearest integer (den != 0, ties toward +inf)."""
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


@dataclass(frozen=True, slots=True)
class GoldenInt:
    """An element a + b*tau of Z[tau]."""

    a: int
    b: int

    # -- ring structure -------------------------------------------------

    def __add__(self, other: GoldenInt | int) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: GoldenInt | int) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: GoldenInt | int) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: GoldenInt | int) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return GoldenInt(a * c + bd, a * d + b * c + bd)

    __rmul__ = __mul__

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __pow__(self, k: int) -> GoldenInt:
        if k < 0:
            raise ValueError("negative power of a GoldenInt; invert units by conjugation instead")
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- field-theoretic data -------------------------------------------

    def conj(self) -> GoldenInt:
        """Algebraic conjugate: tau -> 1 - tau."""
        return GoldenInt(self.a + self.b, -self.b)

    def signed_norm(self) -> int:
        """x * conj(x) = a^2 + a*b - b^2 (may be negative)."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def norm(self) -> int:
        """Absolute field norm |x * conj(x)|."""
        return abs(self.signed_norm())

    def trace(self) -> int:
        """x + conj(x) = 2*a + b."""
        return 2 * self.a + self.b

    def sign_embedding(self) -> int:
        """Exact sign of the real embedding a + b*(1+sqrt 5)/2."""
        return _sign_a_plus_b_sqrt5(2 * self.a + self.b, self.b)

    def sign_conj_embedding(self) -> int:
        return _sign_a_plus_b_sqrt5(2 * self.a + self.b, -self.b)

    def compare_embedding(self, other: GoldenInt | int) -> int:
        """Exact comparison of real embeddings: sign of (self - other)."""
        return (self - _coerce_strict(other)).sign_embedding()

    def is_totally_positive(self) -> bool:
        return self.sign_embedding() > 0 and self.sign_conj_embedding() > 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_rational(self) -> bool:
        return self.b == 0

    # -- divisibility ----------------------------------------------------

    def exact_div(self, other: GoldenInt | int) -> GoldenInt:
        """Exact quotient self/other in Z[tau]; ValueError if not divisible."""
        q, r = divmod(self, other)
        if r:
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def divisible_by(self, other: GoldenInt | int) -> bool:
        """Whether the remainder is zero; zero divides only zero."""
        if not _coerce_strict(other):
            return not self
        return not self % other

    def __divmod__(self, other: GoldenInt | int) -> tuple[GoldenInt, GoldenInt]:
        """Euclidean division: r = self - q*other with norm(r) < norm(other).

        Rounding both coordinates of self*conj(other)/norm to nearest leaves
        a remainder xi with coordinates in [-1/2, 1/2], and |N(xi)| <= 3/4
        there, so the norm strictly drops and the Euclidean algorithm
        terminates.
        """
        other = _coerce_strict(other)
        s = other.signed_norm()
        if s == 0:
            raise ZeroDivisionError("division by zero in Z[tau]")
        num = self * other.conj()
        q = GoldenInt(_round_nearest(num.a, s), _round_nearest(num.b, s))
        r = self - q * other
        return q, r

    def __floordiv__(self, other: GoldenInt | int) -> GoldenInt:
        """The quotient of divmod, exact whenever the division is."""
        return divmod(self, other)[0]

    def __mod__(self, other: GoldenInt | int) -> GoldenInt:
        return divmod(self, other)[1]

    # -- presentation ----------------------------------------------------

    def __str__(self) -> str:
        return format_golden(self.a, self.b)

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"


def _coerce(x: object) -> GoldenInt:
    if isinstance(x, GoldenInt):
        return x
    if isinstance(x, int):
        return GoldenInt(x, 0)
    return NotImplemented


def _coerce_strict(x: GoldenInt | int) -> GoldenInt:
    c = _coerce(x)
    if c is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a GoldenInt")
    return c


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(1, 0)
TAU = GoldenInt(0, 1)
TAU_SQ = GoldenInt(1, 1)        # tau^2 = tau + 1
TAU_SQ_INV = GoldenInt(2, -1)   # tau^-2 = 2 - tau


# -- text form ----------------------------------------------------------

def format_golden(a, b) -> str:
    """Render a + b*t with integer or Fraction coefficients."""
    if not a and not b:
        return "0"
    parts = []
    if a:
        parts.append(str(a))
    if b:
        if b == 1:
            tpart = "t"
        elif b == -1:
            tpart = "-t"
        else:
            tpart = f"{b}*t"
        if parts and not tpart.startswith("-"):
            parts.append("+" + tpart)
        else:
            parts.append(tpart)
    return "".join(parts)


# -- rationals over the golden field -------------------------------------

@dataclass(frozen=True, slots=True)
class GoldenRat:
    """An element of Q(sqrt 5), stored as GoldenInt numerator / positive int
    denominator in lowest terms."""

    num: GoldenInt
    den: int

    @staticmethod
    def make(num: GoldenInt | int, den: int = 1) -> GoldenRat:
        num = _coerce_strict(num)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = GoldenInt(num.a // g, num.b // g)
            den //= g
        return GoldenRat(num, den)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: GoldenRat | GoldenInt | int) -> GoldenRat:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenRat.make(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: GoldenRat | GoldenInt | int) -> GoldenRat:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenRat.make(self.num * other.den - other.num * self.den,
                              self.den * other.den)

    def __rsub__(self, other: GoldenRat | GoldenInt | int) -> GoldenRat:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: GoldenRat | GoldenInt | int) -> GoldenRat:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenRat.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: GoldenRat | GoldenInt | int) -> GoldenRat:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __neg__(self) -> GoldenRat:
        return GoldenRat(-self.num, self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def inverse(self) -> GoldenRat:
        s = self.num.signed_norm()
        if s == 0:
            raise ZeroDivisionError("inverse of zero")
        return GoldenRat.make(self.num.conj() * self.den, s)

    def conj(self) -> GoldenRat:
        return GoldenRat(self.num.conj(), self.den)

    def as_golden_int(self) -> GoldenInt:
        if self.den != 1:
            raise ValueError(f"{self} is not integral over Z[tau]")
        return self.num

    def is_rational(self) -> bool:
        return self.num.b == 0

    def as_fraction_pair(self) -> tuple[Fraction, Fraction]:
        """Coefficients (a, b) of a + b*tau as exact fractions."""
        return Fraction(self.num.a, self.den), Fraction(self.num.b, self.den)

    def __str__(self) -> str:
        a, b = self.as_fraction_pair()
        return format_golden(a, b)

    def __repr__(self) -> str:
        return f"GoldenRat({self.num!r}, {self.den})"


def _coerce_rat(x: object) -> GoldenRat:
    if isinstance(x, GoldenRat):
        return x
    if isinstance(x, GoldenInt):
        return GoldenRat(x, 1)
    if isinstance(x, int):
        return GoldenRat(GoldenInt(x, 0), 1)
    return NotImplemented


RAT_ZERO = GoldenRat(ZERO, 1)
RAT_ONE = GoldenRat(ONE, 1)


# -- gcd, canonical associates, factorization ----------------------------

def gi_gcd(x: GoldenInt | int, y: GoldenInt | int) -> GoldenInt:
    """Greatest common divisor in Z[tau], as the canonical associate."""
    x, y = _coerce_strict(x), _coerce_strict(y)
    if not x and not y:
        raise ValueError("gcd(0, 0) is undefined")
    while y:
        ny = abs(y.signed_norm())
        x, y = y, x % y
        if y and abs(y.signed_norm()) >= ny:
            raise ConsistencyError(f"remainder {y} mod {x} is not smaller in norm")
    return canonical_associate(x)


def canonical_associate(x: GoldenInt) -> GoldenInt:
    """The canonical representative of x among its associates {+-tau^k x}.

    It is the unique totally positive associate whose real embedding e
    satisfies sqrt(N) <= e < tau^2 * sqrt(N) where N = norm(x).  All
    comparisons are exact: e >= sqrt(N) iff x^2 - N >= 0 in the real
    embedding, similarly against N*tau^4.  Rational positive integers are
    their own canonical associate.
    """
    if not x:
        raise ValueError("zero has no canonical associate")
    if x.signed_norm() < 0:
        x = x * TAU          # multiplying by tau flips the sign of x*conj(x)
    if x.sign_embedding() < 0:
        x = -x               # now totally positive
    n = x.signed_norm()
    n_tau4 = GoldenInt(n, 0) * TAU_SQ * TAU_SQ
    while (x * x).compare_embedding(GoldenInt(n, 0)) < 0:
        x = x * TAU_SQ
    while (x * x).compare_embedding(n_tau4) >= 0:
        x = x * TAU_SQ_INV
    return x


def gi_sqrt(x: GoldenInt | int) -> GoldenInt | None:
    """Exact square root in Z[tau] (positive real embedding), or None.

    If y^2 = x, then s = y*conj(y) = +-isqrt(norm(x)) and t = y + conj(y)
    satisfy t^2 = trace(x) + 2s and y*t = x + s, so y = (x + s)/t, one
    division for each sign of s.  t = 0 only for x = 5c^2, where
    y = c*sqrt 5.
    """
    x = _coerce_strict(x)
    if not x:
        return ZERO
    if not x.is_totally_positive():
        return None
    n = isqrt(x.signed_norm())
    if n * n != x.signed_norm():
        return None
    for s in (n, -n):
        t = isqrt(x.trace() + 2 * s)
        if t:
            y = (x + s) // t
        else:
            c = isqrt(x.a // 5)
            y = GoldenInt(-c, 2 * c)  # c * (2 tau - 1)
        if y * y == x:
            return y if y.sign_embedding() > 0 else -y
    return None


# -- rational prime machinery --------------------------------------------

_SMALL_PRIME_BOUND = 1 << 20

# the first 13 primes: as Miller-Rabin bases they decide primality of every
# n < _MR_BOUND (Sorenson & Webster, Math. Comp. 2017); _MR_BOUND itself is
# a strong pseudoprime to all of them
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test; raises ValueError for an n >= _MR_BOUND
    that passes every base, where the bases prove nothing."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide primality of {n} >= {_MR_BOUND} deterministically")
    return True


def _pollard_rho(n: int) -> int:
    """Deterministic Brent-style rho; n odd composite, no factor < 2^20."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factor_int(n: int) -> list[tuple[int, int]]:
    """Deterministic integer factorization (trial division, then rho).

    Exact for every n whose prime factors above 2^20 lie below
    3317044064679887385961981, the range where the Miller-Rabin bases
    decide primality; a cofactor beyond it that the bases cannot prove
    composite raises ValueError.  A composite cofactor that is a perfect
    square is split by isqrt before rho runs on it: rho finds p in p^2
    only after about sqrt(p) steps.  n is read through operator.index, so
    an argument that is not an integer raises TypeError.
    """
    n = abs(index(n))
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # every larger prime below the bound is 6k - 1 or 6k + 1
    for p in range(5, _SMALL_PRIME_BOUND, 6):
        if p * p > n:
            break
        for d in (p, p + 2):
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
    # (cofactor, multiplicity) pairs whose product is what is left of n
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r = isqrt(m)
        if r * r == m:
            stack.append((r, 2 * e))
            continue
        d = _pollard_rho(m)
        stack.extend(((d, e), (m // d, e)))
    return sorted(out.items())


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a mod odd prime p (a assumed a QR)."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # find a non-residue
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def splitting_type(p: int) -> str:
    """How the rational prime p behaves in Z[tau]."""
    if p == 5:
        return "ramified"
    return "split" if p % 5 in (1, 4) else "inert"


@lru_cache(maxsize=None)
def prime_above(p: int) -> GoldenInt:
    """A canonical prime of Z[tau] above the rational prime p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    kind = splitting_type(p)
    if kind == "ramified":
        return canonical_associate(GoldenInt(-1, 2))  # 2*tau - 1 = sqrt 5
    if kind == "inert":
        return GoldenInt(p, 0)
    # split: tau = (1 + sqrt 5)/2 mod p gives a root of t^2 - t - 1
    r = (1 + _sqrt_mod(5, p)) * pow(2, p - 2, p) % p
    pi = gi_gcd(GoldenInt(p, 0), GoldenInt(-r, 1))
    if pi.norm() != p:
        raise ConsistencyError(f"prime {pi} above {p} has norm {pi.norm()}")
    return pi


@dataclass(frozen=True)
class GoldenFactorization:
    """unit * prod(prime^exp) with canonical primes, sorted deterministically."""

    unit: GoldenInt
    factors: tuple[tuple[GoldenInt, int], ...]

    def product(self) -> GoldenInt:
        out = self.unit
        for prime, e in self.factors:
            out = out * prime ** e
        return out


def gi_factor(x: GoldenInt | int) -> GoldenFactorization:
    """Factor x into canonical primes of Z[tau] times a unit."""
    x = _coerce_strict(x)
    if not x:
        raise ValueError("cannot factor zero")
    remaining = x
    found: list[tuple[GoldenInt, int]] = []
    for p, _ in factor_int(x.norm()):
        pi = prime_above(p)
        candidates = [pi]
        if splitting_type(p) == "split":
            candidates.append(canonical_associate(pi.conj()))
        for prime in candidates:
            e = 0
            while True:
                q, r = divmod(remaining, prime)
                if r:
                    break
                remaining = q
                e += 1
            if e:
                found.append((prime, e))
    if not remaining.is_unit():
        raise ConsistencyError(f"non-unit cofactor {remaining} for {x}")
    found.sort(key=lambda fe: (fe[0].norm(), fe[0].a, fe[0].b))
    return GoldenFactorization(remaining, tuple(found))


def gi_lcm_conj(x: GoldenInt | int) -> GoldenInt:
    """lcm(x, x') as its canonical (totally positive, windowed) generator,
    from one factorization: each canonical prime pi of x and the canonical
    associate of pi' get the larger of their two exponents.  A rational
    generator comes out as that positive integer, the coincidence index."""
    exps: dict[GoldenInt, int] = {}
    for prime, e in gi_factor(x).factors:
        for p in (prime, canonical_associate(prime.conj())):
            exps[p] = max(exps.get(p, 0), e)
    out = ONE
    for prime, e in exps.items():
        out = out * prime ** e
    return canonical_associate(out)
