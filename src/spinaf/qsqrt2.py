"""Exact arithmetic in the real quadratic field Q(sqrt 2).

An element is stored as three integers a, b, d with value (a + b*sqrt(2))/d,
d > 0 and gcd(a, b, d) = 1, the integral form of a number-field element
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993, §4.2).
The form is unique, so equality compares the triples, a sum or product
takes integer multiplications and one ``math.gcd``, and a negation none.
A square root is a root in Z[sqrt 2] (:func:`_integer_root`: one ``isqrt``
of the norm and one per branch), which ``spin.preimage`` also takes of its
integer pairs.  Rationals are read as ``numbers.Rational``, and
``fractions`` is imported only by ``a`` and ``b`` (and through them by
``repr``), so making, hashing and printing elements does not load it: a
rational element hashes as the Fraction it equals by Python's numeric hash
(``sys.hash_info``), computed from a and d with one modular inverse.
This is the smallest field containing all coefficients that show up when
lifting signed permutation matrices through the double cover, so every
computation downstream of this module is exact.
"""

from __future__ import annotations

import sys
from math import gcd, isqrt, lcm
from numbers import Rational
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

_new = object.__new__
_set = object.__setattr__


def _reduced(a: int, b: int, d: int) -> "QSqrt2":
    """The element (a + b*sqrt(2))/d for d > 0, in lowest terms."""
    g = gcd(a, b, d)
    x = _new(QSqrt2)
    _set(x, "_a", a // g)
    _set(x, "_b", b // g)
    _set(x, "_d", d // g)
    return x


class QSqrt2:
    """An element (a + b*sqrt(2))/d of Q(sqrt 2), immutable and hashable.

    ``a`` and ``b`` read the rational coordinates back as Fractions,
    ``ratios`` as integer pairs.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0):
        for x in (a, b):
            if not isinstance(x, Rational):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        d = lcm(a.denominator, b.denominator)
        _set(self, "_a", a.numerator * (d // a.denominator))
        _set(self, "_b", b.numerator * (d // b.denominator))
        _set(self, "_d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    @property
    def a(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    def ratios(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """``a`` and ``b`` as (numerator, denominator) pairs in lowest terms,
        the denominators positive, with no Fraction built."""
        d = self._d
        ga, gb = gcd(self._a, d), gcd(self._b, d)
        return (self._a // ga, d // ga), (self._b // gb, d // gb)

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return cls(0, 1)

    # -- ring structure -----------------------------------------------

    def _coerce(self, other) -> "QSqrt2":
        if isinstance(other, QSqrt2):
            return other
        if isinstance(other, Rational):
            return QSqrt2(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, f = self._d, o._d
        return _reduced(self._a * f + o._a * d, self._b * f + o._b * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "QSqrt2":
        x = _new(QSqrt2)  # (-a, -b, d) is in lowest terms: no gcd
        _set(x, "_a", -self._a)
        _set(x, "_b", -self._b)
        _set(x, "_d", self._d)
        return x

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a + b r)(c + e r) = (ac + 2be) + (ae + bc) r  with r^2 = 2
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c + 2 * b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # d/(a + b r) = d(a - b r)/(a^2 - 2 b^2); the norm never vanishes
        # for a nonzero element because sqrt(2) is irrational.
        a, b, d = self._a, self._b, self._d
        norm = a * a - 2 * b * b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        if norm < 0:
            a, b, norm = -a, -b, -norm
        return _reduced(d * a, -d * b, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "QSqrt2":
        """Galois conjugate a - b*sqrt(2)."""
        return _reduced(self._a, -self._b, self._d)

    # -- predicates and order ------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(2): one of -1, 0, 1."""
        return _sign(self._a, self._b)

    def sqrt(self) -> "QSqrt2 | None":
        """The non-negative square root if it lies in Q(sqrt 2), else None:
        the root of ad + bd*sqrt(2) in Z[sqrt 2] over d."""
        d = self._d
        root = _integer_root(self._a * d, self._b * d)
        return None if root is None else _reduced(root[0], root[1], d)

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        o = other if isinstance(other, QSqrt2) else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a rational element hashes as the int or Fraction a/d it equals:
        # hash(|a|) times the inverse of d modulo the hash modulus, with a's
        # sign, inf when d has no inverse, and -1 read as -2
        a, d = self._a, self._d
        if self._b:
            return hash((a, self._b, d))
        if d == 1:
            return hash(a)
        try:
            h = hash(hash(abs(a)) * pow(d, -1, sys.hash_info.modulus))
        except ValueError:
            h = sys.hash_info.inf
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self):
        # each coordinate as str() of its Fraction writes it
        (an, ad), (bn, bd) = self.ratios()
        a = f"{an}/{ad}" if ad > 1 else str(an)
        b = f"{abs(bn)}/{bd}" if bd > 1 else str(abs(bn))
        if bn == 0:
            return a
        if an == 0:
            return f"-{b}√2" if bn < 0 else f"{b}√2"
        return f"{a} {'+' if bn > 0 else '-'} {b}√2"


ZERO = QSqrt2(0)
"""The shared zero; every QSqrt2 is immutable, so one instance serves all."""


def _sign(a: int, b: int) -> int:
    """Sign of the real number a + b*sqrt(2): one of -1, 0, 1."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    # a and b have strictly opposite signs: the larger of a^2, 2 b^2 wins
    return sa if a * a > 2 * b * b else sb


def _integer_root(A: int, B: int) -> Tuple[int, int] | None:
    """The (c, e) with c + e*sqrt(2) >= 0 and (c + e*sqrt(2))^2 = A + B*sqrt(2),
    or None.  Z[sqrt 2] is integrally closed, so it holds every root that
    Q(sqrt 2) holds.  A root has c^2 + 2 e^2 = A and 2 c e = B, so its norm
    c^2 - 2 e^2 is +-r for r^2 = A^2 - 2 B^2, and c^2 = (A +- r)/2."""
    N = A * A - 2 * B * B
    r = isqrt(N) if A >= 0 and N >= 0 else None  # else negative or a non-square
    if r is None or r * r != N:
        return None
    for c2 in ((A + r) // 2, (A - r) // 2):
        c, e = isqrt(c2), isqrt((A - c2) // 2)
        if c * c == c2 and 2 * e * e == A - c2 and 2 * c * e == abs(B):
            # c, e >= 0; for B < 0 one of them changes sign, the one that
            # keeps c + e*sqrt(2) non-negative
            return (c, e) if B >= 0 else (c, -e) if c2 >= 2 * e * e else (-c, e)
    return None
