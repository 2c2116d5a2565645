"""Exact arithmetic in the real quadratic field Q(sqrt 2).

An element is stored as three integers a, b, d with value (a + b*sqrt(2))/d,
d > 0 and gcd(a, b, d) = 1, the integral form of a number-field element
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993, §4.2).
The form is unique, so equality compares the triples, and a sum or product
takes integer multiplications and one ``math.gcd``.  ``Fraction`` appears
only where an element is built from rationals or read back (``a``, ``b``).
This is the smallest field containing all coefficients that show up when
lifting signed permutation matrices through the double cover, so every
computation downstream of this module is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

RationalLike = Union[int, Fraction]

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

    ``a`` and ``b`` read the rational coordinates back as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        for x in (a, b):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)
        _set(self, "_a", a.numerator * (d // a.denominator))
        _set(self, "_b", b.numerator * (d // b.denominator))
        _set(self, "_d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return cls(0, 1)

    # -- ring structure -----------------------------------------------

    def _coerce(self, other) -> "QSqrt2":
        if isinstance(other, QSqrt2):
            return other
        if isinstance(other, (int, Fraction)):
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
        return _reduced(-self._a, -self._b, self._d)

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
        a, b = self._a, self._b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa * sb >= 0:
            return sa or sb
        # a and b have strictly opposite signs: the larger of a^2, 2 b^2 wins
        return sa if a * a > 2 * b * b else sb

    def sqrt(self) -> "QSqrt2 | None":
        """The non-negative square root, if it lies in Q(sqrt 2) itself.

        Returns None when the element is negative or its square root is
        irrational over the field.
        """
        if self.sign() < 0:
            return None
        if self.is_zero():
            return QSqrt2(0, 0)
        a, b = self.a, self.b
        # Want (c + d r)^2 = c^2 + 2 d^2 + 2 c d r == a + b r.
        if b == 0:
            c2 = _rational_sqrt(a)
            if c2 is not None:
                return QSqrt2(c2, 0)
            d2 = _rational_sqrt(a / 2)
            return None if d2 is None else QSqrt2(0, d2)
        # b != 0, so c, d both nonzero and d = b/(2c):
        #   2 c^4 - 2 a c^2 + b^2 = 0  =>  c^2 = (a ± sqrt(a^2 - 2 b^2)) / 2
        root = _rational_sqrt(a * a - 2 * b * b)
        if root is None:
            return None
        for branch in (root, -root):
            c_sq = (a + branch) / 2
            c = _rational_sqrt(c_sq) if c_sq > 0 else None
            if c is None:
                continue
            cand = QSqrt2(c, b / (2 * c))
            if cand.sign() < 0:
                cand = -cand
            if cand * cand == self:
                return cand
        return None

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.a)
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}√2"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {abs(b)}√2"


ZERO = QSqrt2(0)
"""The shared zero; every QSqrt2 is immutable, so one instance serves all."""


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None (also for x < 0)."""
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)
