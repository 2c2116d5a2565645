"""Exact arithmetic in the real quadratic field Q(sqrt 2).

Elements are stored as ``a + b*sqrt(2)`` with ``a``, ``b`` rational
(:class:`fractions.Fraction`).  This is the smallest field containing all
coefficients that show up when lifting signed permutation matrices through
the double cover, so every computation downstream of this module is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QSqrt2:
    """An element a + b*sqrt(2) of Q(sqrt 2), immutable and hashable."""

    __slots__ = ("a", "b")

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QSqrt2 is immutable")

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
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a + b r)(c + d r) = (ac + 2bd) + (ad + bc) r  with r^2 = 2
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # 1/(a + b r) = (a - b r)/(a^2 - 2 b^2); the norm never vanishes
        # for a nonzero element because sqrt(2) is irrational.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QSqrt2(self.a / norm, -self.b / norm)

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
        return QSqrt2(self.a, -self.b)

    # -- predicates and order ------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(2): one of -1, 0, 1."""
        if self.a == 0 and self.b == 0:
            return 0
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # a and b have strictly opposite signs: compare a^2 with 2 b^2.
        if self.a > 0:
            return 1 if self.a * self.a > 2 * self.b * self.b else -1
        return -1 if self.a * self.a > 2 * self.b * self.b else 1

    def sqrt(self) -> "QSqrt2 | None":
        """The non-negative square root, if it lies in Q(sqrt 2) itself.

        Returns None when the element is negative or its square root is
        irrational over the field.
        """
        if self.sign() < 0:
            return None
        if self.is_zero():
            return QSqrt2(0, 0)
        # Want (c + d r)^2 = c^2 + 2 d^2 + 2 c d r == a + b r.
        if self.b == 0:
            c2 = _rational_sqrt(self.a)
            if c2 is not None:
                return QSqrt2(c2, 0)
            d2 = _rational_sqrt(self.a / 2)
            if d2 is not None:
                return QSqrt2(0, d2)
            return None
        # b != 0, so c, d both nonzero and d = b/(2c):
        #   2 c^4 - 2 a c^2 + b^2 = 0  =>  c^2 = (a ± sqrt(a^2 - 2 b^2)) / 2
        disc = self.a * self.a - 2 * self.b * self.b
        if disc < 0:
            return None
        root = _rational_sqrt(disc)
        if root is None:
            return None
        for branch in (root, -root):
            c_sq = (self.a + branch) / 2
            if c_sq <= 0:
                continue
            c = _rational_sqrt(c_sq)
            if c is None:
                continue
            cand = QSqrt2(c, self.b / (2 * c))
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
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}√2"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}√2"


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if x < 0:
        return None
    num = _isqrt_exact(x.numerator)
    den = _isqrt_exact(x.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None

