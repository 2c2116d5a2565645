"""The real Clifford algebra C_n with e_i^2 = -1.

Basis blades are encoded as bitmasks: bit *i* (counting from zero) set in a
mask means the generator ``e_{i+1}`` occurs in the blade.  A general element
is a finite sum of blades with coefficients in Q(sqrt 2), stored sparsely
with exact zero pruning.  Dimensions 1 through 8 are supported; everything
this package needs lives in C_4.

Products look blade signs up in :func:`sign_table`, a 2^n x 2^n table that
:func:`blade_product` fills once per dimension, on first use, and run in
integers: one denominator per factor, one gcd per output blade.  The one
product kernel, :func:`_product`, works on (mask, a, b) lists, so
``rotors.frame_preimage`` multiplies with it without building elements.
Results of the algebra's own operations are not re-checked;
``CliffordElement(n, terms)`` checks its input.  A scalar operand is a QSqrt2 or a ``numbers.Rational``,
so the module does not import ``fractions``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cache
from math import lcm
from numbers import Rational
from typing import Dict, Sequence, Tuple

from .errors import DimensionError
from .qsqrt2 import ZERO, QSqrt2, _reduced

MAX_DIM = 8

_new = object.__new__
_set = object.__setattr__


def _coerce_coeff(c) -> QSqrt2:
    if isinstance(c, QSqrt2):
        return c
    if isinstance(c, Rational):
        return QSqrt2(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or not (1 <= n <= MAX_DIM):
        raise DimensionError(f"dimension must be an integer in [1, {MAX_DIM}], got {n!r}")


def blade_product(x: int, y: int) -> Tuple[int, int]:
    """Multiply two basis blades given as bitmasks.

    Returns ``(sign, mask)`` with sign in {+1, -1} and ``mask = x ^ y``.
    The sign counts the transpositions needed to merge the two ascending
    index lists, plus one factor of -1 for every repeated generator
    (e_i^2 = -1).
    """
    # each generator e_(i+1) of y passes the generators of x above it
    swaps = sum((x >> (i + 1)).bit_count() for i in range(y.bit_length()) if y >> i & 1)
    return (-1 if (swaps + (x & y).bit_count()) % 2 else 1), x ^ y


@cache
def sign_table(n: int) -> Tuple[Tuple[bool, ...], ...]:
    """Rows of the blade signs of C_n: entry [x][y] is true when the product
    of blades x and y is -e_(x^y)."""
    size = 1 << n
    return tuple(tuple(blade_product(x, y)[0] < 0 for y in range(size)) for x in range(size))


def blade_str(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(MAX_DIM) if mask >> i & 1)


class CliffordElement:
    """An element of C_n, immutable.

    ``terms`` maps blade masks to nonzero QSqrt2 coefficients.
    """

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[int, object] | Iterable[Tuple[int, object]] = ()):
        _check_dim(n)
        _set(self, "n", n)
        clean: Dict[int, QSqrt2] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mask, coeff in items:
            if not isinstance(mask, int) or mask < 0 or mask >= (1 << n):
                raise DimensionError(f"blade mask {mask!r} does not fit in dimension {n}")
            c = _coerce_coeff(coeff)
            if mask in clean:
                c = clean[mask] + c
            if c.is_zero():
                clean.pop(mask, None)
            else:
                clean[mask] = c
        _set(self, "_terms", clean)
        _set(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value) -> "CliffordElement":
        return cls(n, {0: value})

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls(n, {})

    @classmethod
    def generator(cls, n: int, i: int) -> "CliffordElement":
        """The generator e_i (1-based)."""
        _check_dim(n)
        if not (1 <= i <= n):
            raise DimensionError(f"generator index {i} out of range for dimension {n}")
        return cls(n, {1 << (i - 1): 1})

    @classmethod
    def blade(cls, n: int, indices: Sequence[int], coeff=1) -> "CliffordElement":
        """The blade e_{i1}...e_{ik} for strictly increasing 1-based indices."""
        mask = 0
        prev = 0
        for i in indices:
            if not (1 <= i <= n):
                raise DimensionError(f"index {i} out of range for dimension {n}")
            if i <= prev:
                raise ValueError("blade indices must be strictly increasing")
            mask |= 1 << (i - 1)
            prev = i
        return cls(n, {mask: coeff})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Dict[int, QSqrt2]:
        return dict(self._terms)

    def coeff(self, mask: int) -> QSqrt2:
        return self._terms.get(mask, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> set:
        return {m.bit_count() for m in self._terms}

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self._terms)

    # -- ring structure ---------------------------------------------------

    def _check_same(self, other: "CliffordElement") -> None:
        if self.n != other.n:
            raise DimensionError(f"cannot combine C_{self.n} and C_{other.n} elements")

    def _operand(self, other) -> "CliffordElement | None":
        """``other`` as an element: itself, the scalar of a QSqrt2 or a
        rational, or None for anything else."""
        if isinstance(other, CliffordElement):
            return other
        if isinstance(other, (QSqrt2, Rational)):
            return CliffordElement.scalar(self.n, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, ZERO) + c
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return _element(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, c) -> "CliffordElement":
        c = _coerce_coeff(c)
        if c.is_zero():
            return CliffordElement.zero(self.n)
        return _element(self.n, {m: coeff * c for m, coeff in self._terms.items()})

    def __mul__(self, other):
        """The product by :func:`_product`; the result is not re-checked."""
        if not isinstance(other, CliffordElement):
            return self.scale(other) if isinstance(other, (QSqrt2, Rational)) else NotImplemented
        self._check_same(other)
        dx, xs = _integral(self._terms)
        dy, ys = _integral(other._terms)
        d = dx * dy
        return _element(self.n, {m: _reduced(a, b, d) for m, a, b in _product(self.n, xs, ys)})

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, (QSqrt2, Rational)) else NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = None  # repeated squaring without a factor 1 or a last, unused square
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return CliffordElement.scalar(self.n, 1) if result is None else result

    # -- the three involutions -------------------------------------------

    def _negate_grades(self, residues) -> "CliffordElement":
        """Negate the grade-k parts with k mod 4 in ``residues``."""
        return _element(self.n, {m: -c if m.bit_count() % 4 in residues else c
                                 for m, c in self._terms.items()})

    def star(self) -> "CliffordElement":
        """Reversal: (-1)^(k(k-1)/2) on each grade-k part."""
        return self._negate_grades((2, 3))

    def grade_involution(self) -> "CliffordElement":
        """The main involution: (-1)^k on each grade-k part."""
        return self._negate_grades((1, 3))

    def conjugate(self) -> "CliffordElement":
        """Clifford conjugation, the composite of the other two involutions."""
        return self._negate_grades((1, 2))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"CliffordElement({self.n}, {self._terms!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms):
            c = self._terms[m]
            cs = str(c)
            if " " in cs:  # mixed a + b sqrt2 coefficient
                cs = f"({cs})"
            if m == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(blade_str(m))
            elif cs == "-1":
                parts.append(f"-{blade_str(m)}")
            else:
                parts.append(f"{cs}·{blade_str(m)}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _element(n: int, terms: Dict[int, QSqrt2]) -> CliffordElement:
    """The element with an already clean ``terms`` (masks in range, nonzero
    coefficients in normal form), built without the constructor's checks."""
    x = _new(CliffordElement)
    _set(x, "n", n)
    _set(x, "_terms", terms)
    _set(x, "_hash", None)
    return x


def _integral(terms: Dict[int, QSqrt2]) -> Tuple[int, list]:
    """A common denominator d of the coefficients and, per blade, the
    integer pair (a, b) with coefficient (a + b sqrt2)/d."""
    d = lcm(*[c._d for c in terms.values()])
    return d, [(m, c._a * (d // c._d), c._b * (d // c._d)) for m, c in terms.items()]


def _product(n: int, xs: list, ys: list) -> list:
    """The product kernel on (mask, a, b) lists, each factor over its own
    denominator and the nonzero terms of the result over their product: a
    blade pair adds +-(a1 a2 + 2 b1 b2, a1 b2 + b1 a2) to its output blade."""
    negative = sign_table(n)
    acc: Dict[int, list] = {}
    for mx, ax, bx in xs:
        row = negative[mx]
        for my, ay, by in ys:
            pair = acc.setdefault(mx ^ my, [0, 0])
            if row[my]:
                pair[0] -= ax * ay + 2 * bx * by
                pair[1] -= ax * by + bx * ay
            else:
                pair[0] += ax * ay + 2 * bx * by
                pair[1] += ax * by + bx * ay
    return [(m, a, b) for m, (a, b) in acc.items() if a or b]

