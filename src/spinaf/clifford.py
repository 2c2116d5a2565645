"""The real Clifford algebra C_n with e_i^2 = -1.

Basis blades are encoded as bitmasks: bit *i* (counting from zero) set in a
mask means the generator ``e_{i+1}`` occurs in the blade.  A general element
is a finite sum of blades with coefficients in Q(sqrt 2), stored sparsely
with exact zero pruning.  Dimensions 1 through 8 are supported; everything
this package needs lives in C_4.

Products look blade signs up in :func:`sign_table`, a 2^n x 2^n table that
:func:`blade_product` fills once per dimension, on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import DimensionError, NonVectorError
from .qsqrt2 import ZERO, QSqrt2

MAX_DIM = 8

def _coerce_coeff(c) -> QSqrt2:
    if isinstance(c, QSqrt2):
        return c
    if isinstance(c, (int, Fraction)):
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
    swaps = 0
    rest = y
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        # generators of x strictly above e_{i+1} that e_{i+1} must pass
        swaps += ((x >> (i + 1))).bit_count()
        rest ^= low
    repeats = (x & y).bit_count()
    sign = -1 if (swaps + repeats) % 2 else 1
    return sign, x ^ y


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
        object.__setattr__(self, "n", n)
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
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = CliffordElement.scalar(self.n, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check_same(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, ZERO) + c
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return CliffordElement(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = CliffordElement.scalar(self.n, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, c) -> "CliffordElement":
        c = _coerce_coeff(c)
        if c.is_zero():
            return CliffordElement.zero(self.n)
        return CliffordElement(self.n, {m: coeff * c for m, coeff in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            return self.scale(other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check_same(other)
        negative = sign_table(self.n)
        acc: Dict[int, QSqrt2] = {}
        for mx, cx in self._terms.items():
            row = negative[mx]
            for my, cy in other._terms.items():
                c = cx * cy
                mask = mx ^ my
                acc[mask] = acc.get(mask, ZERO) + (-c if row[my] else c)
        return CliffordElement(self.n, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            return self.scale(other)
        return NotImplemented

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

    def star(self) -> "CliffordElement":
        """Reversal: (-1)^(k(k-1)/2) on each grade-k part."""
        out = {}
        for m, c in self._terms.items():
            k = m.bit_count()
            out[m] = -c if (k * (k - 1) // 2) % 2 else c
        return CliffordElement(self.n, out)

    def grade_involution(self) -> "CliffordElement":
        """The main involution: (-1)^k on each grade-k part."""
        out = {}
        for m, c in self._terms.items():
            out[m] = -c if m.bit_count() % 2 else c
        return CliffordElement(self.n, out)

    def conjugate(self) -> "CliffordElement":
        """Clifford conjugation, the composite of the other two involutions."""
        out = {}
        for m, c in self._terms.items():
            k = m.bit_count()
            out[m] = -c if (k * (k + 1) // 2) % 2 else c
        return CliffordElement(self.n, out)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = CliffordElement.scalar(self.n, other)
        if not isinstance(other, CliffordElement):
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


def vector_embed(n: int, coords: Sequence) -> CliffordElement:
    """Embed a coordinate vector of length n as sum_i coords[i] * e_{i+1}."""
    _check_dim(n)
    if len(coords) != n:
        raise DimensionError(f"expected {n} coordinates, got {len(coords)}")
    return CliffordElement(n, {1 << i: c for i, c in enumerate(coords)})


def vector_extract(x: CliffordElement) -> list:
    """Inverse of :func:`vector_embed`; raises NonVectorError off grade 1."""
    for m in x._terms:
        if m.bit_count() != 1:
            raise NonVectorError(f"element has a non-vector component on blade {blade_str(m)}")
    return [x.coeff(1 << i) for i in range(x.n)]
