"""Exact arithmetic in the cyclotomic field Q(zeta_12).

Every character value of the holonomy groups in dimension four lies in
Q(zeta_12): the eigenvalues of a finite-order element of GL(4, Z) are roots
of unity of order 1, 2, 3, 4, 6 or 12.  Elements are stored on the power
basis 1, z, z^2, z^3 modulo the minimal polynomial z^4 - z^2 + 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import InconsistentRecord


class Cyc12:
    """An element of Q(zeta_12) on the power basis (1, z, z^2, z^3)."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        object.__setattr__(
            self, "c", tuple(Fraction(x) for x in (c0, c1, c2, c3))
        )

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Cyc12 is immutable")

    @classmethod
    def _raw(cls, coeffs: Sequence[Fraction]) -> "Cyc12":
        out = object.__new__(cls)
        object.__setattr__(out, "c", tuple(coeffs))
        return out

    @classmethod
    def zeta_pow(cls, k: int) -> "Cyc12":
        """zeta_12 ** k for any integer k."""
        return _ZETA_POWERS[k % 12]

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc12):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc12(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc12._raw([a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc12._raw([-a for a in self.c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [Fraction(0)] * 7
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(o.c):
                prod[i + j] += a * b
        # reduce modulo z^4 = z^2 - 1
        for k in range(6, 3, -1):
            if prod[k]:
                prod[k - 2] += prod[k]
                prod[k - 4] -= prod[k]
                prod[k] = Fraction(0)
        return Cyc12._raw(prod[:4])

    __rmul__ = __mul__

    def conjugate(self) -> "Cyc12":
        """Complex conjugation: zeta -> zeta^-1."""
        out = Cyc12(self.c[0])
        for k in (1, 2, 3):
            if self.c[k]:
                out = out + Cyc12.zeta_pow(-k) * self.c[k]
        return out

    # -- inspection --------------------------------------------------------

    def is_rational(self) -> bool:
        return self.c[1] == 0 and self.c[2] == 0 and self.c[3] == 0

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise InconsistentRecord(f"expected a rational value, got {self!r}")
        return self.c[0]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"Cyc12{self.c}"

    def __str__(self):
        labels = ("", "z", "z^2", "z^3")
        parts = []
        for coeff, lab in zip(self.c, labels):
            if coeff == 0:
                continue
            if not lab:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(lab)
            elif coeff == -1:
                parts.append(f"-{lab}")
            else:
                parts.append(f"{coeff}{lab}")
        if not parts:
            return "0"
        out = parts[0]
        for pz in parts[1:]:
            out += f" - {pz[1:]}" if pz.startswith("-") else f" + {pz}"
        return out


def _zeta_power_table() -> List[Cyc12]:
    powers = [Cyc12(1)]
    z = Cyc12(0, 1)
    for _ in range(11):
        powers.append(powers[-1] * z)
    return powers


_ZETA_POWERS: List[Cyc12] = []
_ZETA_POWERS.extend(_zeta_power_table())

I = Cyc12.zeta_pow(3)
ZETA3 = Cyc12.zeta_pow(4)
ZETA6 = Cyc12.zeta_pow(2)


def __getattr__(name: str):
    # ``lift_power_sign`` lives in ``spinaf.fp``; spinbench's tracer still
    # looks it up here
    if name == "lift_power_sign":
        from . import fp

        return fp.lift_power_sign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
