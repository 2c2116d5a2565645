"""Small exact matrices over Q(sqrt 2): tuples of row tuples of QSqrt2
entries, at most 8 x 8.  The product, the determinant and the SO(n) check
run on the integer pairs (a, b) of the entries (a + b sqrt2)/d over one
common denominator d (:func:`_integral`); only returned entries take a gcd.
``spin`` runs the SO(n) check :func:`_check_so` on pairs it already has,
and ``is_orthogonal``, ``det`` and ``check_special_orthogonal`` wrap the
same pair code.  The integer 4 x 4 kernel of catalog loads is
:mod:`spinaf.intmat`.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence, Tuple

from .errors import DimensionError, NotInSO
from .qsqrt2 import ZERO, QSqrt2, _reduced

Matrix = Tuple[Tuple[QSqrt2, ...], ...]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Coerce a nested sequence of int/Fraction/QSqrt2 entries."""
    n = len(rows)
    out = []
    for row in rows:
        if len(row) != n:
            raise DimensionError("matrix must be square")
        out.append(tuple(x if isinstance(x, QSqrt2) else QSqrt2(x) for x in row))
    return tuple(out)


def _integral(A: Matrix) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """A common denominator d of the entries of A and its rows as integer
    pairs (a, b), the entry being (a + b sqrt2)/d."""
    d = lcm(*[x._d for row in A for x in row])
    return d, [[(x._a * (d // x._d), x._b * (d // x._d)) for x in row] for row in A]


def _dot(u: List[Tuple[int, int]], v: List[Tuple[int, int]]) -> Tuple[int, int]:
    """The integer pair of sum_k u_k v_k."""
    a = b = 0
    for (p, q), (r, s) in zip(u, v):
        a += p * r + 2 * q * s
        b += p * s + q * r
    return a, b


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """The product AB."""
    if len(B) != len(A):
        raise DimensionError("matrix size mismatch")
    da, rows = _integral(A)
    db, rows_b = _integral(B)
    cols = list(zip(*rows_b))
    return tuple(tuple(_reduced(a, b, da * db) if a or b else ZERO
                       for a, b in (_dot(row, col) for col in cols)) for row in rows)


def _minor(rows: List[List[Tuple[int, int]]], i: int, cols: Tuple[int, ...]) -> Tuple[int, int]:
    """The pair of the minor on rows i, i+1, ... and ``cols``, expanded
    along row i."""
    row = rows[i]
    if len(cols) == 1:
        return row[cols[0]]
    a = b = 0
    for k, j in enumerate(cols):
        p, q = row[j]
        if p or q:
            r, s = _minor(rows, i + 1, cols[:k] + cols[k + 1:])
            if k % 2:
                p, q = -p, -q
            a += p * r + 2 * q * s
            b += p * s + q * r
    return a, b


def det(A: Matrix) -> QSqrt2:
    """The determinant by cofactor expansion (n <= 8, so this is fine), over
    d^n for the common denominator d."""
    n = len(A)
    d, rows = _integral(A)
    a, b = _minor(rows, 0, tuple(range(n)))
    return _reduced(a, b, d ** n) if a or b else ZERO


def _orthogonal(d: int, rows: List[List[Tuple[int, int]]]) -> bool:
    """Whether the matrix of integer pair rows over d has A A^T = d^2 I."""
    one, zero = (d * d, 0), (0, 0)
    return all(_dot(u, v) == (one if i == j else zero)
               for i, u in enumerate(rows) for j, v in enumerate(rows[i:], i))


def _check_so(d: int, rows: List[List[Tuple[int, int]]]) -> None:
    """NotInSO unless the matrix of integer pair rows over d is in SO(n):
    A A^T = d^2 I, and then the determinant's pair is (d^n, 0)."""
    if not _orthogonal(d, rows):
        raise NotInSO("matrix is not orthogonal")
    if _minor(rows, 0, tuple(range(len(rows)))) != (d ** len(rows), 0):
        raise NotInSO("matrix is orthogonal but has determinant -1")


def is_orthogonal(A: Matrix) -> bool:
    """Whether A A^T = I."""
    return _orthogonal(*_integral(A))


def check_special_orthogonal(A: Matrix) -> None:
    _check_so(*_integral(A))
