"""Small exact matrices over Q(sqrt 2): tuples of row tuples of QSqrt2
entries, at most 8 x 8.  The product, the determinant and the SO(n) check
run on the integer pairs (a, b) of the entries (a + b sqrt2)/d over one
common denominator d; only returned entries take a gcd.  Most inputs are
signed permutations, so ``mat_mul`` reads each factor once into its
nonzero (column, a, b) entries (:func:`_entries`), and the orthogonality
test dots the nonzero entries of a row with the dense rows of
:func:`_integral`, still comparing every entry of A A^T, both parts.
``rotors`` runs the SO(n) check :func:`_check_so` on pairs it already has,
``spin`` only to name why a 4 x 4 matrix is not in SO(4), and
``is_orthogonal``, ``det`` and ``check_special_orthogonal`` wrap the same
pair code.  The integer 4 x 4 kernel of catalog loads is :mod:`spinaf.intmat`.
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


def _entries(A: Matrix) -> Tuple[int, List[List[Tuple[int, int, int]]]]:
    """A common denominator d of the entries of A and each row's nonzero
    entries as (column, a, b), the entry being (a + b sqrt2)/d."""
    d = lcm(*[x._d for row in A for x in row])
    return d, [[(k, x._a * (d // x._d), x._b * (d // x._d)) for k, x in enumerate(row) if x._a or x._b] for row in A]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """The product AB: row i adds each nonzero A[i][k] times B's row k."""
    n = len(A)
    if len(B) != n:
        raise DimensionError("matrix size mismatch")
    (da, rows), (db, rows_b) = _entries(A), _entries(B)
    d, out = da * db, []
    for u in rows:
        acc_a, acc_b = [0] * n, [0] * n
        for k, p, q in u:
            for j, r, s in rows_b[k]:
                acc_a[j] += p * r + 2 * q * s
                acc_b[j] += p * s + q * r
        out.append(tuple([_reduced(a, b, d) if a or b else ZERO for a, b in zip(acc_a, acc_b)]))
    return tuple(out)


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
    """Whether the matrix of integer pair rows over d has A A^T = d^2 I,
    row i dotted with itself and the rows below over its nonzero entries."""
    for i, row in enumerate(rows):
        u, a, b = [(k, p, q) for k, (p, q) in enumerate(row) if p or q], 0, 0
        for _, p, q in u:
            a += p * p + 2 * q * q
            b += p * q
        if b or a != d * d:
            return False
        for v in rows[i + 1:]:
            a = b = 0
            for k, p, q in u:
                r, s = v[k]
                a += p * r + 2 * q * s
                b += p * s + q * r
            if a or b:
                return False
    return True


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
