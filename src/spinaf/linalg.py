"""Small exact matrix utilities over Q(sqrt 2).

Matrices are tuples of row tuples of :class:`QSqrt2` entries.  Nothing here
is asymptotically clever; every matrix in sight is at most 8 x 8 (and the
interesting ones are 4 x 4), so clarity wins.  The integer 4 x 4 kernel
that every catalog load runs is :mod:`spinaf.intmat`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import DimensionError, NotInSO
from .qsqrt2 import ZERO, QSqrt2

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


def identity(n: int) -> Matrix:
    one = QSqrt2(1)
    return tuple(tuple(one if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """The product AB; zero entries of A and B are skipped, not multiplied."""
    n = len(A)
    if len(B) != n:
        raise DimensionError("matrix size mismatch")
    out = []
    for row in A:
        acc = [ZERO] * n
        for a, B_row in zip(row, B):
            if a:
                for j, b in enumerate(B_row):
                    if b:
                        acc[j] = acc[j] + a * b
        out.append(tuple(acc))
    return tuple(out)


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def det(A: Matrix) -> QSqrt2:
    """Determinant by fraction-free expansion (n <= 8, so this is fine)."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = ZERO
    for j in range(n):
        if A[0][j].is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in A[1:])
        term = A[0][j] * det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def is_orthogonal(A: Matrix) -> bool:
    return mat_mul(A, transpose(A)) == identity(len(A))


def check_special_orthogonal(A: Matrix) -> None:
    if not is_orthogonal(A):
        raise NotInSO("matrix is not orthogonal")
    if det(A) != QSqrt2(1):
        raise NotInSO("matrix is orthogonal but has determinant -1")
