"""Small exact matrix utilities over Q(sqrt 2).

Matrices are tuples of row tuples of :class:`QSqrt2` entries.  Nothing here
is asymptotically clever; every matrix in sight is at most 8 x 8 (and the
interesting ones are 4 x 4), so clarity wins.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import DimensionError, NotInSO
from .qsqrt2 import QSqrt2

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
    return tuple(
        tuple(QSqrt2(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    if len(B) != n:
        raise DimensionError("matrix size mismatch")
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), QSqrt2(0)) for j in range(n))
        for i in range(n)
    )


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def det(A: Matrix) -> QSqrt2:
    """Determinant by fraction-free expansion (n <= 8, so this is fine)."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = QSqrt2(0)
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


def is_signed_perm(A) -> bool:
    """Whether every row and every column of A (integer or Q(sqrt 2)
    entries) has exactly one nonzero entry, and that entry is +-1."""
    return all(x in (0, 1, -1) for row in A for x in row) and all(
        sum(1 for x in line if x) == 1 for line in (*A, *zip(*A))
    )


def int_mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def int_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def int_det(A) -> int:
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        if A[0][j] == 0:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in A[1:])
        total += (1 if j % 2 == 0 else -1) * A[0][j] * int_det(minor)
    return total


def int_mat_inverse(A):
    """Inverse of an integer matrix with determinant +-1 (adjugate)."""
    n = len(A)
    d = int_det(A)
    if d not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(A[r][c] for c in range(n) if c != j)
                for r in range(n) if r != i
            )
            cof = int_det(minor) if minor else 1
            adj[j][i] = ((-1) ** (i + j)) * cof * d
    return tuple(tuple(row) for row in adj)


def int_mat_pow(A, k: int):
    n = len(A)
    if k < 0:
        return int_mat_pow(int_mat_inverse(A), -k)
    R = int_identity(n)
    while k:
        if k & 1:
            R = int_mat_mul(R, A)
        k >>= 1
        if k:
            A = int_mat_mul(A, A)
    return R
