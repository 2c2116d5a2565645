"""Small exact matrix utilities over Q(sqrt 2), and the integer 4 x 4 kernel.

Matrices are tuples of row tuples of :class:`QSqrt2` entries.  Nothing here
is asymptotically clever; every matrix in sight is at most 8 x 8 (and the
interesting ones are 4 x 4), so clarity wins.  The integer helpers
(``int_*``) are the exception: they run under every catalog load, so the
4 x 4 product and inverse are written out.
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


def is_signed_perm(A) -> bool:
    """Whether every row and every column of A (integer or Q(sqrt 2)
    entries) has exactly one nonzero entry, and that entry is +-1."""
    return all(x in (0, 1, -1) for row in A for x in row) and all(
        sum(1 for x in line if x) == 1 for line in (*A, *zip(*A))
    )


# ---------------------------------------------------------------------------
# the exact integer 4 x 4 kernel
#
# Every holonomy matrix is a 4 x 4 integer matrix, and every catalog load
# multiplies and inverts them thousands of times (relator checks, holonomy
# closures, Sylow pullbacks).  Integer matrices are tuples of row tuples;
# lists are accepted as input.
# ---------------------------------------------------------------------------


def int_mat_mul(A, B):
    """The product of two 4 x 4 integer matrices, row by column."""
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = B
    return tuple([
        (
            a0 * b00 + a1 * b10 + a2 * b20 + a3 * b30,
            a0 * b01 + a1 * b11 + a2 * b21 + a3 * b31,
            a0 * b02 + a1 * b12 + a2 * b22 + a3 * b32,
            a0 * b03 + a1 * b13 + a2 * b23 + a3 * b33,
        )
        for a0, a1, a2, a3 in A
    ])


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
    """Inverse of a 4 x 4 integer matrix with determinant +-1.

    The adjugate in closed form, by Laplace expansion along the top and the
    bottom pair of rows: s_ij are the 2 x 2 minors of rows 0, 1 and c_ij
    those of rows 2, 3, in columns i < j.
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = A
    s01, s02, s03 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
    s12, s13, s23 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c01, c02, c03 = a20 * a31 - a30 * a21, a20 * a32 - a30 * a22, a20 * a33 - a30 * a23
    c12, c13, c23 = a21 * a32 - a31 * a22, a21 * a33 - a31 * a23, a22 * a33 - a32 * a23
    d = s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01
    if d not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")
    # 1/d = d
    return (
        (d * (a11 * c23 - a12 * c13 + a13 * c12), d * (-a01 * c23 + a02 * c13 - a03 * c12),
         d * (a31 * s23 - a32 * s13 + a33 * s12), d * (-a21 * s23 + a22 * s13 - a23 * s12)),
        (d * (-a10 * c23 + a12 * c03 - a13 * c02), d * (a00 * c23 - a02 * c03 + a03 * c02),
         d * (-a30 * s23 + a32 * s03 - a33 * s02), d * (a20 * s23 - a22 * s03 + a23 * s02)),
        (d * (a10 * c13 - a11 * c03 + a13 * c01), d * (-a00 * c13 + a01 * c03 - a03 * c01),
         d * (a30 * s13 - a31 * s03 + a33 * s01), d * (-a20 * s13 + a21 * s03 - a23 * s01)),
        (d * (-a10 * c12 + a11 * c02 - a12 * c01), d * (a00 * c12 - a01 * c02 + a02 * c01),
         d * (-a30 * s12 + a31 * s02 - a32 * s01), d * (a20 * s12 - a21 * s02 + a22 * s01)),
    )


def int_mat_pow(A, k: int):
    """A^k for a 4 x 4 integer matrix, by repeated squaring; k < 0 needs
    determinant +-1."""
    if k < 0:
        A, k = int_mat_inverse(A), -k
    R = None
    while k:
        if k & 1:
            R = A if R is None else int_mat_mul(R, A)
        k >>= 1
        if k:
            A = int_mat_mul(A, A)
    return int_identity(4) if R is None else tuple(map(tuple, R))
