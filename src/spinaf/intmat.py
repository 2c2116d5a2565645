"""The exact integer 4 x 4 kernel under every catalog load.

Every holonomy matrix is a 4 x 4 integer matrix.  Loading a catalog closes
them into a finite group (one product per element and generator), checks
their determinants, and ``lift_power_sign`` reads a trace off their powers;
so the 4 x 4 product, determinant and inverse are written out.  Integer
matrices are tuples of row tuples; lists are accepted as input.  Matrices
over Q(sqrt 2) live in :mod:`spinaf.linalg`, which the commands that count
never import.
"""

from __future__ import annotations


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
    """The determinant of a 4 x 4 integer matrix, by Laplace expansion
    along the top and the bottom pair of rows, as in ``int_mat_inverse``."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = A
    return ((a00 * a11 - a10 * a01) * (a22 * a33 - a32 * a23)
            - (a00 * a12 - a10 * a02) * (a21 * a33 - a31 * a23)
            + (a00 * a13 - a10 * a03) * (a21 * a32 - a31 * a22)
            + (a01 * a12 - a11 * a02) * (a20 * a33 - a30 * a23)
            - (a01 * a13 - a11 * a03) * (a20 * a32 - a30 * a22)
            + (a02 * a13 - a12 * a03) * (a20 * a31 - a30 * a21))


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


def is_signed_perm(A) -> bool:
    """Whether every row and every column of A (integer or Q(sqrt 2)
    entries) has exactly one nonzero entry, and that entry is +-1."""
    return all(x in (0, 1, -1) for row in A for x in row) and all(
        sum(1 for x in line if x) == 1 for line in (*A, *zip(*A))
    )
