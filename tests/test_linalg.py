from fractions import Fraction
import pytest

from spinaf import linalg
from spinaf.errors import NotSignedPerm
from spinaf.qsqrt2 import QSqrt2


I4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
R = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_int_helpers():
    assert linalg.int_det(I4) == 1
    assert linalg.int_det(R) == 1
    assert linalg.int_mat_mul(R, linalg.int_mat_inverse(R)) == linalg.int_identity(4)
    assert linalg.int_mat_pow(R, 4) == linalg.int_identity(4)
    flip = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert linalg.int_det(flip) == -1


def test_det_and_orthogonality():
    M = linalg.as_matrix(R)
    assert linalg.det(M) == QSqrt2(1)
    assert linalg.is_orthogonal(M)
    half = QSqrt2(0, Fraction(1, 2))  # (sqrt2)/2
    rot45 = linalg.as_matrix(
        [[half, -half, 0, 0], [half, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert linalg.is_orthogonal(rot45)
    assert linalg.det(rot45) == QSqrt2(1)
    assert not linalg.is_orthogonal(linalg.as_matrix([[2 if i == j else 0 for j in range(4)] for i in range(4)]))


def test_signed_perm_decompose():
    rows = [[0, 0, 1, 0], [1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1]]
    cols = linalg.signed_perm_decompose(linalg.as_matrix(rows))
    # column j carries sign * e_{sigma(j)}
    assert cols[0] == (1, 1)
    assert cols[1] == (2, -1)
    assert cols[2] == (0, 1)
    assert cols[3] == (3, -1)
    # integer entries decompose the same way
    assert linalg.signed_perm_decompose(rows) == cols
    assert not linalg.is_signed_perm([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    assert not linalg.is_signed_perm([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSignedPerm):
        half = QSqrt2(0, Fraction(1, 2))
        linalg.signed_perm_decompose(linalg.as_matrix(
            [[half, -half, 0, 0], [half, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        ))


def test_nullspace():
    # rank-1 system over Q(sqrt2)
    A = [[QSqrt2(1), QSqrt2(1)], [QSqrt2(2), QSqrt2(2)]]
    basis = linalg.nullspace(A, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == QSqrt2(0)
    # full-rank system has trivial nullspace
    B = [[QSqrt2(1), QSqrt2(0)], [QSqrt2(0), QSqrt2(1)]]
    assert linalg.nullspace(B, 2) == []
