from fractions import Fraction

from spinaf import linalg
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


def test_is_signed_perm():
    rows = [[0, 0, 1, 0], [1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1]]
    # integer and Q(sqrt 2) entries alike
    assert linalg.is_signed_perm(rows)
    assert linalg.is_signed_perm(linalg.as_matrix(rows))
    assert linalg.is_signed_perm(I4)
    # a row and a column with two nonzero entries
    assert not linalg.is_signed_perm([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    # an entry other than +-1
    assert not linalg.is_signed_perm([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # one nonzero entry per column, but two in a row and none in another
    assert not linalg.is_signed_perm([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # orthogonal over Q(sqrt 2), but not a signed permutation
    half = QSqrt2(0, Fraction(1, 2))
    assert not linalg.is_signed_perm(linalg.as_matrix(
        [[half, -half, 0, 0], [half, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    ))
