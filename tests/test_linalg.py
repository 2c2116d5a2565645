import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinaf import catalog as cat
from spinaf import fp, linalg
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


def naive_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


int_matrices = st.lists(
    st.lists(st.integers(-50, 50), min_size=4, max_size=4), min_size=4, max_size=4
)


@st.composite
def unimodular_matrices(draw):
    """Products of elementary matrices (I + c * E_ij, i != j) and of the
    diagonal matrices with entries +-1: integer matrices of determinant +-1."""
    A = linalg.int_identity(4)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(4)))[:2]
            E = [[int(r == c) for c in range(4)] for r in range(4)]
            E[i][j] = draw(st.integers(-3, 3))
        else:
            E = [[(draw(st.sampled_from((1, -1))) if r == c else 0) for c in range(4)]
                 for r in range(4)]
        A = naive_mul(A, E)
    return A


@settings(max_examples=200, deadline=None)
@given(A=int_matrices, B=int_matrices)
def test_int_mat_mul_is_the_triple_loop(A, B):
    assert linalg.int_mat_mul(A, B) == naive_mul(A, B)


@settings(max_examples=200, deadline=None)
@given(A=unimodular_matrices(), k=st.integers(-3, 5))
def test_int_mat_pow_is_repeated_products(A, k):
    factor = A if k >= 0 else linalg.int_mat_inverse(A)
    expected = linalg.int_identity(4)
    for _ in range(abs(k)):
        expected = naive_mul(expected, factor)
    assert linalg.int_mat_pow(A, k) == expected


def test_int_mat_inverse_of_a_dense_matrix():
    # every entry and every 2 x 2 minor of rows (0, 1) and (2, 3) is
    # nonzero, so every term of the closed-form adjugate contributes
    D = ((2, 1, -1, -1), (1, -3, -1, -2), (3, 2, -3, -3), (1, -3, -2, -3))
    D_inv = ((2, -1, -1, 1), (-3, 3, 2, -3), (-11, 13, 7, -12), (11, -12, -7, 11))
    assert naive_mul(D, D_inv) == linalg.int_identity(4)
    assert linalg.int_mat_inverse(D) == D_inv


@settings(max_examples=100, deadline=None)
@given(A=unimodular_matrices())
def test_int_mat_inverse_accepts_lists_and_tuples(A):
    as_lists = [list(row) for row in A]
    inverse = linalg.int_mat_inverse(A)
    assert linalg.int_mat_inverse(as_lists) == inverse
    assert isinstance(inverse, tuple) and all(isinstance(row, tuple) for row in inverse)
    assert naive_mul(as_lists, inverse) == linalg.int_identity(4)


def test_int_mat_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        linalg.int_mat_inverse([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_every_bundled_relator_is_the_identity_matrix():
    identity = linalg.int_identity(4)
    catalog = cat.load_catalog(cat.bundled_path("catalog.json"))
    for record in catalog.records:
        for rel in record.presentation.relators:
            letters = [(g, e.const) for g, e in rel]
            assert fp.word_matrix(record.matrices, letters) == identity, record.family


def random_qsqrt2_matrix(rng):
    """A 4 x 4 matrix over Q(sqrt 2) in which about half the entries are 0."""
    def entry():
        if rng.random() < 0.5:
            return 0
        return QSqrt2(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
    return linalg.as_matrix([[entry() for _ in range(4)] for _ in range(4)])


def test_mat_mul_is_the_dense_product():
    rng = random.Random(12)
    for _ in range(300):
        A, B = random_qsqrt2_matrix(rng), random_qsqrt2_matrix(rng)
        dense = tuple(
            tuple(sum((A[i][k] * B[k][j] for k in range(4)), QSqrt2(0)) for j in range(4))
            for i in range(4)
        )
        assert linalg.mat_mul(A, B) == dense


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
