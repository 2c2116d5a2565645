import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinaf import intmat, linalg, oracles
from spinaf.errors import NotInSO
from spinaf.qsqrt2 import QSqrt2


I4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
R = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_int_helpers():
    assert intmat.int_det(I4) == 1
    assert intmat.int_det(R) == 1
    assert intmat.int_mat_mul(R, intmat.int_mat_inverse(R)) == intmat.int_identity(4)
    assert intmat.int_mat_pow(R, 4) == intmat.int_identity(4)
    flip = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert intmat.int_det(flip) == -1


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
    A = intmat.int_identity(4)
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
    assert intmat.int_mat_mul(A, B) == naive_mul(A, B)


@settings(max_examples=200, deadline=None)
@given(A=unimodular_matrices(), k=st.integers(-3, 5))
def test_int_mat_pow_is_repeated_products(A, k):
    factor = A if k >= 0 else intmat.int_mat_inverse(A)
    expected = intmat.int_identity(4)
    for _ in range(abs(k)):
        expected = naive_mul(expected, factor)
    assert intmat.int_mat_pow(A, k) == expected


def cofactor_det(A):
    """The determinant by cofactor expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)))


@settings(max_examples=200, deadline=None)
@given(A=int_matrices)
def test_int_det_is_the_cofactor_expansion(A):
    assert intmat.int_det(A) == cofactor_det(A)
    assert intmat.int_det(tuple(map(tuple, A))) == cofactor_det(A)


def test_int_mat_inverse_of_a_dense_matrix():
    # every entry and every 2 x 2 minor of rows (0, 1) and (2, 3) is
    # nonzero, so every term of the closed-form adjugate contributes
    D = ((2, 1, -1, -1), (1, -3, -1, -2), (3, 2, -3, -3), (1, -3, -2, -3))
    D_inv = ((2, -1, -1, 1), (-3, 3, 2, -3), (-11, 13, 7, -12), (11, -12, -7, 11))
    assert naive_mul(D, D_inv) == intmat.int_identity(4)
    assert intmat.int_mat_inverse(D) == D_inv


@settings(max_examples=100, deadline=None)
@given(A=unimodular_matrices())
def test_int_mat_inverse_accepts_lists_and_tuples(A):
    as_lists = [list(row) for row in A]
    inverse = intmat.int_mat_inverse(A)
    assert intmat.int_mat_inverse(as_lists) == inverse
    assert isinstance(inverse, tuple) and all(isinstance(row, tuple) for row in inverse)
    assert naive_mul(as_lists, inverse) == intmat.int_identity(4)


def test_int_mat_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        intmat.int_mat_inverse([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_every_bundled_relator_is_the_identity_matrix(bundled):
    identity = intmat.int_identity(4)
    catalog, _ = bundled
    for record in catalog.records:
        for rel in record.presentation.relators:
            letters = [(g, e.const) for g, e in rel]
            assert oracles.word_matrix(record.matrices, letters) == identity, record.family


def random_qsqrt2_matrix(rng, n=4):
    """An n x n matrix over Q(sqrt 2) in which about half the entries are 0."""
    def entry():
        if rng.random() < 0.5:
            return 0
        return QSqrt2(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
    return linalg.as_matrix([[entry() for _ in range(n)] for _ in range(n)])


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
    assert intmat.is_signed_perm(rows)
    assert intmat.is_signed_perm(linalg.as_matrix(rows))
    assert intmat.is_signed_perm(I4)
    # a row and a column with two nonzero entries
    assert not intmat.is_signed_perm([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    # an entry other than +-1
    assert not intmat.is_signed_perm([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # one nonzero entry per column, but two in a row and none in another
    assert not intmat.is_signed_perm([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # orthogonal over Q(sqrt 2), but not a signed permutation
    half = QSqrt2(0, Fraction(1, 2))
    assert not intmat.is_signed_perm(linalg.as_matrix(
        [[half, -half, 0, 0], [half, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    ))


def test_det_is_the_cofactor_expansion_over_qsqrt2():
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(40):
            A = random_qsqrt2_matrix(rng, n)
            d = linalg.det(A)
            assert isinstance(d, QSqrt2)
            assert d == cofactor_det(A), A


def orthogonal_matrices(rng, n):
    """Orthogonal n x n matrices over Q(sqrt 2): products of rotations by
    45 degrees, by 90 degrees and by the angle with cosine 3/5 in random
    coordinate planes, one of them with a row negated (determinant -1)."""
    half = QSqrt2(0, Fraction(1, 2))
    out = []
    for _ in range(12):
        M = oracles.identity(n)
        for _ in range(rng.randint(0, 4) if n > 1 else 0):
            i, k = rng.sample(range(n), 2)
            c, s = rng.choice([(half, half), (QSqrt2(0), QSqrt2(1)),
                               (QSqrt2(Fraction(3, 5)), QSqrt2(Fraction(4, 5)))])
            G = [list(row) for row in oracles.identity(n)]
            G[i][i], G[i][k], G[k][i], G[k][k] = c, -s, s, c
            M = linalg.mat_mul(M, linalg.as_matrix(G))
        out.append(M)
    flipped = list(out[-1])
    flipped[0] = tuple(-x for x in flipped[0])
    out.append(tuple(flipped))
    return out


def test_is_orthogonal_is_the_product_with_the_transpose():
    rng = random.Random(14)
    # u^2 = 1 + (4/9) sqrt2: a row scaled by u keeps the rational part of
    # A A^T equal to I and changes only its sqrt 2 part
    u = QSqrt2(Fraction(1, 3), Fraction(2, 3))
    verdicts = []
    for n in range(1, 6):
        for M in orthogonal_matrices(rng, n):
            scaled = tuple((tuple(u * x for x in row) if i == 0 else row) for i, row in enumerate(M))
            for A in (M, scaled, random_qsqrt2_matrix(rng, n)):
                verdict = linalg.is_orthogonal(A)
                assert verdict == (linalg.mat_mul(A, oracles.transpose(A)) == oracles.identity(n)), A
                verdicts.append(verdict)
            assert linalg.is_orthogonal(M) and not linalg.is_orthogonal(scaled)
            if cofactor_det(M) == QSqrt2(1):
                linalg.check_special_orthogonal(M)
            else:
                with pytest.raises(NotInSO, match="^matrix is orthogonal but has determinant -1$"):
                    linalg.check_special_orthogonal(M)
            with pytest.raises(NotInSO, match="^matrix is not orthogonal$"):
                linalg.check_special_orthogonal(scaled)
    assert True in verdicts and False in verdicts


def triple_loop(A, B):
    """The product AB entry by entry, zeros included."""
    n = len(A)
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(n)), QSqrt2(0)) for j in range(n))
                 for i in range(n))


def sparse_kernel_cases(rng, n):
    """(label, matrix, A A^T = I) for the edge cases of the row-sparse
    kernels: signed permutations, a zero row, one entry of a signed
    permutation perturbed only in its sqrt 2 part, a row orthogonal to the
    others with a wrong norm (twice the row, and u times it, whose norm is
    off only in its sqrt 2 part), and, for n >= 2, rows of norm 1 whose
    product is 2 sqrt2/3, wrong only in the sqrt 2 part off the diagonal."""
    u = QSqrt2(Fraction(1, 3), Fraction(2, 3))  # u^2 = 1 + (4/9) sqrt2
    cases = [("zero", [[0] * n for _ in range(n)], False)]
    for _ in range(6):
        perm = rng.sample(range(n), n)
        P = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        perturbed = [list(row) for row in P]
        perturbed[i][j] = QSqrt2(P[i][j], Fraction(rng.choice((-1, 1)), rng.randint(1, 4)))
        cases += [
            ("signed permutation", P, True),
            ("zero row", [[0] * n if r == i else row for r, row in enumerate(P)], False),
            ("sqrt 2 part perturbed", perturbed, False),
            ("twice a row", [[2 * x for x in row] if r == i else row for r, row in enumerate(P)], False),
            ("u times a row", [[u * x for x in row] if r == i else row for r, row in enumerate(P)], False),
        ]
        if n >= 2:
            skew = [[int(r == c) for c in range(n)] for r in range(n)]
            skew[1][0], skew[1][1] = QSqrt2(0, Fraction(2, 3)), Fraction(1, 3)
            cases.append(("sqrt 2 part off the diagonal", triple_loop(linalg.as_matrix(skew), linalg.as_matrix(P)),
                          False))
    return [(label, linalg.as_matrix(A), orthogonal) for label, A, orthogonal in cases]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_row_sparse_kernels_are_the_dense_reference(n):
    rng = random.Random(40 + n)
    cases = sparse_kernel_cases(rng, n)
    determinants = set()
    for label, A, orthogonal in cases:
        # the dense reference A A^T, every entry and both parts of each
        assert (triple_loop(A, oracles.transpose(A)) == oracles.identity(n)) == orthogonal, label
        assert linalg.is_orthogonal(A) == orthogonal, label
        if not orthogonal:
            with pytest.raises(NotInSO, match="^matrix is not orthogonal$"):
                linalg.check_special_orthogonal(A)
        elif cofactor_det(A) == QSqrt2(1):
            determinants.add(1)
            linalg.check_special_orthogonal(A)
        else:
            determinants.add(-1)
            with pytest.raises(NotInSO, match="^matrix is orthogonal but has determinant -1$"):
                linalg.check_special_orthogonal(A)
        for _, B, _ in rng.sample(cases, 4):
            assert linalg.mat_mul(A, B) == triple_loop(A, B), label
    assert determinants == {1, -1}
