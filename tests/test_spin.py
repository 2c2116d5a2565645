from fractions import Fraction
import itertools
import random

import pytest

from spinaf import intmat, linalg, oracles, rotors, spin
from spinaf.clifford import CliffordElement, blade_str
from spinaf.errors import NonVectorError, NotInImage, NotInSO, UnsupportedScalar
from spinaf.qsqrt2 import QSqrt2


def signed_perm_matrices():
    """All 192 signed permutation matrices in SO(4)."""
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            M = [[0] * 4 for _ in range(4)]
            for j in range(4):
                M[perm[j]][j] = signs[j]
            M = linalg.as_matrix(M)
            if linalg.det(M) == QSqrt2(1):
                out.append(M)
    return out


def test_signed_perm_census():
    mats = signed_perm_matrices()
    assert len(mats) == 192


def test_signed_perm_roundtrip_all_192():
    for M in signed_perm_matrices():
        x, neg = spin.preimage(M)
        assert oracles.is_spin(x)
        assert spin.lam(x) == M
        assert neg == -x
        assert spin.lam(neg) == M


def test_preimage_round_trips_over_spin_pool():
    # includes products with the mixed rotation, whose images are not
    # signed permutations
    for x in spin_pool():
        p, neg = spin.preimage(spin.lam(x))
        assert p == x or p == -x
        assert neg == -p


def test_preimage_rejects_det_minus_one():
    M = linalg.as_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    )
    with pytest.raises(NotInSO):
        spin.preimage(M)


def mixed_plane_rotation():
    """A spin element whose image is orthogonal but not a signed permutation:
    a 90 degree rotation in the plane spanned by e1 and (e2 + e3)/sqrt2."""
    half = QSqrt2(0, Fraction(1, 2))  # sqrt2 / 2
    quarter = QSqrt2(Fraction(1, 2))
    return CliffordElement(4, {0: half, 0b0011: quarter, 0b0101: quarter})


def test_preimage_mixed_plane_rotation():
    x0 = mixed_plane_rotation()
    M = spin.lam(x0)
    assert not intmat.is_signed_perm(M)
    x, neg = spin.preimage(M)
    assert oracles.is_spin(x)
    assert spin.lam(x) == M
    assert x == x0 or x == -x0


def test_preimage_45_degree_rotation_leaves_the_field():
    # lifting a 45 degree rotation needs cos(22.5deg), outside Q(sqrt 2)
    half = QSqrt2(0, Fraction(1, 2))
    M = linalg.as_matrix(
        [[half, -half, 0, 0], [half, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert linalg.is_orthogonal(M)
    with pytest.raises(UnsupportedScalar):
        spin.preimage(M)


def test_preimage_without_scalar_part():
    # (e1e2 + e1e3 + sqrt2 e1e4)/2, the half-turn in the plane of e1 and
    # (e2 + e3 + sqrt2 e4)/2: the first even blade, the scalar 1, gives a
    # zero frame sum, and the image is not a signed permutation
    one_half, half_sqrt2 = QSqrt2(Fraction(1, 2)), QSqrt2(0, Fraction(1, 2))
    x0 = CliffordElement(4, {0b0011: one_half, 0b0101: one_half, 0b1001: half_sqrt2})
    assert oracles.is_spin(x0)
    M = spin.lam(x0)
    assert not intmat.is_signed_perm(M)
    x, neg = spin.preimage(M)
    assert x == oracles.canonical_sign(x0)
    assert neg == -x


def test_preimage_order_three_rotation_not_representable():
    # the integer matrix of order 3 below is not orthogonal, so it has no
    # preimage under the covering map
    M = linalg.as_matrix([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
    assert not linalg.is_orthogonal(M)
    with pytest.raises(NotInSO, match="not orthogonal"):
        spin.preimage(M)


def spin_pool():
    """A deterministic pool of spin elements closed enough for pair tests."""
    gens = [
        spin.preimage(M)[0]
        for M in random.Random(3).sample(signed_perm_matrices(), 8)
    ]
    gens.append(mixed_plane_rotation())
    pool = list(gens)
    rng = random.Random(11)
    while len(pool) < 64:
        pool.append(rng.choice(pool) * rng.choice(gens))
    return pool


def test_lambda_is_a_homomorphism_1000_pairs():
    pool = spin_pool()
    rng = random.Random(5)
    pairs = 0
    while pairs < 1000:
        x, y = rng.choice(pool), rng.choice(pool)
        assert spin.lam(x * y) == linalg.mat_mul(spin.lam(x), spin.lam(y))
        pairs += 1


def test_lambda_kernel_is_plus_minus_one():
    one = CliffordElement.scalar(4, 1)
    identity = linalg.as_matrix(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    for x in spin_pool():
        if spin.lam(x) == identity:
            assert x == one or x == -one
    # and both kernel elements really map to the identity
    assert spin.lam(one) == identity
    assert spin.lam(-one) == identity


def test_spin_elements_have_unit_norm():
    for x in spin_pool():
        assert x.conjugate() * x == CliffordElement.scalar(4, 1)
        assert x.is_even()


def test_canonical_sign_idempotent():
    for x in spin_pool():
        c = oracles.canonical_sign(x)
        assert c == oracles.canonical_sign(-x)
        assert c == x or c == -x


def test_subgroup_closure_q8():
    e12 = CliffordElement.blade(4, [1, 2])
    e23 = CliffordElement.blade(4, [2, 3])
    elems = spin.subgroup_closure([e12, e23])
    assert len(elems) == 8


def test_lam_refuses_a_non_spin_element():
    # 1 + e1 carries e2 to 2 e1e2, which is not a vector
    x = CliffordElement(4, {0: 1, 0b0001: 1})
    with pytest.raises(NonVectorError):
        spin.lam(x)
    # the scalar 2 carries every generator to 4 times itself
    with pytest.raises(NotInSO, match="not orthogonal"):
        spin.lam(CliffordElement.scalar(4, 2))


def test_lam_checks_the_matrix_not_spin_membership():
    # x x̄ = 3 + 2√2 e1e2e3e4, so x is not in Spin(4), yet its sandwich is
    # -I, which is special orthogonal: lam returns it, and is_spin refuses x
    x = CliffordElement(4, {0: 1, 0b1111: QSqrt2(0, 1)})
    assert x * x.conjugate() == CliffordElement(4, {0: 3, 0b1111: QSqrt2(0, 2)})
    assert spin.lam(x) == linalg.as_matrix([[-1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert spin.lam(x) == reference_lam(x)
    assert not oracles.is_spin(x)


def leibniz_det(M):
    """The determinant as the sum over permutations."""
    n = len(M)
    total = QSqrt2(0)
    for perm in itertools.permutations(range(n)):
        term = QSqrt2(1)
        for i, j in enumerate(perm):
            term = term * M[i][j]
        inversions = sum(perm[i] > perm[k] for i in range(n) for k in range(i + 1, n))
        total = total + (-term if inversions % 2 else term)
    return total


def reference_lam(x):
    """lam from its definition: column j is the vector part of x e_j conj(x)
    by Clifford products, NonVectorError names the lowest non-vector blade
    of any column, and the matrix is checked to be special orthogonal by
    dense QSqrt2 sums and a Leibniz determinant."""
    n = x.n
    xbar = x.conjugate()
    images = [x * CliffordElement.generator(n, j) * xbar for j in range(1, n + 1)]
    blades = [m for image in images for m in image.terms if m.bit_count() != 1]
    if blades:
        raise NonVectorError(f"element has a non-vector component on blade {blade_str(min(blades))}")
    cols = [oracles.vector_extract(image) for image in images]
    M = tuple(tuple(col[i] for col in cols) for i in range(n))
    for i in range(n):
        for k in range(n):
            if sum((M[i][j] * M[k][j] for j in range(n)), QSqrt2(0)) != QSqrt2(int(i == k)):
                raise NotInSO("matrix is not orthogonal")
    if leibniz_det(M) != QSqrt2(1):
        raise NotInSO("matrix is orthogonal but has determinant -1")
    return M


def sandwich_elements(n, rng):
    """Elements of C_n: products of 1 to 4 unit vectors with coordinates
    in Q(sqrt 2), odd ones included, and non-spin elements: multiples of
    those, those plus a random blade, and random elements, all with mixed
    denominators and sqrt 2 parts."""
    half = QSqrt2(0, Fraction(1, 2))

    def unit_vector():
        if n == 1:
            return CliffordElement(1, {1: rng.choice((1, -1))})
        i, k = rng.sample(range(n), 2)
        shapes = [{i: 1}, {i: half, k: half}, {i: Fraction(3, 5), k: Fraction(-4, 5)}]
        if n > 2:
            rest = rng.choice([m for m in range(n) if m not in (i, k)])
            shapes.append({i: Fraction(1, 2), k: Fraction(-1, 2), rest: half})
        coords = rng.choice(shapes)
        return oracles.vector_embed(n, [coords.get(m, 0) for m in range(n)])

    def coeff():
        return QSqrt2(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                      Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))))

    products = []
    for _ in range(24):
        x = unit_vector()
        for _ in range(rng.randint(0, 3)):
            x = x * unit_vector()
        products.append(x)
    return (
        products
        + [x.scale(QSqrt2(1, 1)) for x in products[:4]]
        + [x + CliffordElement(n, {rng.randrange(1 << n): coeff()}) for x in products[:8]]
        + [CliffordElement(n, {rng.randrange(1 << n): coeff() for _ in range(rng.randint(1, 5))})
           for _ in range(8)]
        + [CliffordElement.zero(n)]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lam_is_the_sandwich_by_clifford_products(n):
    def outcome(f, x):
        try:
            return f(x)
        except (NonVectorError, NotInSO) as exc:
            return type(exc), str(exc)

    errors, in_so, paths = set(), False, set()
    for x in sandwich_elements(n, random.Random(n)):
        expected = outcome(reference_lam, x)
        assert outcome(spin.lam, x) == expected, x
        if isinstance(expected[0], type):
            errors.add(expected)
        else:
            in_so = True
        parity = "even" if x.is_even() else "odd" if x.grade_involution() == -x else "mixed"
        paths.add((parity, expected[0] if isinstance(expected[0], type) else "SO(n)"))
    assert in_so and (NotInSO, "matrix is not orthogonal") in errors
    # x e1 conj(x) is a multiple of e1 for every x in C_1
    assert any(kind is NonVectorError for kind, _ in errors) == (n > 1)
    # for odd n a unit vector u acts by v -> u v conj(u), which has
    # determinant (-1)^(n-1), so only even n see determinant -1
    if n % 2 == 0:
        assert (NotInSO, "matrix is orthogonal but has determinant -1") in errors
    if n == 4:
        # lam takes the quaternion pairs on even elements, in SO(4) and
        # scaled or perturbed out of it, and the sandwich on the others
        assert {("even", "SO(n)"), ("even", NotInSO), ("odd", NotInSO), ("mixed", NonVectorError)} <= paths
    if n == 6:
        # the pairs of C_6 also survive on blades of grade 5 and 6
        named = [message.rsplit(" ", 1)[1] for kind, message in errors if kind is NonVectorError]
        assert any(blade.count("e") >= 5 for blade in named)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_preimage_returns_the_canonical_sign_first(n):
    # x is y / |y| with its sign taken from y's lowest blade; the spin
    # elements among the products of unit vectors, and their negatives
    one = CliffordElement.scalar(n, 1)
    units = [x for x in sandwich_elements(n, random.Random(n)) if x.is_even() and x * x.conjugate() == one]
    assert len(units) >= 6
    for x in units + [-x for x in units]:
        p, neg = spin.preimage(spin.lam(x))
        assert p == oracles.canonical_sign(x) and neg == -p, x


@pytest.mark.parametrize("part", ["rational", "sqrt2"])
def test_preimage_guard_catches_a_wrong_cover(monkeypatch, part):
    # lam(x) = M is compared on integer pairs: the 4 x 4 preimage computes
    # lam(x) by _mebius; perturb one part of one entry
    mebius = spin._mebius

    def perturbed(*pq):
        rows = mebius(*pq)
        a, b = rows[2][1]
        rows[2][1] = (a + 1, b) if part == "rational" else (a, b + 1)
        return rows

    M = spin.lam(mixed_plane_rotation())
    monkeypatch.setattr(spin, "_mebius", perturbed)
    with pytest.raises(NotInImage, match="^internal error: constructed element does not cover the matrix$"):
        spin.preimage(M)


def qsqrt2_rotations():
    """Matrices of SO(4) over Q(sqrt 2) that are not signed permutations:
    the mixed plane rotation and its products with signed permutations."""
    R = spin.lam(mixed_plane_rotation())
    perms = random.Random(7).sample(signed_perm_matrices(), 12)
    return [R] + [linalg.mat_mul(P, R) for P in perms] + [linalg.mat_mul(R, linalg.mat_mul(P, R)) for P in perms]


def test_quaternion_preimage_is_the_frame_preimage():
    # the n = 4 path against the general-n frame sums, which preimage takes
    # for every other n
    mats = signed_perm_matrices() + qsqrt2_rotations()
    assert not all(intmat.is_signed_perm(M) for M in mats)
    for M in mats:
        x, neg = spin.preimage(M)
        assert x == rotors.frame_preimage(*linalg._integral(M)) and neg == -x
        assert spin.lam(x) == M


def perturbed_signed_perms(rng):
    """Signed permutations of either determinant and SO(4) rotations over
    Q(sqrt 2), with 0 to 2 entries replaced, a row negated or the matrix
    doubled."""
    half, root = QSqrt2(Fraction(1, 2)), QSqrt2(0, Fraction(1, 2))
    perms = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            perms.append([[signs[j] if perm[j] == i else 0 for j in range(4)] for i in range(4)])
    bases = rng.sample(perms, 40) + [[list(row) for row in M] for M in qsqrt2_rotations()[:8]]
    out = []
    for M in bases:
        out.append(linalg.as_matrix(M))
        for _ in range(6):
            N = [list(row) for row in M]
            for _ in range(rng.randint(1, 2)):
                N[rng.randrange(4)][rng.randrange(4)] = rng.choice((0, 1, -1, 2, half, root, -root))
            out.append(linalg.as_matrix(N))
        i = rng.randrange(4)
        out.append(linalg.as_matrix([[-e for e in row] if k == i else row for k, row in enumerate(M)]))
        out.append(linalg.as_matrix([[2 * e for e in row] for row in M]))
    return out


def test_associate_membership_is_the_so4_check():
    # rank-1 associate matrix with sum A_ab^2 = 1 against A A^T = I and
    # det = 1, NotInSO message and all
    def outcome(f, M):
        try:
            f(M)
        except NotInSO as exc:
            return str(exc)
        except UnsupportedScalar:  # M passed the check, its lift needs a root outside Q(sqrt 2)
            pass
        return None

    mats = perturbed_signed_perms(random.Random(4))
    assert len(mats) >= 400
    seen = []
    for M in mats:
        expected = outcome(linalg.check_special_orthogonal, M)
        assert outcome(spin.preimage, M) == expected, M
        seen.append(expected)
    assert seen.count(None) >= 40
    assert {"matrix is not orthogonal", "matrix is orthogonal but has determinant -1"} <= set(seen)


def test_preimage_refuses_huge_entries_before_squaring(monkeypatch):
    # an entry (a + b√2)/d of M in SO(n) has |a|, |b| <= d, since M's Galois
    # conjugate is orthogonal too; a larger entry is refused before the
    # associate's norm or the SO(n) check squares anything
    def squares(*args):
        raise AssertionError("a huge entry was squared")

    monkeypatch.setattr(spin, "_norm", squares)
    monkeypatch.setattr(linalg, "_check_so", squares)
    huge = 10 ** 400000

    def diag(*entries):
        n = len(entries)
        return linalg.as_matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    for M in [diag(huge, 1, 1, 1), diag(1, 1, -huge), diag(1, QSqrt2(0, huge), 1, 1),
              diag(1, 1, QSqrt2(Fraction(huge + 1, huge), 0), 1)]:
        with pytest.raises(NotInSO, match="^matrix is not orthogonal$"):
            spin.preimage(M)


def hamilton(x, y):
    """The quaternion product of coefficient 4-tuples over (1, i, j, k)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def dense_mebius_basis():
    """B[a][b][r][c]: the matrix of v -> u_a v conj(u_b) from quaternion
    products, column c the image of u_c."""
    units = [tuple(int(i == u) for i in range(4)) for u in range(4)]
    conj = [(u[0], -u[1], -u[2], -u[3]) for u in units]
    return [[[[hamilton(hamilton(units[a], units[c]), conj[b])[r] for c in range(4)] for r in range(4)]
             for b in range(4)] for a in range(4)]


def test_scatter_is_the_dense_mebius_sum(monkeypatch):
    # _mebius against sum p_a q_b B_ab, and the associate 4 d A that preimage
    # scatters from M against the dense <M, B_ab>, every slot of both
    B = dense_mebius_basis()

    def dense_mebius(pa, pb, qa, qb):
        prod = [[(pa[a] * qa[b] + 2 * pb[a] * qb[b], pa[a] * qb[b] + pb[a] * qa[b]) for b in range(4)]
                for a in range(4)]
        return [[tuple(sum(B[a][b][r][c] * prod[a][b][i] for a in range(4) for b in range(4)) for i in (0, 1))
                 for c in range(4)] for r in range(4)]

    def dense_associate(rows):
        return [tuple(sum(B[a][b][r][c] * rows[r][c][i] for r in range(4) for c in range(4)) for i in (0, 1))
                for a in range(4) for b in range(4)]

    scatter, seen = spin._scatter, []

    def recording(entries):
        seen.append(scatter(entries))
        return seen[-1]

    def associate(M):
        # the first scatter of preimage(M) is the associate, whatever follows
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(spin, "_scatter", recording)
            try:
                spin.preimage(M)
            except (NotInSO, UnsupportedScalar):
                pass
        return list(zip(*seen[0]))

    def matrix(rows, d):
        return tuple(tuple(QSqrt2(Fraction(a, d), Fraction(b, d)) for a, b in row) for row in rows)

    rng = random.Random(28)

    def part(nonzero):
        return [rng.randint(-5, 5) or 1 for _ in range(4)] if nonzero else [0] * 4

    perms = [spin._quaternions(spin.preimage(M)[0])[1:] for M in signed_perm_matrices()]
    sqrt2_only = [(part(ra), part(not ra), part(rb), part(not rb))
                  for ra, rb in [(False, False), (True, False), (False, True)] for _ in range(8)]
    dense = [(part(True), part(True), part(True), part(True)) for _ in range(24)]
    assert len(perms) == 192
    kinds = set()
    for pq in perms + sqrt2_only + dense:
        rows = dense_mebius(*pq)
        assert spin._mebius(*pq) == rows, pq
        M = matrix(rows, max(abs(v) for row in rows for e in row for v in e))
        d, ints = linalg._integral(M)
        assert associate(M) == dense_associate(ints), pq
        kinds |= {(a != 0, b != 0) for row in ints for a, b in row}
    # random dense matrices over Q(sqrt 2), none of them in SO(4)
    for _ in range(24):
        d = rng.randint(1, 9)
        M = matrix([[(rng.randint(-d, d), rng.randint(-d, d)) for _ in range(4)] for _ in range(4)], d)
        assert associate(M) == dense_associate(linalg._integral(M)[1]), M
    # M's entries were rational, sqrt 2 only and both
    assert {(True, False), (False, True), (True, True)} <= kinds
