import itertools
from fractions import Fraction

import pytest

from spinaf import intmat, linalg, spin
from spinaf.cyclotomic import Cyc12, I, ZETA3, ZETA6
from spinaf.fp import lift_power_sign
from spinaf.errors import InconsistentRecord


def test_zeta_orders():
    z = Cyc12.zeta_pow(1)
    acc = Cyc12(1)
    for k in range(1, 12):
        acc = acc * z
        assert acc == Cyc12.zeta_pow(k)
        assert (acc == Cyc12(1)) == (k % 12 == 0)
    assert acc * z == Cyc12(1)


def test_special_elements():
    assert I * I == Cyc12(-1)
    assert ZETA3 * ZETA3 * ZETA3 == Cyc12(1)
    assert ZETA6 * ZETA6 * ZETA6 == Cyc12(-1)
    # 1 + zeta3 + zeta3^2 = 0
    assert Cyc12(1) + ZETA3 + ZETA3 * ZETA3 == Cyc12(0)


def test_conjugate():
    z = Cyc12.zeta_pow(1)
    assert z.conjugate() == Cyc12.zeta_pow(11)
    x = Cyc12(1) + z
    n = x * x.conjugate()
    # the norm is fixed by conjugation (it is real but lies in Q(sqrt 3))
    assert n.conjugate() == n
    assert (x * Cyc12.zeta_pow(3)).conjugate() == x.conjugate() * Cyc12.zeta_pow(-3)


def test_rational_detection():
    assert Cyc12(Fraction(3, 2)).is_rational()
    assert Cyc12(Fraction(3, 2)).rational_part() == Fraction(3, 2)
    assert not I.is_rational()


ROT3 = ((1, 0, 0, 0), (0, 0, -1, 0), (0, 1, -1, 0), (0, 0, 0, 1))
ROT4 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ROT6 = ((1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1))
IDENT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_lift_power_sign():
    # a rotation through 2 pi / m acting in one plane lifts to an element of
    # order 2m in Spin(4): its m-th power is -1
    assert lift_power_sign(ROT4, 4) == -1
    assert lift_power_sign(ROT6, 6) == -1
    # order-3 rotation lifts to order 3: cube is +1
    assert lift_power_sign(ROT3, 3) == 1
    assert lift_power_sign(IDENT, 1) == 1


def _order(M):
    P, o = M, 1
    while P != IDENT:
        P, o = intmat.int_mat_mul(P, M), o + 1
    return o


def test_lift_power_sign_matches_clifford_powers():
    # an independent computation: the m-th power of an honest spin preimage
    # in the Clifford algebra, for every signed permutation in SO(4)
    matrices = cases = 0
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            M = tuple(
                tuple(signs[j] if perm[j] == i else 0 for j in range(4)) for i in range(4)
            )
            if intmat.int_det(M) != 1:
                continue
            matrices += 1
            x = spin.preimage(linalg.as_matrix(M))[0]
            o = _order(M)
            for m in sorted({o, 2 * o}):
                if m % 2:
                    continue
                assert x ** m == lift_power_sign(M, m) * x ** 0, (M, m)
                cases += 1
    assert (matrices, cases) == (192, 351)


SHEAR = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
REFLECTION = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


@pytest.mark.parametrize(
    "M, m",
    [
        (ROT4, 6),  # order 4 does not divide 6
        (SHEAR, 2),  # infinite order
        (REFLECTION, 2),  # determinant -1
    ],
)
def test_lift_power_sign_rejects(M, m):
    with pytest.raises(InconsistentRecord):
        lift_power_sign(M, m)
