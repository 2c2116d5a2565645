import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinaf.clifford import (
    CliffordElement,
    blade_product,
    blade_str,
    sign_table,
)
from spinaf.oracles import vector_embed, vector_extract
from spinaf.errors import DimensionError, NonVectorError
from spinaf.qsqrt2 import QSqrt2


def blade_product_oracle(x: int, y: int):
    """Independent sign computation: concatenate index lists, bubble-sort
    counting swaps, cancel equal adjacent indices with e_i^2 = -1."""
    seq = [i for i in range(8) if x >> i & 1] + [i for i in range(8) if y >> i & 1]
    sign = 1
    # bubble sort counting inversions
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # cancel duplicate pairs (now adjacent), each contributing e_i^2 = -1
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    mask = 0
    for i in out:
        mask |= 1 << i
    return sign, mask


def test_blade_product_against_oracle():
    for x in range(16):
        for y in range(16):
            assert blade_product(x, y) == blade_product_oracle(x, y), (x, y)


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_table_is_blade_product(n):
    table = sign_table(n)
    assert len(table) == 1 << n
    for x, row in enumerate(table):
        assert row == tuple(blade_product(x, y)[0] < 0 for y in range(1 << n)), (n, x)
    assert sign_table(n) is table


def test_blade_product_examples():
    e1, e2 = 0b0001, 0b0010
    assert blade_product(e1, e1) == (-1, 0)
    assert blade_product(e1, e2) == (1, 0b0011)
    assert blade_product(e2, e1) == (-1, 0b0011)
    # (e1e2)^2 = -1
    assert blade_product(0b0011, 0b0011) == (-1, 0)


def test_blade_str():
    assert blade_str(0b0011) == "e1e2"
    assert blade_str(0b1000) == "e4"


def test_generators_anticommute():
    n = 4
    for i in range(1, n + 1):
        ei = CliffordElement.generator(n, i)
        assert ei * ei == CliffordElement.scalar(n, -1)
        for j in range(i + 1, n + 1):
            ej = CliffordElement.generator(n, j)
            assert ei * ej == -(ej * ei)


small_coeff = st.integers(min_value=-3, max_value=3)
small_element = st.builds(
    lambda d: CliffordElement(4, {m: c for m, c in d.items() if c}),
    st.dictionaries(st.integers(min_value=0, max_value=15), small_coeff, max_size=4),
)


@settings(max_examples=60)
@given(small_element, small_element, small_element)
def test_associativity_and_distributivity(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60)
@given(small_element, small_element)
def test_involution_identities(x, y):
    # grade involution and reversion are (anti)homomorphisms;
    # conjugate = composition of both
    assert (x * y).star() == y.star() * x.star()
    assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()
    assert x.star().star() == x
    assert x.grade_involution().grade_involution() == x
    assert x.conjugate() == x.star().grade_involution()


def test_grade_parts():
    x = CliffordElement(4, {0: 1, 0b0011: 2, 0b0111: 3})
    assert x.grades() == {0, 2, 3}
    assert not x.is_even()
    assert CliffordElement(4, {0: 1, 0b0011: 2}).is_even()


def test_vector_embed_extract_roundtrip():
    coords = [1, QSqrt2(0, 1), -2, QSqrt2(1, 1)]
    v = vector_embed(4, coords)
    assert vector_extract(v) == [QSqrt2(1), QSqrt2(0, 1), QSqrt2(-2), QSqrt2(1, 1)]


def test_vector_extract_rejects_non_vector():
    with pytest.raises(NonVectorError):
        vector_extract(CliffordElement(4, {0b0011: 1}))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        vector_embed(4, [1, 2, 3])


def test_power():
    e12 = CliffordElement.blade(4, [1, 2])
    assert e12 ** 2 == CliffordElement.scalar(4, -1)
    assert e12 ** 0 == CliffordElement.scalar(4, 1)
    x = CliffordElement(4, {0: 1, 0b0011: QSqrt2(0, 1), 0b1110: -2})
    product = CliffordElement.scalar(4, 1)
    for k in range(8):
        assert x ** k == product, k
        product = product * x
    with pytest.raises(ValueError):
        e12 ** -1


# -- products and involutions build their results without re-checking --------


def reference_product(x, y):
    """The product with one QSqrt2 multiply and one QSqrt2 add per blade
    pair, signs from blade_product."""
    acc = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            sign, mask = blade_product(mx, my)
            c = cx * cy
            acc[mask] = acc.get(mask, QSqrt2(0)) + (c if sign > 0 else -c)
    return CliffordElement(x.n, acc)


def seeded_elements(seed, count):
    """Elements of C_4 whose coefficients mix denominators and sqrt 2 parts,
    the double_cover pool's mixed rotation, and pairs of factors whose
    product has terms that cancel."""
    rng = random.Random(seed)

    def coeff():
        a = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
        b = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5, 8)))
        return QSqrt2(a, b)

    out = [
        CliffordElement(4, {rng.randrange(16): coeff() for _ in range(rng.randint(0, 6))})
        for _ in range(count)
    ]
    half, quarter = QSqrt2(0, Fraction(1, 2)), QSqrt2(Fraction(1, 2))
    mixed = CliffordElement(4, {0: half, 0b0011: quarter, 0b0101: quarter})
    one_plus = CliffordElement(4, {0: 1, 0b0011: QSqrt2(0, 1)})
    e1_plus_e2 = CliffordElement(4, {0b0001: Fraction(1, 3), 0b0010: QSqrt2(1, 1)})
    out += [mixed, mixed.conjugate(), one_plus, one_plus.conjugate(),
            e1_plus_e2, e1_plus_e2.grade_involution()]
    return out


def assert_clean(x):
    """x is what the checked constructor makes of its own terms: masks in
    range, no zero coefficient, every coefficient in QSqrt2 normal form."""
    assert x == CliffordElement(x.n, x.terms)
    for mask, c in x.terms.items():
        assert 0 <= mask < 1 << x.n
        assert not c.is_zero()
        normal = QSqrt2(c.a, c.b)
        assert (c._a, c._b, c._d) == (normal._a, normal._b, normal._d)


def test_products_and_involutions_are_clean_and_match_the_reference():
    elements = seeded_elements(7, 40)
    rng = random.Random(8)
    cancelled = 0
    for x in elements:
        for r in (-x, x.conjugate(), x.star(), x.grade_involution(),
                  x.scale(QSqrt2(Fraction(-2, 3), Fraction(1, 4))), x.scale(Fraction(1, 2))):
            assert_clean(r)
        for y in elements[-6:] + rng.sample(elements, 10):
            product = x * y
            assert_clean(product)
            assert product == reference_product(x, y)
            cancelled += len(product.terms) < len({mx ^ my for mx in x.terms for my in y.terms})
    assert cancelled  # some products do cancel terms


def test_product_terms_cancel_to_zero_and_to_scalars():
    one_plus = CliffordElement(4, {0: 1, 0b0011: QSqrt2(0, 1)})
    assert (one_plus * one_plus.conjugate()).terms == {0: QSqrt2(3)}
    e1, e2 = CliffordElement.generator(4, 1), CliffordElement.generator(4, 2)
    assert ((e1 + e2) * (e1 - e2)).terms == {0b0011: QSqrt2(-2)}
    assert (e1 * CliffordElement.zero(4)).is_zero()


def test_public_constructor_keeps_its_checks():
    with pytest.raises(DimensionError):
        CliffordElement(4, {16: 1})
    with pytest.raises(DimensionError):
        CliffordElement(4, [(-1, 1)])
    with pytest.raises(DimensionError):
        CliffordElement(9, {})
    with pytest.raises(TypeError):
        CliffordElement(4, {0: 1.5})
    # repeated masks are summed, and a zero sum is pruned
    summed = CliffordElement(4, [(3, 1), (3, -1), (5, Fraction(1, 2))])
    assert summed.terms == {5: QSqrt2(Fraction(1, 2))}
