import itertools

import pytest
from hypothesis import given, settings, strategies as st

from spinaf.clifford import (
    CliffordElement,
    blade_product,
    blade_str,
    vector_embed,
    vector_extract,
)
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
    with pytest.raises(ValueError):
        e12 ** -1
