import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from spinaf.qsqrt2 import ZERO, QSqrt2

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
elements = st.builds(QSqrt2, rationals, rationals)


def test_basic_arithmetic():
    r2 = QSqrt2.sqrt2()
    assert r2 * r2 == QSqrt2(2)
    x = QSqrt2(1, 1)  # 1 + sqrt2
    assert x * x == QSqrt2(3, 2)
    assert x - x == QSqrt2(0)
    assert (x / x) == QSqrt2(1)


def test_inverse_and_conjugate():
    x = QSqrt2(Fraction(3, 2), Fraction(-1, 4))
    assert x * x.inverse() == QSqrt2(1)
    # norm form: x * conj(x) is rational
    n = x * x.conjugate()
    assert n.is_rational()


def test_sign():
    assert QSqrt2(0).sign() == 0
    assert QSqrt2(1, -1).sign() == -1  # 1 - sqrt2 < 0
    assert QSqrt2(-1, 1).sign() == 1   # sqrt2 - 1 > 0
    assert QSqrt2(3, -2).sign() == 1   # 3 - 2 sqrt2 > 0
    assert QSqrt2(-3, 2).sign() == -1


def test_sqrt_exact_cases():
    assert QSqrt2(2).sqrt() == QSqrt2.sqrt2()
    assert QSqrt2(Fraction(9, 4)).sqrt() == QSqrt2(Fraction(3, 2))
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    assert QSqrt2(3, 2).sqrt() == QSqrt2(1, 1)
    # 1/2 = (1/2 sqrt2)^2
    assert QSqrt2(Fraction(1, 2)).sqrt() == QSqrt2(0, Fraction(1, 2))
    assert QSqrt2(3).sqrt() is None
    assert QSqrt2(-1).sqrt() is None


@given(elements)
def test_sqrt_of_square_roundtrip(x):
    s = (x * x).sqrt()
    assert s is not None
    assert s * s == x * x
    assert s.sign() >= 0


@given(elements, elements, elements)
def test_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    if not x.is_zero():
        assert x * x.inverse() == QSqrt2(1)


@given(elements, elements)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_str_round_forms():
    assert str(QSqrt2(0)) == "0"
    assert "√2" in str(QSqrt2.sqrt2()) or "sqrt2" in str(QSqrt2.sqrt2())


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSqrt2(1) / QSqrt2(0)


def normal_form(x):
    """The stored triple (a, b, d) of (a + b*sqrt 2)/d, checked to be the
    unique normal form: d > 0, gcd(a, b, d) = 1, and zero is (0, 0, 1)."""
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert d == 1
    return a, b, d


@given(elements, elements)
def test_every_result_is_in_normal_form_and_exact(x, y):
    # reference arithmetic on the rational coordinates (a, b)
    results = [
        (x + y, (x.a + y.a, x.b + y.b)),
        (x - y, (x.a - y.a, x.b - y.b)),
        (x * y, (x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a)),
        (-x, (-x.a, -x.b)),
        (x.conjugate(), (x.a, -x.b)),
        (x * x, (x.a * x.a + 2 * x.b * x.b, 2 * x.a * x.b)),
    ]
    if not x.is_zero():
        norm = x.a * x.a - 2 * x.b * x.b
        results.append((x.inverse(), (x.a / norm, -x.b / norm)))
    for value, (a, b) in results:
        na, nb, d = normal_form(value)
        assert (Fraction(na, d), Fraction(nb, d)) == (a, b) == (value.a, value.b)
    root = (x * x).sqrt()
    normal_form(root)
    assert root * root == x * x
    normal_form(x)


def test_elements_are_immutable():
    x = QSqrt2(1, 1)
    for name in ("a", "b", "_a", "_d"):
        with pytest.raises(AttributeError):
            setattr(x, name, 2)
    assert x == QSqrt2(1, 1) and ZERO == 0


def test_zero_is_one_triple():
    for zero in (ZERO, QSqrt2(Fraction(0, 5), 0), QSqrt2(1) - QSqrt2(1),
                 QSqrt2(Fraction(1, 3), 2) * 0, QSqrt2(0).sqrt()):
        assert normal_form(zero) == (0, 0, 1)


@given(st.one_of(st.integers(-10**6, 10**6), rationals))
def test_rationals_embed_with_their_value_and_hash(q):
    x = QSqrt2(q)
    assert x == q and q == x
    assert hash(x) == hash(q)
    assert x.is_rational()
    assert (x.a, x.b) == (q, 0)


def test_rational_hash_is_the_fraction_hash_without_fractions():
    # the numeric hash of a/d: the modulus case d = 0 mod P (no inverse,
    # inf), and -(P + 2)/2, whose hash would be -1 and reads -2
    P = sys.hash_info.modulus
    values = [Fraction(a, d) for a in range(-12, 13) for d in (2, 3, 7, 12, P - 1, P + 1, 2**64 + 1)]
    values += [Fraction(a, P * k) for a in (-5, -1, 1, 3) for k in (1, 2, 3)]
    values += [Fraction(-(P + 2), 2), Fraction(P + 2, 2), Fraction(-(2 * P + 3), 3)]
    assert hash(Fraction(-(P + 2), 2)) == -2
    assert any(hash(q) == sys.hash_info.inf for q in values)
    for q in values:
        assert hash(QSqrt2(q)) == hash(q), q
    code = ("import sys; from spinaf.qsqrt2 import QSqrt2\n"
            "half = QSqrt2(1) / 2\n"
            "assert hash(half) == hash(0.5) and hash(-half) == hash(-0.5)\n"
            "assert 'fractions' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_repr_and_str_render_fractions():
    x = QSqrt2(Fraction(-3, 4), Fraction(1, 2))
    assert repr(x) == "QSqrt2(Fraction(-3, 4), Fraction(1, 2))"
    assert str(x) == "-3/4 + 1/2√2"
    assert repr(QSqrt2(2)) == "QSqrt2(Fraction(2, 1), Fraction(0, 1))"
    assert str(QSqrt2(0, Fraction(-1, 2))) == "-1/2√2"


@given(elements)
def test_ratios_and_str_read_the_fractions(x):
    # ratios and str build no Fraction; the Fractions a and b are the reference
    a, b = x.a, x.b
    assert x.ratios() == ((a.numerator, a.denominator), (b.numerator, b.denominator))
    expected = str(a) if b == 0 else f"{b}√2" if a == 0 else f"{a} {'+' if b > 0 else '-'} {abs(b)}√2"
    assert str(x) == expected


def test_sqrt_is_the_brute_force_root_in_z_sqrt2():
    # The root of (a + b sqrt2)/d is (c + e sqrt2)/d for (c + e sqrt2)^2 =
    # ad + bd sqrt2 in Z[sqrt 2]; with |a|, |b| <= 40 and d <= 6 the rational
    # part ad = c^2 + 2 e^2 is at most 240, so |c| <= 15 and |e| <= 10.
    squares = {}
    for c in range(-16, 17):
        for e in range(-11, 12):
            squares.setdefault((c * c + 2 * e * e, 2 * c * e), []).append((c, e))
    kinds = set()
    for d in range(1, 7):
        for a in range(-40, 41):
            for b in range(-40, 41):
                x = QSqrt2(Fraction(a, d), Fraction(b, d))
                roots = [QSqrt2(Fraction(c, d), Fraction(e, d)) for c, e in squares.get((a * d, b * d), ())]
                roots = [r for r in roots if r.sign() >= 0]
                root = x.sqrt()
                if roots:
                    assert len(roots) == 1 and root == roots[0], (a, b, d)
                    c, e, _ = normal_form(root)
                    kinds.add((c == 0, e == 0, math.gcd(a, b, d) > 1))
                else:
                    assert root is None, (a, b, d)
    # zero, roots with c = 0, with e = 0 and with both nonzero, each met on
    # reduced and on unreduced triples
    assert len(kinds) == 8
    assert QSqrt2(Fraction(4, 2), Fraction(0, 2)).sqrt() == QSqrt2.sqrt2()
