"""The group Spin(n) inside C_n and the twisted-conjugation covering map.

Spin(n) consists of the even elements x with x * conj(x) = 1 whose twisted
conjugation v -> x v conj(x) preserves the span of the generators.  The
covering map ``lam`` sends such an x to the special orthogonal matrix of
that action; its kernel is {+1, -1}.  ``lam`` checks that the matrix it
returns is special orthogonal, not that x lies in Spin(n): it does not test
x * conj(x) = 1, so an even element outside Spin(n) such as
1 + sqrt2 e1e2e3e4 maps to a matrix too.  ``oracles.is_spin`` is the
membership test.  With c_A the coefficient of e_A in x,
x e_j conj(x) sums t(A, B) = c_A c_B e_A e_j conj(e_B) over blade pairs,
and t(B, A) = -conj(t(A, B)) (Lounesto, *Clifford Algebras and Spinors*,
2001).  So ``lam`` adds each unordered pair once, doubled off the diagonal,
on output blades of grade 1 or 2 mod 4, and skips grades 0 and 3 mod 4,
where the two orders cancel.

Preimages are computed exactly by one closed formula for every special
orthogonal matrix over Q(sqrt 2): the frame-to-rotor construction (see
Doran & Lasenby, *Geometric Algebra for Physicists*, 2003), in integers
from M's pairs to x: the normalising factor is a square root in Z[sqrt 2],
and no Fraction is built on the way.  Each SO(n) check runs once, on integer
pairs: ``lam`` checks its own before reducing any entry, ``preimage``
checks its input, and its guard lam(x) = M compares pairs with M's by
cross-multiplication, which puts lam(x) in SO(n) without a second check.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import List, Sequence, Tuple

from . import linalg
from .clifford import CliffordElement, _element, _integral, _product, blade_str, sign_table
from .errors import NonVectorError, NotInImage, UnsupportedScalar
from .linalg import Matrix
from .qsqrt2 import ZERO, _integer_root, _reduced, _sign


@cache
def _sandwich_table(n: int) -> Tuple[List[int], tuple]:
    """The accumulator slots of lam in C_n and its table of blade pairs.

    Each blade of grade 1 or 2 mod 4 has n slots, one per column j, vectors
    first (e_(i+1) of column j at i n + j).  Entry [A][B] lists (slot, c) for
    each column whose blade e_A e_j conj(e_B) = +-e_m has a slot: c is that
    sign for A = B and twice it otherwise, where (B, A) adds the same."""
    negative = sign_table(n)
    blades = [1 << i for i in range(n)]
    blades += [m for m in range(1 << n) if m.bit_count() % 4 in (1, 2) and m.bit_count() > 1]
    slots = {m: s * n for s, m in enumerate(blades)}
    columns = [(j, 1 << j) for j in range(n)]
    table = []
    for A in range(1 << n):
        row = []
        for B in range(1 << n):
            # e_A e_j conj(e_B) = r (-1)^[j in B] e_A e_B e_j with r = -1 for
            # |B| = 2, 3 mod 4: conj(e_B) is (-1)^|B| times the reversal of
            # e_B, and e_j passes e_B with (-1)^(|B| - [j in B])
            flip, AB, c = negative[A][B] ^ (B.bit_count() & 2 > 0), A ^ B, 1 if A == B else 2
            row.append(tuple((slots[AB ^ bit] + j, -c if flip ^ negative[AB][bit] ^ (B & bit > 0) else c)
                             for j, bit in columns if AB ^ bit in slots))
        table.append(tuple(row))
    return blades, tuple(table)


def _sandwich(x: CliffordElement) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """lam(x) before its SO(n) check, as integer pair rows over D = d^2 for
    the denominator d of x, from one pass over its unordered blade pairs.
    Raises NonVectorError if some generator is not carried to a vector."""
    n = x.n
    blades, table = _sandwich_table(n)
    d, xs = _integral(x._terms)
    acc_a, acc_b = [0] * (n * len(blades)), [0] * (n * len(blades))
    for i, (A, a1, b1) in enumerate(xs):
        row = table[A]
        for B, a2, b2 in xs[i:]:
            p, q = a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2
            for k, c in row[B]:
                acc_a[k] += c * p
                acc_b[k] += c * q
    if any(acc_a[n * n:]) or any(acc_b[n * n:]):
        k = next(k for k in range(n * n, len(acc_a)) if acc_a[k] or acc_b[k])
        raise NonVectorError(f"element has a non-vector component on blade {blade_str(blades[k // n])}")
    return d * d, [list(zip(acc_a[i:i + n], acc_b[i:i + n])) for i in range(0, n * n, n)]


def lam(x: CliffordElement) -> Matrix:
    """The covering map: the matrix of v -> x v conj(x) on generators.

    Raises NonVectorError if some generator is not carried to a vector and
    NotInSO if the resulting matrix fails to be special orthogonal (both
    indicate that x is not a spin element); the SO(n) check runs on the
    integer pairs of :func:`_sandwich`, before any entry is reduced.  It
    does not check that x lies in Spin(n): x * conj(x) = 1 is not tested,
    and lam(1 + sqrt2 e1e2e3e4) = -I although x * conj(x) is
    3 + 2 sqrt2 e1e2e3e4.  ``oracles.is_spin`` is the membership test.
    """
    D, rows = _sandwich(x)
    linalg._check_so(D, rows)
    return tuple([tuple([_reduced(a, b, D) if a or b else ZERO for a, b in row]) for row in rows])


def preimage(M: Matrix) -> Tuple[CliffordElement, CliffordElement]:
    """Both preimages (x, -x) of a special orthogonal matrix, where x's first
    nonzero coefficient in blade-mask order is positive.

    With F_A = (M e_a1)...(M e_ak) the image x e_A x^-1 of each blade e_A,
    the frame-to-rotor identity reads

        sum_A F_A e_B e_A^-1 = 2^n <x^-1 e_B>_0 x,

    so the first even blade e_B giving a nonzero sum y yields x = y / |y|,
    where |y|^2 is the scalar y * conj(y).  Raises NotInSO when M is not in
    SO(n) and UnsupportedScalar when |y| lies outside Q(sqrt 2).

    Grouping the blades A by their least generator j nests the sum:
    T_(n+1) = e_B, T_j = T_(j+1) + (M e_j) T_(j+1) e_j^-1 and y = T_1, so
    it takes n products, not one image per blade.  It runs on integer
    pairs: with M over one denominator d, T_j is over d^(n+1-j).  The
    denominator d^n of y is dropped, because y / |y| is the same for every
    positive multiple of y, and |y| is the root of y * conj(y) in Z[sqrt 2]
    (``qsqrt2._integer_root``), so no Fraction and no field inverse is
    built on the way to x.
    """
    n = len(M)
    d, rows = linalg._integral(M)
    linalg._check_so(d, rows)
    negative = sign_table(n)
    # the column M e_(j+1) as a (mask, a, b) list over d
    columns = [[(1 << i, a, b) for i, (a, b) in enumerate(col) if a or b] for col in zip(*rows)]
    for B in range(1 << n):
        if B.bit_count() % 2:
            continue
        # T_j over d^(n+1-j), from T_(n+1) = e_B, with e_j^-1 = -e_j
        y = [(B, 1, 0)]
        for j in range(n - 1, -1, -1):
            bit, acc = 1 << j, {m: [a * d, b * d] for m, a, b in y}
            for m, a, b in _product(n, columns[j], y):
                if not negative[m][bit]:
                    a, b = -a, -b
                pair = acc.setdefault(m ^ bit, [0, 0])
                pair[0] += a
                pair[1] += b
            y = [(m, a, b) for m, (a, b) in acc.items() if a or b]
        if y:
            break
    else:  # pragma: no cover - some <x^-1 e_B>_0 is nonzero for x != 0
        raise NotInImage("internal error: every frame sum vanished")
    # |y|^2 = y * conj(y) is the sum of the squared coefficients of y, an
    # element of Z[sqrt 2], and |y| its integer root c + e sqrt2 > 0
    root = _integer_root(sum(a * a + 2 * b * b for _, a, b in y), sum(2 * a * b for _, a, b in y))
    if root is None:
        raise UnsupportedScalar("normalising the preimage requires a square root outside Q(sqrt 2)")
    # x = y / |y| = y (c - e sqrt2) / N for N = c^2 - 2 e^2; t moves the sign
    # of N into the numerator and makes x's lowest blade positive like y's
    c, e = root
    N = c * c - 2 * e * e
    t = _sign(*min(y)[1:]) * (1 if N > 0 else -1)
    x = _element(n, {m: _reduced(t * (a * c - 2 * b * e), t * (b * c - a * e), abs(N)) for m, a, b in y})
    # the guard lam(x) = M, on integer pairs by cross-multiplication; M is
    # in SO(n), so equality also puts lam(x) there
    D, cover = _sandwich(x)
    if any(a * d != r * D or b * d != s * D for u, v in zip(cover, rows) for (a, b), (r, s) in zip(u, v)):
        raise NotInImage("internal error: constructed element does not cover the matrix")
    return x, -x


def subgroup_closure(gens: Sequence[CliffordElement]) -> List[CliffordElement]:
    """The subgroup generated by spin elements, as an explicit element list.

    Elements of Spin(n) have finite order only in the cases we care about;
    the closure's default bound guards against accidentally infinite input.
    """
    from .groups import closure  # imported here so that spin alone stays light

    if not gens:
        raise ValueError("need at least one generator")
    return closure(gens, operator.mul, CliffordElement.scalar(gens[0].n, 1))
