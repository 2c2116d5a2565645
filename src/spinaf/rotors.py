"""Twisted conjugation in C_n for every n: the sandwich and its inverse.

``spin`` computes lam and its preimages in dimension 4 on quaternion pairs;
this module is the general-n path that ``spin`` takes for every other
input (odd or mixed elements of C_4, and every n != 4), and the reference
the tests compare the quaternion path against.  ``spin`` imports it on
first use, so the commands, which work in dimension 4, never load it.

With c_A the coefficient of e_A in x, x e_j conj(x) sums
t(A, B) = c_A c_B e_A e_j conj(e_B) over blade pairs, and
t(B, A) = -conj(t(A, B)) (Lounesto, *Clifford Algebras and Spinors*, 2001).
So the sandwich adds each unordered pair once, doubled off the diagonal, on
output blades of grade 1 or 2 mod 4, and skips grades 0 and 3 mod 4, where
the two orders cancel.  Preimages come from the frame-to-rotor construction
(see Doran & Lasenby, *Geometric Algebra for Physicists*, 2003).  Both run
on integer pairs over one denominator.
"""

from __future__ import annotations

from functools import cache
from typing import List, Tuple

from . import linalg
from .clifford import CliffordElement, _integral, _product, blade_str, sign_table
from .errors import NonVectorError, NotInImage
from .spin import _check_cover, _normalised


@cache
def sandwich_table(n: int) -> Tuple[List[int], tuple]:
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


def sandwich(x: CliffordElement) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """lam(x) before its SO(n) check, as integer pair rows over D = d^2 for
    the denominator d of x, from one pass over its unordered blade pairs.
    Raises NonVectorError if some generator is not carried to a vector."""
    n = x.n
    blades, table = sandwich_table(n)
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


def frame_preimage(d: int, rows: List[List[Tuple[int, int]]]) -> CliffordElement:
    """x from M's integer pair rows over d by the frame-to-rotor formula.

    With F_A = (M e_a1)...(M e_ak) the image x e_A x^-1 of each blade e_A,
    the frame-to-rotor identity reads

        sum_A F_A e_B e_A^-1 = 2^n <x^-1 e_B>_0 x,

    so the first even blade e_B giving a nonzero sum y yields x = y / |y|,
    where |y|^2 is the scalar y * conj(y).  Raises NotInSO when M is not in
    SO(n), and the guard lam(x) = M compares :func:`sandwich` of x.

    Grouping the blades A by their least generator j nests the sum:
    T_(n+1) = e_B, T_j = T_(j+1) + (M e_j) T_(j+1) e_j^-1 and y = T_1, so
    it takes n products, not one image per blade.  With M over one
    denominator d, T_j is over d^(n+1-j).  The denominator d^n of y is
    dropped, because y / |y| is the same for every positive multiple of y.
    """
    n = len(rows)
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
    x = _normalised(n, y)
    _check_cover(d, rows, *sandwich(x))
    return x
