"""The group Spin(n) inside C_n and the twisted-conjugation covering map.

Spin(n) consists of the even elements x with x * conj(x) = 1 whose twisted
conjugation v -> x v conj(x) preserves the span of the generators.  The
covering map ``lam`` sends such an x to the special orthogonal matrix of
that action; its kernel is {+1, -1}.  ``lam`` checks that the matrix it
returns is special orthogonal, not that x lies in Spin(n): it does not test
x * conj(x) = 1, so an even element outside Spin(n) such as
1 + sqrt2 e1e2e3e4 maps to a matrix too.  ``oracles.is_spin`` is the
membership test.

Every command works in dimension 4, where Spin(4) is S^3 x S^3 acting on
H = R^4 by v -> p v conj(q) (Mebius, arXiv:math/0501249, 2005).  A fixed
+-1 map Phi takes the eight even coefficients of x to the quaternion pair
(p, q), and lam(x) = sum p_a q_b B_ab, where B_ab is the signed permutation
matrix of v -> u_a v conj(u_b) for the units u = (1, i, j, k).  Its M^T M
is |p|^2 |q|^2 I and its determinant (|p|^2 |q|^2)^2, so the SO(4) check is
|p|^2 |q|^2 = 1.  Backwards, the associate matrix A_ab = <M, B_ab> / 4
equals p_a q_b: M is in SO(4) exactly when A has rank 1 and
sum A_ab^2 = 1, and a column and a row of A give (p, q) up to one scalar,
so the preimage takes one square root and no frame sums.  Both directions
scatter nonzero pairs only (:func:`_scatter`): a nonzero product p_a q_b,
or a nonzero entry of M, goes with its sign into four slots, so a signed
permutation scatters 16 terms, not the 64 of the dense sums.  ``lam``
reduces the 16 flat slots straight to entries (a unit takes no gcd), the
guard reads them as they are, and the rank-1 test of A reads its support.
A row of entries all below 1/n in size is refused before anything squares.

``lam`` takes that path on the even elements of C_4 and ``preimage`` on
4 x 4 matrices; an odd or mixed element of C_4 and any n != 4 take the
general-n sandwich and frame-to-rotor preimage of :mod:`spinaf.rotors`,
with their NonVectorError and determinant -1 messages.  Both paths run in
integers, from pairs over one denominator to x, with no Fraction.  Each
SO(n) check runs once: ``lam`` checks its own pairs before reducing any
entry, ``preimage`` its input, and the guard lam(x) = M compares pairs with
M's by cross-multiplication, which puts lam(x) in SO(n) too.
"""

from __future__ import annotations

import operator
from functools import cache
from math import lcm
from typing import Iterable, List, Sequence, Tuple

from . import linalg
from .clifford import CliffordElement, _element
from .errors import NotInImage, NotInSO, UnsupportedScalar
from .linalg import Matrix
from .qsqrt2 import ZERO, _integer_root, _reduced, _sign

# Phi: the even blade e_A of C_4 as (u, s, t), adding s c_A to unit u of p
# and t c_A to unit u of q, with vector e_(c+1) as unit c of (1, i, j, k).
# The two blades of a unit have orthogonal sign rows, so c_A is
# (s p_u + t q_u) / 2.  Keys ascend, so reading it lists the blades in order.
_PHI = {0: (0, 1, 1), 3: (1, 1, -1), 5: (2, 1, -1), 6: (3, 1, 1),
        9: (3, 1, -1), 10: (2, -1, -1), 12: (1, 1, 1), 15: (0, -1, 1)}


@cache
def _mebius_table() -> tuple:
    """The 64 nonzero entries of the 16 signed permutation matrices B_ab of
    v -> u_a v conj(u_b): entry [4 r + c] lists 4 a + b for the four B_ab
    with a nonzero entry (r, c), as the pair (where it is +1, where -1).
    The 16 x 16 matrix of B_ab[r][c] over (4 a + b, 4 r + c) is symmetric,
    so the same slots scatter both sum p_a q_b B_ab and 4 A_ab = <M, B_ab>."""
    def sign(a, c):  # u_a u_c = sign(a, c) u_(a ^ c)
        return 1 if a == 0 or c == 0 or (c - a) % 3 == 1 else -1

    table = [([], []) for _ in range(16)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                negative = sign(a, c) * sign(a ^ c, b) * (-1 if b else 1) < 0
                table[4 * (a ^ b ^ c) + c][negative].append(4 * a + b)
    return tuple((tuple(plus), tuple(minus)) for plus, minus in table)


def _scatter(entries: List[Tuple[int, int, int]]) -> Tuple[List[int], List[int]]:
    """Each nonzero entry (k, a, b) added, with its sign, into the four slots
    that :func:`_mebius_table` lists for k, as two lists of 16 parts."""
    A, B, table = [0] * 16, [0] * 16, _mebius_table()
    for k, a, b in entries:
        plus, minus = table[k]
        for i in plus:
            A[i] += a
            B[i] += b
        for i in minus:
            A[i] -= a
            B[i] -= b
    return A, B


def _quaternions(x: CliffordElement) -> Tuple[int, List[int], List[int], List[int], List[int]]:
    """Phi(x) = (p, q) for an even x in C_4, over the denominator d of x:
    (d, pa, pb, qa, qb) with p_u = (pa[u] + pb[u] sqrt2) / d and q alike."""
    d = lcm(*[c._d for c in x._terms.values()])
    pa, pb, qa, qb = [0] * 4, [0] * 4, [0] * 4, [0] * 4
    for m, c in x._terms.items():
        u, s, t = _PHI[m]
        a, b = c._a * (d // c._d), c._b * (d // c._d)
        pa[u] += s * a
        pb[u] += s * b
        qa[u] += t * a
        qb[u] += t * b
    return d, pa, pb, qa, qb


def _mebius(pa: List[int], pb: List[int], qa: List[int], qb: List[int]) -> Tuple[List[int], List[int]]:
    """The matrix of v -> p v conj(q) as :func:`_scatter`'s two lists of 16
    parts, entry (r, c) in slot 4 r + c: each nonzero product p_a q_b
    scattered into the entries where B_ab is nonzero."""
    q = [(b, r, s) for b, (r, s) in enumerate(zip(qa, qb)) if r or s]
    return _scatter([(4 * a + b, p * r + 2 * t * s, p * s + t * r)
                     for a, (p, t) in enumerate(zip(pa, pb)) if p or t for b, r, s in q])


def _norm(a: List[int], b: List[int]) -> Tuple[int, int]:
    """The pair of the sum of the squares of the entries (a[k] + b[k] sqrt2)."""
    return sum(map(operator.mul, a, a)) + 2 * sum(map(operator.mul, b, b)), 2 * sum(map(operator.mul, a, b))


def _times(a: List[int], b: List[int], g: int, h: int) -> List[Tuple[int, int]]:
    """The pairs of the products (a[k] + b[k] sqrt2)(g + h sqrt2)."""
    return [(p * g + 2 * q * h, p * h + q * g) for p, q in zip(a, b)]


def lam(x: CliffordElement) -> Matrix:
    """The covering map: the matrix of v -> x v conj(x) on generators.

    Raises NonVectorError if some generator is not carried to a vector and
    NotInSO if the resulting matrix fails to be special orthogonal (both
    indicate that x is not a spin element); the SO(n) check runs on integer
    pairs, before any entry is reduced.  An even x in C_4 goes through Phi,
    and its check |p|^2 |q|^2 = 1 raises NotInSO("matrix is not
    orthogonal"), the one way :func:`_mebius` of (p, q) leaves SO(4); any
    other x takes ``rotors.sandwich`` and ``linalg._check_so``.  It does not
    check that x lies in Spin(n): x * conj(x) = 1 is not tested, and
    lam(1 + sqrt2 e1e2e3e4) = -I although x * conj(x) is
    3 + 2 sqrt2 e1e2e3e4.  ``oracles.is_spin`` is the membership test.
    """
    if x.n == 4 and _PHI.keys() >= x._terms.keys():
        d, pa, pb, qa, qb = _quaternions(x)
        (s, t), (u, v), D = _norm(pa, pb), _norm(qa, qb), d * d
        if s * v + t * u or s * u + 2 * t * v != D * D:
            raise NotInSO("matrix is not orthogonal")
        e = [_reduced(a, b, D) if a or b else ZERO for a, b in zip(*_mebius(pa, pb, qa, qb))]
        return tuple(e[0:4]), tuple(e[4:8]), tuple(e[8:12]), tuple(e[12:16])
    from .rotors import sandwich

    D, rows = sandwich(x)
    linalg._check_so(D, rows)
    return tuple([tuple([_reduced(a, b, D) if a or b else ZERO for a, b in row]) for row in rows])


def preimage(M: Matrix) -> Tuple[CliffordElement, CliffordElement]:
    """Both preimages (x, -x) of a special orthogonal matrix, where x's first
    nonzero coefficient in blade-mask order is positive.

    A 4 x 4 matrix is read through its associate matrix, any other size by
    ``rotors.frame_preimage``; both give the same x.  Raises NotInSO, with
    ``linalg.check_special_orthogonal``'s message, when M is not in SO(n),
    and UnsupportedScalar when x needs a square root outside Q(sqrt 2).  An
    entry (a + b sqrt2)/d with |a| or |b| above d, outside SO(n) since M's
    Galois conjugate is orthogonal too, is refused before anything squares,
    and so is a row with n (|a| + 2 |b|) < d in every entry, whose squares
    sum below 1.  A huge common denominator with a large entry in every row,
    which SO(n) allows, still takes the squaring path.
    """
    n = len(M)
    for row in M:
        tiny = True
        for x in row:
            a, b, e = abs(x._a), abs(x._b), x._d
            if a > e or b > e:
                raise NotInSO("matrix is not orthogonal")
            tiny = tiny and n * (a + 2 * b) < e
        if tiny:
            raise NotInSO("matrix is not orthogonal")
    d, rows = linalg._integral(M)
    if n == 4:
        x = _quaternion_preimage(d, rows)
    else:
        from .rotors import frame_preimage

        x = frame_preimage(d, rows)
    return x, -x


def _quaternion_preimage(d: int, rows: List[List[Tuple[int, int]]]) -> CliffordElement:
    """x from the associate matrix A_ab = <M, B_ab> / 4 of M (Mebius 2005).

    M is in SO(4) exactly when A has rank 1 and sum A_ab^2 = 1, and then
    A = p q^T for the (p, q) = Phi(x) of x, with |p| = |q| = 1; otherwise
    ``linalg._check_so`` raises its NotInSO.  With a pivot A_(a0 b0) != 0,
    and no zero divisors in Z[sqrt 2], A has rank 1 exactly when its support
    is the (a, b) with A_(a b0), A_(a0 b) != 0 and there
    A_ab A_(a0 b0) = A_(a b0) A_(a0 b).  P = column b0 times A_(a0 b0) and
    Q = row a0 times |column b0|^2 are the same multiple p_a0 q_b0^2 of p
    and q, so y = Phi^-1(P, Q) is a multiple of x; the guard lam(x) = M
    compares :func:`_mebius` of x with M's 16 pairs."""
    flat = rows[0] + rows[1] + rows[2] + rows[3]
    A, B = _scatter([(k, a, b) for k, (a, b) in enumerate(flat) if a or b])  # 4 d A
    s, t = _norm(A, B)
    support = [k for k in range(16) if A[k] or B[k]]
    a0, b0 = divmod(support[0] if support else 0, 4)
    g, h = A[4 * a0 + b0], B[4 * a0 + b0]
    ca, cb, wa, wb = A[b0::4], B[b0::4], A[4 * a0:4 * a0 + 4], B[4 * a0:4 * a0 + 4]
    # sum A_ab^2 = 1, and rank 1: the slots (a, b) with A_(a b0), A_(a0 b) != 0
    # are the support, and A_ab A_(a0 b0) = A_(a b0) A_(a0 b) on them
    rank = [(4 * a + b, p, q, u, v) for a, p, q in zip(range(4), ca, cb) if p or q
            for b, u, v in zip(range(4), wa, wb) if u or v]
    if t or s != 16 * d * d or len(support) != len(rank) or any(
            A[k] * g + 2 * B[k] * h != p * u + 2 * q * v or A[k] * h + B[k] * g != p * v + q * u
            for k, p, q, u, v in rank):
        linalg._check_so(d, rows)
        raise NotInImage("internal error: an SO(4) matrix has no rank-1 associate")  # pragma: no cover
    # both over (4 d)^3: the column times 4 d A_(a0 b0), the row times |column|^2
    P, Q = _times(ca, cb, 4 * d * g, 4 * d * h), _times(wa, wb, *_norm(ca, cb))
    y = [(m, i * P[u][0] + j * Q[u][0], i * P[u][1] + j * Q[u][1]) for m, (u, i, j) in _PHI.items()]
    x = _normalised(4, [(m, a, b) for m, a, b in y if a or b])
    dx, pa, pb, qa, qb = _quaternions(x)
    _check_cover(d, flat, dx * dx, zip(*_mebius(pa, pb, qa, qb)))
    return x


def _normalised(n: int, y: List[Tuple[int, int, int]]) -> CliffordElement:
    """x = y / |y| for a nonzero multiple y of a spin element, given as
    (mask, a, b) integer pairs, with the sign that makes x's lowest blade
    positive.  |y|^2 = y * conj(y) is the sum of the squared coefficients of
    y, in Z[sqrt 2], and |y| its integer root c + e sqrt2 > 0
    (``qsqrt2._integer_root``), so no Fraction and no field inverse is
    built.  Raises UnsupportedScalar when |y| lies outside Q(sqrt 2)."""
    root = _integer_root(sum(a * a + 2 * b * b for _, a, b in y), sum(2 * a * b for _, a, b in y))
    if root is None:
        raise UnsupportedScalar("normalising the preimage requires a square root outside Q(sqrt 2)")
    # x = y / |y| = y (c - e sqrt2) / N for N = c^2 - 2 e^2; t moves the sign
    # of N into the numerator and makes x's lowest blade positive like y's
    c, e = root
    N = c * c - 2 * e * e
    t = _sign(*min(y)[1:]) * (1 if N > 0 else -1)
    return _element(n, {m: _reduced(t * (a * c - 2 * b * e), t * (b * c - a * e), abs(N)) for m, a, b in y})


def _check_cover(d: int, pairs: Iterable[Tuple[int, int]], D: int, cover: Iterable[Tuple[int, int]]) -> None:
    """The guard lam(x) = M on integer pairs, by cross-multiplication: M's
    entries over d against x's over D, both flat in row order, zeros
    included.  M is in SO(n), so equality also puts lam(x) there."""
    if any(a * d != r * D or b * d != s * D for (a, b), (r, s) in zip(cover, pairs)):
        raise NotInImage("internal error: constructed element does not cover the matrix")


def subgroup_closure(gens: Sequence[CliffordElement]) -> List[CliffordElement]:
    """The subgroup generated by spin elements, as an explicit element list.

    Elements of Spin(n) have finite order only in the cases we care about;
    the closure's default bound guards against accidentally infinite input.
    """
    from .groups import closure  # imported here so that spin alone stays light

    if not gens:
        raise ValueError("need at least one generator")
    return closure(gens, operator.mul, CliffordElement.scalar(gens[0].n, 1))
