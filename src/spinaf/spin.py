"""The group Spin(n) inside C_n and the twisted-conjugation covering map.

Spin(n) consists of the even elements x with x * conj(x) = 1 whose twisted
conjugation v -> x v conj(x) preserves the span of the generators.  The
covering map ``lam`` sends such an x to the special orthogonal matrix of
that action; its kernel is {+1, -1}.

Preimages are computed exactly by one closed formula for every special
orthogonal matrix over Q(sqrt 2): the frame-to-rotor construction (see
Doran & Lasenby, *Geometric Algebra for Physicists*, 2003) builds a
multiple of the preimage from the images of the basis blades, and
normalising it fails with :class:`UnsupportedScalar` when the norm's square
root leaves the field.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .clifford import CliffordElement, _element, _integral, _product, blade_str, sign_table
from .errors import NonVectorError, NotInImage, UnsupportedScalar
from .linalg import Matrix
from .qsqrt2 import ZERO, _reduced


def lam(x: CliffordElement) -> Matrix:
    """The covering map: the matrix of v -> x v conj(x) on generators.

    One pass over the blade pairs (A, B) of x, over one denominator d, fills
    all n columns: the pair's integer product enters x e_j conj(x) on the
    blade A ^ B ^ {j}, over d^2.  Raises NonVectorError if some generator is
    not carried to a vector and NotInSO if the resulting matrix fails to be
    special orthogonal (both indicate that x is not a spin element).
    """
    n = x.n
    negative = sign_table(n)
    d, xs = _integral(x._terms)
    acc_a, acc_b = [0] * (n << n), [0] * (n << n)  # blade m of column j at m * n + j
    columns = [(j, 1 << j) for j in range(n)]
    for A, a1, b1 in xs:
        row = negative[A]
        for B, a2, b2 in xs:
            p, q = a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2
            # e_A e_j conj(e_B) = r (-1)^[j in B] e_A e_B e_j with r = -1 for
            # |B| = 2, 3 mod 4: conj(e_B) is (-1)^|B| times the reversal of
            # e_B, and e_j passes e_B with (-1)^(|B| - [j in B])
            flip = row[B] ^ (B.bit_count() & 2 > 0)
            AB = A ^ B
            signs = negative[AB]
            for j, bit in columns:
                k = (AB ^ bit) * n + j
                if flip ^ signs[bit] ^ (B & bit > 0):
                    acc_a[k] -= p
                    acc_b[k] -= q
                else:
                    acc_a[k] += p
                    acc_b[k] += q
    M = [[ZERO] * n for _ in range(n)]
    for k, (a, b) in enumerate(zip(acc_a, acc_b)):
        if a or b:
            m, j = divmod(k, n)
            if m.bit_count() != 1:
                raise NonVectorError(f"element has a non-vector component on blade {blade_str(m)}")
            M[m.bit_length() - 1][j] = _reduced(a, b, d * d)
    M = tuple(map(tuple, M))
    linalg.check_special_orthogonal(M)
    return M


def canonical_sign(x: CliffordElement) -> CliffordElement:
    """Of the pair {x, -x}, the one whose first nonzero coefficient in
    blade-mask order is positive."""
    for m in sorted(x.terms):
        s = x.coeff(m).sign()
        if s < 0:
            return -x
        if s > 0:
            return x
    return x


def preimage(M: Matrix) -> Tuple[CliffordElement, CliffordElement]:
    """Both preimages (x, -x) of a special orthogonal matrix, x sign-canonical.

    With F_A = (M e_a1)...(M e_ak) the image x e_A x^-1 of each blade e_A,
    the frame-to-rotor identity reads

        sum_A F_A e_B e_A^-1 = 2^n <x^-1 e_B>_0 x,

    so the first even blade e_B giving a nonzero sum y yields x = y / |y|,
    where |y|^2 is the scalar y * conj(y).  Raises NotInSO when M is not in
    SO(n) and UnsupportedScalar when |y| lies outside Q(sqrt 2).

    The images and the sums run on integer pairs: with M over one
    denominator d, F_A is a product of |A| columns over d^|A|, scaled by
    d^(n-|A|) so that every sum is over d^n.  That denominator is dropped,
    because y / |y| is the same for every positive multiple of y, so the
    only field operations are the square root and one inverse.
    """
    n = len(M)
    linalg.check_special_orthogonal(M)
    negative = sign_table(n)
    d, rows = linalg._integral(M)
    # the column M e_(j+1) as a (mask, a, b) list over d
    columns = [[(1 << i, a, b) for i, (a, b) in enumerate(col) if a or b] for col in zip(*rows)]
    images = [[(0, 1, 0)]]  # F_A over d^|A|
    for A in range(1, 1 << n):
        top = A.bit_length() - 1
        images.append(_product(n, images[A ^ (1 << top)], columns[top]))
    # (A, m, a, b): the term of F_A on e_m over d^n, with the sign of
    # e_A^-1 = +-e_A folded in
    terms = []
    for A, F in enumerate(images):
        scale = d ** (n - A.bit_count())
        if negative[A][A]:
            scale = -scale
        terms += [(A, m, a * scale, b * scale) for m, a, b in F]
    for B in range(1 << n):
        if B.bit_count() % 2:
            continue
        acc: Dict[int, list] = {}
        for A, m, a, b in terms:
            mb = m ^ B
            pair = acc.setdefault(mb ^ A, [0, 0])
            if negative[m][B] != negative[mb][A]:
                pair[0] -= a
                pair[1] -= b
            else:
                pair[0] += a
                pair[1] += b
        y = [(m, a, b) for m, (a, b) in acc.items() if a or b]
        if y:
            break
    else:  # pragma: no cover - some <x^-1 e_B>_0 is nonzero for x != 0
        raise NotInImage("internal error: every frame sum vanished")
    # the scalar y * conj(y) is the sum of the squared coefficients of y
    root = _reduced(sum(a * a + 2 * b * b for _, a, b in y), sum(2 * a * b for _, a, b in y), 1).sqrt()
    if root is None:
        raise UnsupportedScalar(
            "normalising the preimage requires a square root outside Q(sqrt 2)"
        )
    inverse = root.inverse()
    r, s, e = inverse._a, inverse._b, inverse._d
    x = _element(n, {m: _reduced(a * r + 2 * b * s, a * s + b * r, e) for m, a, b in y})
    if lam(x) != M:  # pragma: no cover - internal consistency guard
        raise NotInImage("internal error: constructed element does not cover the matrix")
    x = canonical_sign(x)
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
