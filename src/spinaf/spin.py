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
from .clifford import CliffordElement, sign_table, vector_embed, vector_extract
from .errors import NotInImage, UnsupportedScalar
from .linalg import Matrix
from .qsqrt2 import ZERO, QSqrt2


def is_spin(x: CliffordElement) -> bool:
    """Whether x lies in Spin(n)."""
    if not x.is_even():
        return False
    if x * x.conjugate() != CliffordElement.scalar(x.n, 1):
        return False
    xbar = x.conjugate()
    for j in range(1, x.n + 1):
        v = x * CliffordElement.generator(x.n, j) * xbar
        if v.grades() - {1}:
            return False
    return True


def lam(x: CliffordElement) -> Matrix:
    """The covering map: the matrix of v -> x v conj(x) on generators.

    Raises NonVectorError if some generator is not carried to a vector and
    NotInSO if the resulting matrix fails to be special orthogonal (both
    indicate that x is not a spin element).
    """
    xbar = x.conjugate()
    cols = []
    for j in range(1, x.n + 1):
        v = x * CliffordElement.generator(x.n, j) * xbar
        cols.append(vector_extract(v))
    M = tuple(tuple(cols[j][i] for j in range(x.n)) for i in range(x.n))
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
    """
    n = len(M)
    linalg.check_special_orthogonal(M)
    images = [CliffordElement.scalar(n, 1)]
    for A in range(1, 1 << n):
        top = A.bit_length() - 1
        images.append(images[A ^ (1 << top)] * vector_embed(n, [row[top] for row in M]))
    negative = sign_table(n)
    # (A, m, c): the term c e_m of F_A, with the sign of e_A^-1 = +-e_A folded in
    terms = [
        (A, m, -c if negative[A][A] else c)
        for A, F in enumerate(images)
        for m, c in F.terms.items()
    ]
    for B in range(1 << n):
        if B.bit_count() % 2:
            continue
        acc: Dict[int, QSqrt2] = {}
        for A, m, c in terms:
            mb = m ^ B
            mask = mb ^ A
            acc[mask] = acc.get(mask, ZERO) + (-c if negative[m][B] != negative[mb][A] else c)
        y = CliffordElement(n, acc)
        if not y.is_zero():
            break
    else:  # pragma: no cover - some <x^-1 e_B>_0 is nonzero for x != 0
        raise NotInImage("internal error: every frame sum vanished")
    # the scalar y * conj(y) is the sum of the squared coefficients of y
    root = sum((c * c for c in y.terms.values()), ZERO).sqrt()
    if root is None:
        raise UnsupportedScalar(
            "normalising the preimage requires a square root outside Q(sqrt 2)"
        )
    x = y.scale(root.inverse())
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
