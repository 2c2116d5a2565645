"""The group Spin(n) inside C_n and the twisted-conjugation covering map.

Spin(n) consists of the even elements x with x * conj(x) = 1 whose twisted
conjugation v -> x v conj(x) preserves the span of the generators.  The
covering map ``lam`` sends such an x to the special orthogonal matrix of
that action; its kernel is {+1, -1}.

Preimages are computed exactly.  Signed permutation matrices factor through
products of (1 + e_p e_q)/sqrt(2) and diagonal blades; a general special
orthogonal matrix over Q(sqrt 2) is handled by solving the linear system
x e_j = (M e_j) x over the even subalgebra and normalising, which fails
with :class:`NotInImage` / :class:`UnsupportedScalar` when no preimage
exists over the field.
"""

from __future__ import annotations

import operator
from typing import List, Sequence, Tuple

from . import linalg
from .clifford import CliffordElement, vector_embed, vector_extract
from .errors import (
    NonVectorError,
    NotInImage,
    NotInSO,
    UnsupportedScalar,
)
from .linalg import Matrix
from .qsqrt2 import QSqrt2, HALF_SQRT2

DEFAULT_CLOSURE_BOUND = 4096


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


def transposition_element(n: int, p: int, q: int) -> CliffordElement:
    """(1 + e_p e_q)/sqrt(2), a spin preimage of a signed transposition."""
    one = CliffordElement.scalar(n, 1)
    return (one + CliffordElement.blade(n, sorted((p, q)))) * HALF_SQRT2


def diagonal_blade(n: int, negatives: Sequence[int]) -> CliffordElement:
    """e_{n1}...e_{nl}: a preimage of the diagonal matrix with -1 exactly
    at the (even number of) given 1-based positions."""
    if len(negatives) % 2:
        raise NotInImage("a diagonal matrix with an odd number of -1 entries has determinant -1")
    return CliffordElement.blade(n, sorted(negatives))


def preimage_signed_perm(M: Matrix) -> Tuple[CliffordElement, CliffordElement]:
    """Both preimages of a signed permutation matrix in SO(n).

    Returns (x, -x) with x sign-canonical.  Raises NotSignedPerm /
    NotInSO as appropriate.
    """
    n = len(M)
    cols = linalg.signed_perm_decompose(M)
    if linalg.det(M) != QSqrt2(1):
        raise NotInSO("signed permutation matrix has determinant -1")
    # Factor the underlying permutation (column j carries +-e_{sigma(j)})
    # into transpositions and take the standard preimage of each.
    sigma = [i for i, _s in cols]
    x = CliffordElement.scalar(n, 1)
    seen = [False] * n
    for start in range(n):
        if seen[start] or sigma[start] == start:
            seen[start] = True
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = sigma[j]
        # (c0 c1 ... ck) = (c0 ck)···(c0 c2)(c0 c1) as left-acting matrices
        for k in range(len(cycle) - 1, 0, -1):
            x = x * transposition_element(n, cycle[0] + 1, cycle[k] + 1)
    # The residue M * lam(x)^T is diagonal with entries +-1.
    residue = linalg.mat_mul(M, linalg.transpose(lam(x)))
    negs = [i + 1 for i in range(n) if residue[i][i] == QSqrt2(-1)]
    x = diagonal_blade(n, negs) * x
    if lam(x) != M:  # pragma: no cover - internal consistency guard
        raise NotInImage("internal error: constructed element does not cover the matrix")
    x = canonical_sign(x)
    return x, -x


def preimage_general(M: Matrix) -> Tuple[CliffordElement, CliffordElement]:
    """Both preimages of a special orthogonal matrix over Q(sqrt 2).

    Solves x e_j = (M e_j) x over the even subalgebra, then normalises a
    nonzero solution y by the square root of the scalar y * conj(y).
    Raises UnsupportedScalar when that square root leaves Q(sqrt 2), and
    NotInImage when the linear system has no nonzero solution.
    """
    n = len(M)
    linalg.check_special_orthogonal(M)
    even_masks = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
    col_of = {m: i for i, m in enumerate(even_masks)}
    width = len(even_masks)
    rows: List[List[QSqrt2]] = []
    row_index = {}

    def row_for(j: int, mask: int) -> List[QSqrt2]:
        key = (j, mask)
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append([QSqrt2(0)] * width)
        return rows[row_index[key]]

    for j in range(n):
        mcol = [M[i][j] for i in range(n)]
        for bm in even_masks:
            # x e_j term: blade bm times e_{j+1}
            B = CliffordElement(n, {bm: 1})
            lhs = B * CliffordElement.generator(n, j + 1)
            for m, c in lhs.terms.items():
                r = row_for(j, m)
                r[col_of[bm]] = r[col_of[bm]] + c
            # -(M e_j) x term
            rhs = vector_embed(n, mcol) * B
            for m, c in rhs.terms.items():
                r = row_for(j, m)
                r[col_of[bm]] = r[col_of[bm]] - c
    basis = linalg.nullspace(rows, width)
    if not basis:
        raise NotInImage("matrix has no even Clifford element intertwining it")
    y = CliffordElement(n, {even_masks[i]: c for i, c in enumerate(basis[0])})
    norm = y * y.conjugate()
    if not norm.is_scalar():
        raise NotInImage("intertwiner has non-scalar norm")
    s = norm.scalar_part()
    if s.sign() <= 0:
        raise UnsupportedScalar("intertwiner norm is not positive")
    root = s.sqrt()
    if root is None:
        raise UnsupportedScalar(
            "normalising the preimage requires a square root outside Q(sqrt 2)"
        )
    x = y.scale(root.inverse())
    if not is_spin(x) or lam(x) != M:
        raise NotInImage("normalised intertwiner is not a spin preimage")
    x = canonical_sign(x)
    return x, -x


def preimage(M: Matrix) -> Tuple[CliffordElement, CliffordElement]:
    """Preimages of M, using the signed-permutation fast path when it applies."""
    if linalg.is_signed_perm(M):
        return preimage_signed_perm(M)
    return preimage_general(M)


def subgroup_closure(
    gens: Sequence[CliffordElement], bound: int = DEFAULT_CLOSURE_BOUND
) -> List[CliffordElement]:
    """The subgroup generated by spin elements, as an explicit element list.

    Elements of Spin(n) have finite order only in the cases we care about;
    the bound guards against accidentally infinite input.
    """
    from .groups import closure  # imported here so that spin alone stays light

    if not gens:
        raise ValueError("need at least one generator")
    return closure(gens, operator.mul, CliffordElement.scalar(gens[0].n, 1), bound)
