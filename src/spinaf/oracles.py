"""Independent oracles for the count path, which only the tests run.

``fp.enumerate_lifts`` counts every row from relator signs traced in
Ĝ = λ⁻¹(F).  The computations here share no sign computation with it:

- ``evaluate_word``: the honest Clifford product of a word over the spin
  preimages ``fp.base_preimages`` (over Q(sqrt 2), when every holonomy
  matrix is a signed permutation);
- ``sylow_strategy``: existence decided on the pullback of a 2-subgroup S
  of F made of signed permutations (``sylow_subgroup``), rewritten by
  Reidemeister-Schreier (``sylow_pullback_record``), and the count
  2^(mod-2 abelianization rank); it refuses a record on which S has even
  index;
- ``word_matrix``: a word's integer matrix, by matrix arithmetic;
- ``is_spin``: membership in Spin(n), from its definition;
- ``canonical_sign``: the one of {x, -x} with its first nonzero coefficient
  positive, which ``spin.preimage`` returns first;
- ``vector_embed``, ``vector_extract``, ``identity`` and ``transpose``:
  vectors of C_n and matrices over Q(sqrt 2) written out, the references
  for ``spin.lam`` and ``linalg``;
- ``instantiate_relators`` and ``parity_rows``: the relators and their F_2
  rows at one parameter row, from every exponent evaluated there, where
  the count path reads ``AlmostBieberbachRecord.parity_system``;
- ``todd_coxeter`` and ``regular_representation``: coset enumeration, the
  reference for the Ĝ of ``fp.lifted_holonomy`` (on the table presentation
  with a central generator and the ``fp.lift_power_sign`` signs), and the
  check that each table presentation presents a group of the table's order.

No ``spinaf`` command imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import intmat
from .clifford import CliffordElement, blade_str
from .errors import DimensionError, EnumerationBoundExceeded, NonVectorError, SpinafError
from .fp import (
    DIM,
    HOLONOMY,
    LATTICE,
    AlmostBieberbachRecord,
    ExponentExpr,
    GeneratorDecl,
    IntMatrix,
    LiftResult,
    Presentation,
    _f2_solve,
    _parities,
    base_preimages,
)
from .groups import FiniteGroup, Word, closure, spanning_tree, word_to_letters
from .holonomy import FiniteMatrixGroup
from .linalg import Matrix
from .qsqrt2 import QSqrt2

ConcreteWord = Tuple[Tuple[str, int], ...]


def instantiate_relators(presentation: Presentation, params: Mapping[str, int]) -> List[ConcreteWord]:
    """The relators with every exponent evaluated at ``params``; letters
    with exponent 0 are dropped."""
    out = []
    for rel in presentation.relators:
        concrete = []
        for gen, expr in rel:
            e = expr.evaluate(params)
            if e != 0:
                concrete.append((gen, e))
        out.append(tuple(concrete))
    return out


def parity_rows(presentation: Presentation, params: Mapping[str, int]) -> List[int]:
    """Per relator, the bit mask of the generators with odd exponent sum."""
    pos = {n: i for i, n in enumerate(presentation.generator_names)}
    rows: List[int] = []
    for concrete in instantiate_relators(presentation, params):
        row = 0
        for gen, exp in concrete:
            if exp % 2:
                row ^= 1 << pos[gen]
        rows.append(row)
    return rows


def word_matrix(matrices: Mapping[str, IntMatrix], w: Sequence[Tuple[str, int]]) -> IntMatrix:
    """The integer matrix of a word; generators without a matrix act trivially."""
    M = None
    for gen, exp in w:
        if gen in matrices:
            P = intmat.int_mat_pow(matrices[gen], exp)
            M = P if M is None else intmat.int_mat_mul(M, P)
    return intmat.int_identity(DIM) if M is None else M


def evaluate_word(
    w: ConcreteWord, assignment: Mapping[str, int], base: Mapping[str, CliffordElement]
) -> CliffordElement:
    """Honest Clifford product of (sign * base)^exponent along a word."""
    result = CliffordElement.scalar(DIM, 1)
    for gen, exp in w:
        x = base[gen]
        if assignment.get(gen, 1) < 0:
            x = -x
        if exp < 0:
            x = x.conjugate()  # inverse of a spin element
            exp = -exp
        result = result * x ** exp
    return result


def is_spin(x: CliffordElement) -> bool:
    """Whether x lies in Spin(n): x is even, x conj(x) = 1, and x v conj(x)
    is a vector for every generator v."""
    xbar = x.conjugate()
    return x.is_even() and x * xbar == CliffordElement.scalar(x.n, 1) and all(
        (x * CliffordElement.generator(x.n, j) * xbar).grades() <= {1} for j in range(1, x.n + 1)
    )


def vector_embed(n: int, coords: Sequence) -> CliffordElement:
    """Embed a coordinate vector of length n as sum_i coords[i] * e_{i+1}."""
    if len(coords) != n:
        raise DimensionError(f"expected {n} coordinates, got {len(coords)}")
    return CliffordElement(n, {1 << i: c for i, c in enumerate(coords)})


def vector_extract(x: CliffordElement) -> list:
    """Inverse of :func:`vector_embed`; raises NonVectorError off grade 1."""
    for m in x.terms:
        if m.bit_count() != 1:
            raise NonVectorError(f"element has a non-vector component on blade {blade_str(m)}")
    return [x.coeff(1 << i) for i in range(x.n)]


def canonical_sign(x: CliffordElement) -> CliffordElement:
    """Of the pair {x, -x}, the one whose first nonzero coefficient in
    blade-mask order is positive: the reference for ``spin.preimage``'s x."""
    for m in sorted(x.terms):
        s = x.coeff(m).sign()
        if s:
            return -x if s < 0 else x
    return x


def identity(n: int) -> Matrix:
    return tuple(tuple(QSqrt2(int(i == j)) for j in range(n)) for i in range(n))


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def abelianization_mod2_rank(presentation: Presentation, params: Mapping[str, int]) -> int:
    """dim_F2 of Hom(Gamma, C_2) = |generators| - rank of the exponent matrix."""
    rows = parity_rows(presentation, params)
    nvars = len(presentation.generator_names)
    return nvars - len(_f2_solve(rows, [0] * len(rows), nvars))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT strategy with coincidence handling)
# ---------------------------------------------------------------------------


class CosetTable:
    """Coset table produced by :func:`todd_coxeter`.

    ``table[c][x]`` is the coset reached from ``c`` by letter ``x``, where
    letter ``2k`` is generator ``k+1`` and letter ``2k+1`` its inverse.
    After enumeration completes the table is compact: cosets are numbered
    0..index-1 with 0 the subgroup itself.
    """

    def __init__(self, table: List[List[int]]):
        self.table = table

    @property
    def index(self) -> int:
        return len(self.table)

    def apply_word(self, c: int, word: Word) -> int:
        for w in word:
            letter = 2 * (abs(w) - 1) + (0 if w > 0 else 1)
            c = self.table[c][letter]
        return c


def todd_coxeter(
    ngens: int,
    relators: Sequence[Word],
    subgroup: Sequence[Word] = (),
    bound: int = 8192,
) -> CosetTable:
    """Enumerate the cosets of <subgroup> in <gens | relators>.

    Raises EnumerationBoundExceeded if more than ``bound`` cosets are
    defined along the way (the final index may be much smaller).
    """
    nletters = 2 * ngens

    def letters(word: Word) -> List[int]:
        return [2 * (abs(w) - 1) + (0 if w > 0 else 1) for w in word]

    rel_letters = [letters(r) for r in relators]
    sub_letters = [letters(w) for w in subgroup]

    table: List[List[Optional[int]]] = [[None] * nletters]
    p: List[int] = [0]  # union-find for coincidences
    defined = 1

    def rep(c: int) -> int:
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def define(c: int, x: int) -> int:
        nonlocal defined
        if defined >= bound:
            raise EnumerationBoundExceeded(f"coset enumeration exceeded {bound} cosets")
        d = len(table)
        table.append([None] * nletters)
        p.append(d)
        table[c][x] = d
        table[d][x ^ 1] = c
        defined += 1
        return d

    coincidences: List[Tuple[int, int]] = []

    def merge(a: int, b: int):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            coincidences.append((a, b))

    def process_coincidences():
        while coincidences:
            a, b = coincidences.pop()
            a = rep(a)
            for x in range(nletters):
                d = table[b][x]
                if d is None:
                    continue
                table[b][x] = None
                d = rep(d)
                a2 = rep(a)
                if table[a2][x] is None:
                    table[a2][x] = d
                    if table[d][x ^ 1] is None:
                        table[d][x ^ 1] = a2
                    else:
                        merge(table[d][x ^ 1], a2)
                else:
                    merge(table[a2][x], d)
                dx = rep(d)
                if table[dx][x ^ 1] is None:
                    table[dx][x ^ 1] = a2

    def scan_and_fill(c: int, word: List[int]):
        f, b = c, c
        i, j = 0, len(word) - 1
        while True:
            # scan forward as far as possible
            while i <= j and table[f][word[i]] is not None:
                f = rep(table[f][word[i]])
                i += 1
            if i > j:
                if f != b:
                    merge(f, b)
                return
            # scan backward
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = rep(table[b][word[j] ^ 1])
                j -= 1
            if j < i:
                merge(f, b)
                return
            if i == j:
                # deduction closes the scan
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            # fill a gap and keep scanning
            define(f, word[i])

    for w in sub_letters:
        scan_and_fill(0, w)
        process_coincidences()

    c = 0
    while c < len(table):
        if rep(c) != c:
            c += 1
            continue
        for rel in rel_letters:
            if rep(c) != c:
                break
            scan_and_fill(c, rel)
            process_coincidences()
        if rep(c) == c:
            for x in range(nletters):
                if rep(c) != c:
                    break
                if table[c][x] is None:
                    define(c, x)
                    for rel in rel_letters:
                        scan_and_fill(c, rel)
                        process_coincidences()
        c += 1

    # compactify live cosets
    live = [c for c in range(len(table)) if rep(c) == c]
    remap = {c: i for i, c in enumerate(live)}
    compact = []
    for c in live:
        row = []
        for x in range(nletters):
            d = table[c][x]
            if d is None:
                raise EnumerationBoundExceeded("enumeration finished with an incomplete table")
            row.append(remap[rep(d)])
        compact.append(row)
    return CosetTable(compact)


def regular_representation(
    ngens: int, relators: Sequence[Word], bound: int = 8192
) -> Tuple[FiniteGroup, List[Word]]:
    """The group <gens | relators> as a permutation group on itself, and
    per element its word in the generators.

    Elements are cosets of the trivial subgroup, 0 the identity.  Each
    word is the breadth-first path to its coset along the generators only:
    each one permutes the finitely many cosets, so the cosets are all
    reached without inverse letters.
    """
    ct = todd_coxeter(ngens, relators, subgroup=(), bound=bound)
    right = [row[0::2] for row in ct.table]  # letter 2k is generator k + 1
    words: List[Word] = [()] * ct.index
    for y, x, k in spanning_tree(right):
        words[y] = words[x] + (k + 1,)
    return FiniteGroup.from_right_action(right), words


# ---------------------------------------------------------------------------
# Reidemeister-Schreier rewriting
# ---------------------------------------------------------------------------


def reidemeister_schreier(
    ngens: int, relators: Sequence[Word], ct: CosetTable
) -> Tuple[List[Tuple[int, int]], List[Word], List[Word]]:
    """Presentation of the subgroup described by a complete coset table.

    Returns ``(subgens, subrelators, transversal_words)`` where ``subgens``
    lists the non-tree Schreier generators as (coset, generator) pairs,
    ``subrelators`` are the rewritten relators (words over 1-based indices
    into ``subgens``), and ``transversal_words`` gives a coset
    representative word (over the original generators) per coset.
    """
    # the coset representatives: breadth-first words along the generators
    transversal: List[Word] = [()] * ct.index
    tree_edges = set()
    for d, c, k in spanning_tree([row[0::2] for row in ct.table]):
        transversal[d] = transversal[c] + (k + 1,)
        tree_edges.add((c, k + 1))
    subgens: List[Tuple[int, int]] = []
    gen_index = {}
    for c in range(ct.index):
        for g in range(1, ngens + 1):
            if (c, g) not in tree_edges:
                gen_index[(c, g)] = len(subgens) + 1
                subgens.append((c, g))

    def rewrite(start: int, word: Word) -> Word:
        out = []
        c = start
        for letter in word:
            g = abs(letter)
            if letter > 0:
                key = (c, g)
                c = ct.table[c][2 * (g - 1)]
                if key in gen_index:
                    out.append(gen_index[key])
            else:
                c = ct.table[c][2 * (g - 1) + 1]
                key = (c, g)
                if key in gen_index:
                    out.append(-gen_index[key])
        return tuple(out)

    subrels = []
    for c in range(ct.index):
        for r in relators:
            w = rewrite(c, r)
            if w:
                subrels.append(w)
    return subgens, subrels, transversal


# ---------------------------------------------------------------------------
# the Sylow strategy
# ---------------------------------------------------------------------------


def sylow_subgroup(F: FiniteMatrixGroup) -> List[int]:
    """A 2-subgroup S of F whose elements are signed permutations, as a
    list of elements of F.

    F's elements are taken in closure order, and each signed permutation
    joins S when it and S generate a group of 2-power order.  S need not
    be a Sylow subgroup of F; ``sylow_pullback_record`` checks that its
    index is odd.
    """
    G = F.group
    gens: List[int] = []
    S = [G.identity]
    for x in G.elements:
        if intmat.is_signed_perm(F.matrices[x]) and x not in S:
            T = closure(gens + [x], G.mul, G.identity)
            if len(T) & (len(T) - 1) == 0:
                gens.append(x)
                S = T
    return S


def sylow_pullback_record(
    record: AlmostBieberbachRecord, params: Mapping[str, int]
) -> AlmostBieberbachRecord:
    """The record for the preimage of ``sylow_subgroup`` in Gamma, via
    Reidemeister-Schreier.

    Gamma acts on the right cosets S x of S in F through its holonomy
    matrices; lattice generators act trivially.  The Schreier generators'
    holonomy matrices are the theta-images of the corresponding words;
    generators whose matrix is the identity become lattice generators of
    the pullback.  Raises SpinafError when S has even index in F, where the
    pullback may lose an obstruction.
    """
    F = record.holonomy_group
    G = F.group
    S = sylow_subgroup(F)
    index = F.order // len(S)
    if index % 2 == 0:
        raise SpinafError(
            f"family {record.family}: some holonomy matrix is not a signed permutation, "
            f"and the signed permutations in the holonomy group give a 2-subgroup of "
            f"even index {index}, so the Sylow strategy cannot count the record"
        )
    names = record.presentation.generator_names
    actions = {}  # holonomy generator -> its element of F and the inverse
    for n in record.presentation.holonomy_generators():
        x = F.matrices.index(record.matrix_of(n))
        actions[n] = (x, G.inverse(x))
    reps = [G.identity]  # one element x per coset S x, in order of discovery
    coset_of = {s: 0 for s in S}
    rows = []
    c = 0
    while c < len(reps):
        row = [c] * (2 * len(names))
        for i, n in enumerate(names):
            for j, x in enumerate(actions.get(n, ())):
                y = G.mul(reps[c], x)
                if y not in coset_of:
                    coset_of.update((G.mul(s, y), len(reps)) for s in S)
                    reps.append(y)
                row[2 * i + j] = coset_of[y]
        rows.append(row)
        c += 1
    gamma_table = CosetTable(rows)
    pos = {n: i for i, n in enumerate(names)}
    gamma_relators = [
        word_to_letters(w, pos) for w in instantiate_relators(record.presentation, params)
    ]
    subgens, subrels, transversal = reidemeister_schreier(len(names), gamma_relators, gamma_table)

    identity = intmat.int_identity(DIM)
    new_gens: List[GeneratorDecl] = []
    new_mats: Dict[str, IntMatrix] = {}
    gen_names = []
    for i, (coset, g) in enumerate(subgens):
        w = transversal[coset] + (g,)
        target = gamma_table.apply_word(0, w)
        letters = w + tuple(-x for x in reversed(transversal[target]))
        M = word_matrix(record.matrices, [(names[abs(x) - 1], 1 if x > 0 else -1) for x in letters])
        name = f"s{i}"
        gen_names.append(name)
        if M == identity:
            new_gens.append(GeneratorDecl(name, LATTICE))
        else:
            new_gens.append(GeneratorDecl(name, HOLONOMY))
            new_mats[name] = M
    new_relators = tuple(
        tuple((gen_names[abs(letter) - 1], ExponentExpr.make(1 if letter > 0 else -1)) for letter in rel)
        for rel in subrels
    )
    return AlmostBieberbachRecord(
        family=f"{record.family}/Syl2",
        holonomy_name="Syl2",
        presentation=Presentation(tuple(new_gens), new_relators, ()),
        matrices=new_mats,
        nilpotency_class=record.nilpotency_class,
        source=record.source,
    )


def sylow_strategy(record: AlmostBieberbachRecord, params: Sequence[int]) -> LiftResult:
    """Lift count via restriction to the Sylow pullback: an oracle for
    ``fp.enumerate_lifts`` that shares no sign computation with it.

    Existence is decided on the pullback record, whose holonomy matrices lie
    in the signed-permutation group ``sylow_subgroup``, by evaluating its
    relators as Clifford products (``evaluate_word``), and the count is
    2^(mod-2 abelianization rank) of the full record when a lift exists.
    Restriction to a subgroup of odd index loses no obstruction, which is
    why any such subgroup serves; at even index it may lose one, so the
    oracle raises SpinafError there instead of counting.  ``params`` is a
    row as ``fp.count_lifts`` takes it, reduced mod 2 first: the values
    enter the pullback's relators as exponents, evaluated by name.
    """
    odd = _parities(record, params)
    named = dict(zip(record.presentation.parameters, odd))
    pullback = sylow_pullback_record(record, named)
    base = base_preimages(pullback)
    one = CliffordElement.scalar(DIM, 1)
    rhs = [int(evaluate_word(rel, {}, base) != one)
           for rel in instantiate_relators(pullback.presentation, {})]
    rows = parity_rows(pullback.presentation, {})
    if _f2_solve(rows, rhs, len(pullback.presentation.generators)) is None:
        return LiftResult(False, 0, odd)
    d = abelianization_mod2_rank(record.presentation, named)
    return LiftResult(True, 2 ** d, odd)
