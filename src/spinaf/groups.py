"""Finite group utilities: closures, isomorphism-type identification and
coset enumeration.

Groups are handled concretely as a list of hashable elements together with
a multiplication callable.  Everything here is sized for groups of order
at most a few dozen (the holonomy groups and their double covers), so the
algorithms are straightforward brute force.

Words in abstract generators are tuples of nonzero integers: ``+k`` is the
k-th generator (1-based) and ``-k`` its inverse.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd, prod
from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple

from .errors import ClosureBoundExceeded, EnumerationBoundExceeded, UnknownGroup

Word = Tuple[int, ...]


def word_to_letters(word: Sequence[Tuple[str, int]], pos: Mapping[str, int]) -> Word:
    """A word of (generator name, integer exponent) pairs as letters, where
    ``pos`` gives each name's 0-based generator index."""
    out: List[int] = []
    for gen, exp in word:
        letter = pos[gen] + 1 if exp > 0 else -(pos[gen] + 1)
        out.extend([letter] * abs(exp))
    return tuple(out)


def closure(
    gens: Sequence[Hashable],
    mul: Callable,
    identity: Hashable,
    bound: int = 4096,
) -> List[Hashable]:
    """BFS closure of a generating set under multiplication."""
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if len(seen) >= bound:
                        raise ClosureBoundExceeded(f"closure exceeded {bound} elements")
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order


class FiniteGroup:
    """A finite group given by an explicit element list and multiplication."""

    def __init__(self, elements: Sequence[Hashable], mul: Callable, identity: Hashable):
        self.elements = list(elements)
        self.mul = mul
        self.identity = identity
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        if identity not in self.index:
            raise ValueError("identity not among the elements")

    @classmethod
    def generated(cls, gens, mul, identity, bound: int = 4096) -> "FiniteGroup":
        return cls(closure(gens, mul, identity, bound), mul, identity)

    def __len__(self) -> int:
        return len(self.elements)

    def inverse(self, g):
        for h in self.elements:
            if self.mul(g, h) == self.identity:
                return h
        raise ValueError("element has no inverse; not a group?")

    def element_order(self, g) -> int:
        k = 1
        x = g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
            if k > len(self.elements):
                raise ValueError("element order exceeds group order; not a group?")
        return k

    def order_profile(self) -> Counter:
        return Counter(self.element_order(g) for g in self.elements)

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for i, a in enumerate(self.elements)
            for b in self.elements[i + 1:]
        )

    def conjugacy_classes(self) -> List[List[Hashable]]:
        seen = set()
        classes = []
        for g in self.elements:
            if g in seen:
                continue
            cls_ = set()
            for h in self.elements:
                k = self.mul(self.mul(h, g), self.inverse(h))
                cls_.add(k)
            seen |= cls_
            classes.append(sorted(cls_, key=lambda x: self.index[x]))
        return classes

    def power(self, g, k: int):
        if k < 0:
            return self.power(self.inverse(g), -k)
        r = self.identity
        while k:
            if k & 1:
                r = self.mul(r, g)
            g = self.mul(g, g)
            k >>= 1
        return r

    def evaluate_word(self, word: Word, gens: Sequence[Hashable]):
        out = self.identity
        for letter in word:
            g = gens[abs(letter) - 1]
            if letter < 0:
                g = self.inverse(g)
            out = self.mul(out, g)
        return out


def _invariant_factor_chains(n: int) -> List[Tuple[int, ...]]:
    """All chains d_1 | d_2 | ... | d_k with product n (d_i > 1)."""
    chains = []

    def rec(remaining: int, max_last: int, acc: List[int]):
        if remaining == 1:
            chains.append(tuple(acc))
            return
        d = 2
        while d <= min(remaining, max_last):
            if remaining % d == 0 and (not acc or acc[0] % d == 0):
                rec(remaining // d, d, [d] + acc)
            d += 1

    rec(n, n, [])
    return chains


def abelian_invariants(G: FiniteGroup) -> Tuple[int, ...]:
    """Invariant factors (d_1 | d_2 | ...) of a finite abelian group.

    Matches the counting function m -> #{g : g^m = 1} against every
    candidate chain; for abelian groups this determines the type.
    """
    n = len(G)
    if n == 1:
        return ()
    counts = {}
    for m in range(1, n + 1):
        if n % m == 0:
            counts[m] = sum(1 for g in G.elements if G.power(g, m) == G.identity)
    for chain in _invariant_factor_chains(n):
        if all(
            counts[m] == prod(gcd(d, m) for d in chain) for m in counts
        ):
            return chain
    raise UnknownGroup("no abelian type matches; the input is probably not abelian")


def _find_presentation(
    G: FiniteGroup, gen_orders: Sequence[int], relators: Sequence[Word]
) -> Optional[Tuple]:
    """Search for a generating tuple with the given orders satisfying the
    given relators (words in those generators)."""
    pools = [
        [g for g in G.elements if G.element_order(g) == o] for o in gen_orders
    ]
    for combo in product(*pools):
        if any(
            G.evaluate_word(r, combo) != G.identity for r in relators
        ):
            continue
        if len(closure(combo, G.mul, G.identity, bound=2 * len(G))) == len(G):
            return combo
    return None


def identify_group(G: FiniteGroup) -> str:
    """Isomorphism-type name of a finite group of order at most 24.

    Names: Cn for cyclic, products like C2xC2 for other abelian groups,
    and D8, Q8, S3, D12, Q16, C3:C4, C3:Q8, A4, SL(2,3) for the
    non-abelian groups that arise in this package.  Raises UnknownGroup
    for anything else.
    """
    n = len(G)
    if n == 1:
        return "C1"
    if n > 24:
        raise UnknownGroup(f"order {n} is outside the supported range")
    profile = G.order_profile()
    if profile.get(n):
        return f"C{n}"
    if G.is_abelian():
        chain = abelian_invariants(G)
        return "x".join(f"C{d}" for d in chain)

    involutions = profile.get(2, 0)
    if n == 6:
        return "S3"
    if n == 8:
        return "Q8" if involutions == 1 else "D8"
    if n == 10:
        return "D10"
    if n == 12:
        if involutions == 7:
            return "D12"
        if involutions == 3:
            return "A4"
        if involutions == 1:
            # the dicyclic group C3:C4 = <a, b | a^3, b^4, b a b^-1 a>
            if _find_presentation(G, (3, 4), ((2, 1, -2, 1),)) is not None:
                return "C3:C4"
            raise UnknownGroup("unrecognised group of order 12")
    if n == 16 and involutions == 1:
        # generalised quaternion: <a, b | a^8, a^4 b^-2, b a b^-1 a>
        if _find_presentation(G, (8, 4), ((1, 1, 1, 1, -2, -2), (2, 1, -2, 1))) is not None:
            return "Q16"
        raise UnknownGroup("unrecognised group of order 16 with a unique involution")
    if n == 24 and involutions == 1:
        # Both SL(2,3) and C3:Q8 have a unique involution; they differ in
        # their order statistics (C3:Q8 has elements of order 12).
        if profile.get(12):
            # dicyclic of order 24: <a, b | a^12, a^6 b^-2, b a b^-1 a>
            if (
                _find_presentation(
                    G, (12, 4), ((1,) * 12, (1,) * 6 + (-2, -2), (2, 1, -2, 1))
                )
                is not None
            ):
                return "C3:Q8"
            raise UnknownGroup("unrecognised group of order 24")
        return "SL(2,3)"
    raise UnknownGroup(f"unrecognised group of order {n}")


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

    def __init__(self, ngens: int, table: List[List[int]]):
        self.ngens = ngens
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
    return CosetTable(ngens, compact)


def regular_representation(
    ngens: int, relators: Sequence[Word], bound: int = 8192
) -> Tuple[FiniteGroup, List[Word]]:
    """The group <gens | relators> as a permutation group on itself, and
    per element its word in ``schreier_transversal``.

    Elements are cosets of the trivial subgroup, 0 the identity;
    multiplication traces the transversal word of the right factor from
    the left factor's coset.
    """
    ct = todd_coxeter(ngens, relators, subgroup=(), bound=bound)
    words = [w for w, _edge in schreier_transversal(ct)]
    return FiniteGroup(list(range(ct.index)), lambda a, b: ct.apply_word(a, words[b]), 0), words


# ---------------------------------------------------------------------------
# Reidemeister-Schreier rewriting
# ---------------------------------------------------------------------------


def schreier_transversal(ct: CosetTable) -> List[Tuple[Word, Optional[Tuple[int, int]]]]:
    """BFS transversal for a complete coset table, along the generators
    only: each one permutes the finitely many cosets, so the cosets are all
    reached without inverse letters.

    Returns, per coset, a pair (word, tree_edge) where ``word`` reaches the
    coset from coset 0 and ``tree_edge`` is the (source coset, generator)
    pair that first reached it (None for coset 0).
    """
    out: List[Optional[Tuple[Word, Optional[Tuple[int, int]]]]] = [None] * ct.index
    out[0] = ((), None)
    queue = [0]
    for c in queue:
        for g in range(1, ct.ngens + 1):
            d = ct.table[c][2 * (g - 1)]
            if out[d] is None:
                out[d] = (out[c][0] + (g,), (c, g))
                queue.append(d)
    return out  # type: ignore[return-value]


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
    trans = schreier_transversal(ct)
    tree_edges = {edge for _word, edge in trans if edge is not None}
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
    return subgens, subrels, [trans[c][0] for c in range(ct.index)]
