"""Finite group utilities: closures, Cayley graphs, multiplication tables
and isomorphism-type identification.

Closures run on hashable elements with a multiplication callable; a
:class:`FiniteGroup` numbers its elements 0 .. n-1 and multiplies them by
looking up one integer table.  Everything here is sized for groups of
order at most a few dozen (the holonomy groups and their double covers),
so the algorithms are straightforward brute force.

Words in abstract generators are tuples of nonzero integers: ``+k`` is the
k-th generator (1-based) and ``-k`` its inverse.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd, prod
from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple

from .errors import ClosureBoundExceeded, UnknownGroup

Word = Tuple[int, ...]


def word_to_letters(word: Sequence[Tuple[str, int]], pos: Mapping[str, int]) -> Word:
    """A word of (generator name, integer exponent) pairs as letters, where
    ``pos`` gives each name's 0-based generator index."""
    out: List[int] = []
    for gen, exp in word:
        letter = pos[gen] + 1 if exp > 0 else -(pos[gen] + 1)
        out.extend([letter] * abs(exp))
    return tuple(out)


def cayley_graph(
    gens: Sequence[Hashable],
    mul: Callable,
    identity: Hashable,
    bound: int = 4096,
) -> Tuple[List[Hashable], List[List[int]]]:
    """Breadth-first closure of a generating set under multiplication.

    Returns the elements in the order reached, the identity first, and per
    element x the indices of x * g for the generators g in order.
    """
    elements = [identity]
    index = {identity: 0}
    right: List[List[int]] = []
    for x in elements:  # grows as new elements are reached
        row = []
        for g in gens:
            y = mul(x, g)
            i = index.get(y)
            if i is None:
                if len(elements) >= bound:
                    raise ClosureBoundExceeded(f"closure exceeded {bound} elements")
                i = index[y] = len(elements)
                elements.append(y)
            row.append(i)
        right.append(row)
    return elements, right


def closure(
    gens: Sequence[Hashable],
    mul: Callable,
    identity: Hashable,
    bound: int = 4096,
) -> List[Hashable]:
    """BFS closure of a generating set under multiplication."""
    return cayley_graph(gens, mul, identity, bound)[0]


def spanning_tree(right: Sequence[Sequence[int]]) -> List[Tuple[int, int, int]]:
    """Breadth-first from element 0 along ``right[x][k]`` = x g_k: per
    element but 0, in the order reached, (element, x, k) for the edge x -> x g_k
    that first reached it."""
    reached = [True] + [False] * (len(right) - 1)
    queue = [0]
    tree = []
    for x in queue:
        for k, y in enumerate(right[x]):
            if not reached[y]:
                reached[y] = True
                tree.append((y, x, k))
                queue.append(y)
    if len(queue) != len(right):
        raise ValueError("the generators do not reach every element")
    return tree


class FiniteGroup:
    """A finite group on the elements 0 .. n-1, 0 the identity, given by its
    multiplication table: ``table[a][b]`` is the product ab.  Inverses and
    element orders are read off the table once."""

    identity = 0

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = table
        n = len(table)
        inverses, orders = [], []
        for a in range(n):
            prev, x, k = 0, a, 1
            while x:  # x = a^k; the power before the identity is the inverse
                prev, x, k = x, table[x][a], k + 1
                if k > n:
                    raise ValueError("element order exceeds group order; not a group?")
            inverses.append(prev)
            orders.append(k)
        self.inverses = tuple(inverses)
        self.orders = tuple(orders)

    @classmethod
    def from_right_action(cls, right: Sequence[Sequence[int]]) -> "FiniteGroup":
        """The group whose generators g_k act on the elements 0 .. n-1 by
        ``right[x][k]`` = x g_k, 0 the identity (``cayley_graph``, or a
        complete coset table of the trivial subgroup)."""
        tree = spanning_tree(right)
        rows = []
        for a in range(len(right)):
            row = [a] * len(right)
            for y, x, k in tree:  # a y = (a x) g_k, and a x is already known
                row[y] = right[row[x]][k]
            rows.append(tuple(row))
        return cls(tuple(rows))

    def __len__(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, g: int) -> int:
        return self.inverses[g]

    def element_order(self, g: int) -> int:
        return self.orders[g]

    def order_profile(self) -> Counter:
        return Counter(self.orders)

    def is_abelian(self) -> bool:
        table = self.table
        return all(table[a][b] == table[b][a] for a in self.elements for b in range(a))

    def conjugacy_classes(self) -> List[List[int]]:
        table, inverses = self.table, self.inverses
        seen = set()
        classes = []
        for g in self.elements:
            if g in seen:
                continue
            cls_ = {table[table[h][g]][inverses[h]] for h in self.elements}
            seen |= cls_
            classes.append(sorted(cls_))
        return classes

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inverses[g], -k
        table = self.table
        r = 0
        while k:
            if k & 1:
                r = table[r][g]
            g = table[g][g]
            k >>= 1
        return r

    def evaluate_word(self, word: Word, gens: Sequence[int]) -> int:
        table, inverses = self.table, self.inverses
        out = 0
        for letter in word:
            g = gens[abs(letter) - 1]
            out = table[out][g if letter > 0 else inverses[g]]
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


def __getattr__(name: str):
    # coset enumeration and Reidemeister-Schreier live in ``spinaf.oracles``;
    # spinbench's tracer still looks them up here
    if name in ("todd_coxeter", "regular_representation", "reidemeister_schreier"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
