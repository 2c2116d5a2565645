"""Integral holonomy representations: closure, orientability, characters.

The catalog stores one integer matrix per holonomy generator.  This module
closes them into a finite matrix group, checks faithfulness against the
named abstract holonomy group, computes the trace class function of the
4-dimensional representation, and decomposes it against the built-in
character table of the named group.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from . import chartables, groups, linalg
from .chartables import CharacterTable, render_decomposition
from .cyclotomic import Cyc12
from .errors import InconsistentRecord
from .fp import DIM, AlmostBieberbachRecord, holonomy_closure, word_matrix

IntMatrix = Tuple[Tuple[int, ...], ...]


class FiniteMatrixGroup(NamedTuple):
    group: groups.FiniteGroup
    # table generator name -> matrix realizing it (satisfies the table's
    # presentation and generates the group)
    generator_map: Tuple[Tuple[str, IntMatrix], ...]
    table: CharacterTable

    @property
    def order(self) -> int:
        return len(self.group)


def orientability(record: AlmostBieberbachRecord) -> bool:
    """True iff every holonomy matrix has determinant +1."""
    return all(
        linalg.int_det(record.matrix_of(g)) == 1
        for g in record.presentation.holonomy_generators()
    )


def matrix_group_closure(record: AlmostBieberbachRecord) -> FiniteMatrixGroup:
    """Close the holonomy matrices and match them to the named group.

    Raises InconsistentRecord when the closure order differs from the order
    of the named group (the representation would not be faithful), or when
    no generating tuple satisfies the table's presentation.
    """
    table = chartables.get_table(record.holonomy_name)
    G = holonomy_closure(record)
    if len(G) != table.order:
        raise InconsistentRecord(
            f"family {record.family}: holonomy closure has order {len(G)}, "
            f"but {record.holonomy_name} has order {table.order}"
        )
    pos = {g: i for i, g in enumerate(table.generators)}
    gen_orders = []
    power_of = {base[0][0]: power for base, power in table.relators if len(base) == 1}
    for g in table.generators:
        if g not in power_of:
            raise InconsistentRecord(f"{table.name}: generator {g} has no power relator")
        gen_orders.append(power_of[g])
    relator_words = [groups.word_to_letters(base, pos) * power for base, power in table.relators]
    combo = groups._find_presentation(G, gen_orders, relator_words)
    if combo is None:
        raise InconsistentRecord(
            f"family {record.family}: matrices do not realize the "
            f"{record.holonomy_name} presentation"
        )
    gen_map = tuple(zip(table.generators, combo))
    return FiniteMatrixGroup(G, gen_map, table)


def trace_character(record: AlmostBieberbachRecord) -> Tuple[Cyc12, ...]:
    """Trace class function of the holonomy representation, in the class
    order of the named group's character table.

    Class constancy is verified element by element, and the evaluated class
    representatives are checked to land in distinct classes of the sizes
    the table declares.
    """
    fg = matrix_group_closure(record)
    G, table = fg.group, fg.table
    mats = dict(fg.generator_map)
    classes = G.conjugacy_classes()
    for cls_ in classes:
        traces = {sum(m[i][i] for i in range(DIM)) for m in cls_}
        if len(traces) != 1:
            raise InconsistentRecord(
                f"family {record.family}: trace is not constant on a conjugacy class"
            )
    class_of = {}
    for idx, cls_ in enumerate(classes):
        for m in cls_:
            class_of[m] = idx
    values: List[Cyc12] = []
    seen = set()
    for rep_word, size in zip(table.class_reps, table.class_sizes):
        m = word_matrix(mats, rep_word)
        idx = class_of[m]
        if idx in seen:
            raise InconsistentRecord(
                f"family {record.family}: two table class representatives are conjugate"
            )
        seen.add(idx)
        if len(classes[idx]) != size:
            raise InconsistentRecord(
                f"family {record.family}: class size mismatch "
                f"({len(classes[idx])} vs declared {size})"
            )
        values.append(Cyc12(sum(m[i][i] for i in range(DIM))))
    return tuple(values)


def character_of_record(record: AlmostBieberbachRecord) -> Tuple[Tuple[int, ...], str]:
    """Decomposition of the holonomy representation; returns multiplicities
    and the rendered form such as '2χ1+χ3+χ4'."""
    table = chartables.get_table(record.holonomy_name)
    mults = chartables.decompose(trace_character(record), table)
    return mults, render_decomposition(mults)

