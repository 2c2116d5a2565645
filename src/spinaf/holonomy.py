"""Integral holonomy representations: closure and characters.

The catalog stores one integer matrix per holonomy generator.  This module
checks them and the record's holonomy exponents, closes them into a finite
group F with one integer multiplication table, checks the record's
relators, faithfulness against the named abstract holonomy group and
orientability, computes the trace class function of the 4-dimensional
representation, and decomposes it against the built-in character table of
the named group.  Each record builds F once and keeps it
(``AlmostBieberbachRecord.holonomy_group``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from . import chartables, groups, intmat
from .chartables import CharacterTable, render_decomposition
from .errors import ClosureBoundExceeded, InconsistentRecord
from .fp import DIM, AlmostBieberbachRecord, _render_word

IntMatrix = Tuple[Tuple[int, ...], ...]


class FiniteMatrixGroup(NamedTuple):
    """F: its elements 0 .. |F| - 1 in closure order, 0 the identity."""

    group: groups.FiniteGroup
    matrices: Tuple[IntMatrix, ...]  # per element, its matrix
    # per table generator, the element realizing it (the elements satisfy
    # the table's presentation and generate the group)
    generators: Tuple[int, ...]
    table: CharacterTable

    @property
    def order(self) -> int:
        return len(self.group)

    def element_of_word(self, word: Sequence[Tuple[str, int]]) -> int:
        """The element of a word in the table's generators."""
        pos = {g: i for i, g in enumerate(self.table.generators)}
        return self.group.evaluate_word(groups.word_to_letters(word, pos), self.generators)


def _check_relators(
    record: AlmostBieberbachRecord, names: Sequence[str], right: Sequence[Sequence[int]]
) -> None:
    """Every relator is the identity in F, walked through the right action
    ``right[x][k]`` of the k-th holonomy generator (``names[k]``); lattice
    generators act trivially and holonomy exponents are constants."""
    column = {g: k for k, g in enumerate(names)}
    orders = []
    for k in range(len(names)):
        x, o = right[0][k], 1
        while x:
            x, o = right[x][k], o + 1
        orders.append(o)
    for rel in record.presentation.relators:
        x = 0
        for g, e in rel:
            k = column.get(g)
            if k is not None:
                for _ in range(e.const % orders[k]):
                    x = right[x][k]
        if x:
            raise InconsistentRecord(
                f"family {record.family}: relator {_render_word(rel)} does not "
                "hold for the holonomy matrices"
            )


def matrix_group_closure(record: AlmostBieberbachRecord) -> FiniteMatrixGroup:
    """Check the record's holonomy matrices, close them into F, check the
    relators on F and match F to the named group: every record-level check,
    run on the first build of F, whether the record was loaded or built in
    code.  Each failure raises InconsistentRecord, in this order: a matrix
    on a generator that is not a holonomy generator, a matrix that is not
    unimodular, a holonomy generator without a matrix, a parameter in a
    holonomy exponent, no small finite closure, a relator that does not
    hold, a closure order other than the named group's (not faithful), no
    generating tuple that satisfies the table's presentation (the first one
    in closure order is kept), and a matrix of determinant -1 (not
    orientable).
    """
    names = record.presentation.holonomy_generators()
    dets = []
    for name, mat in record.matrices.items():
        if name not in names:
            raise InconsistentRecord(
                f"family {record.family}: matrix for {name!r}, which is not a holonomy generator"
            )
        dets.append(intmat.int_det(mat))
        if abs(dets[-1]) != 1:
            raise InconsistentRecord(
                f"family {record.family}: matrix of {name!r} is not unimodular"
            )
    for g in names:
        if g not in record.matrices:
            raise InconsistentRecord(
                f"family {record.family}: holonomy generator {g!r} has no matrix"
            )
    # a parameter only in lattice exponents makes each relator's sign in
    # Spin(4) a constant of the record, and the mod-2 reduction sound
    for rel in record.presentation.relators:
        for gen, expr in rel:
            if gen in names and expr.coeffs:
                raise InconsistentRecord(
                    f"family {record.family}: relator {_render_word(rel)} has a parameter "
                    f"in the exponent of holonomy generator {gen!r}; parameters may "
                    "appear only in lattice-generator exponents"
                )
    table = chartables.get_table(record.holonomy_name)
    identity = intmat.int_identity(DIM)
    try:
        mats, right = groups.cayley_graph(
            [record.matrix_of(g) for g in names] or [identity], intmat.int_mat_mul, identity)
    except ClosureBoundExceeded as exc:
        raise InconsistentRecord(
            f"family {record.family}: the holonomy matrices generate no finite group ({exc})"
        ) from exc
    _check_relators(record, names, right)
    if len(mats) != table.order:
        raise InconsistentRecord(
            f"family {record.family}: holonomy closure has order {len(mats)}, "
            f"but {record.holonomy_name} has order {table.order}"
        )
    G = groups.FiniteGroup.from_right_action(right)
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
    # every matrix is a holonomy generator's (checked above), so ``dets``
    # holds the determinant of each: this is the orientability check
    if any(d != 1 for d in dets):
        raise InconsistentRecord(f"family {record.family}: non-orientable record")
    return FiniteMatrixGroup(G, tuple(mats), tuple(combo), table)


def trace_character(record: AlmostBieberbachRecord) -> Tuple[int, ...]:
    """Trace class function of the holonomy representation, in the class
    order of the named group's character table: one integer per class, the
    trace of the class's integer matrices.

    Class constancy is verified element by element, and the evaluated class
    representatives are checked to land in distinct classes of the sizes
    the table declares.
    """
    F = record.holonomy_group
    table = F.table
    traces = [sum(M[i][i] for i in range(DIM)) for M in F.matrices]
    classes = F.group.conjugacy_classes()
    class_of = {}
    for idx, cls_ in enumerate(classes):
        if len({traces[x] for x in cls_}) != 1:
            raise InconsistentRecord(
                f"family {record.family}: trace is not constant on a conjugacy class"
            )
        for x in cls_:
            class_of[x] = idx
    values: List[int] = []
    seen = set()
    for rep_word, size in zip(table.class_reps, table.class_sizes):
        x = F.element_of_word(rep_word)
        idx = class_of[x]
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
        values.append(traces[x])
    return tuple(values)


def character_of_record(record: AlmostBieberbachRecord) -> Tuple[Tuple[int, ...], str]:
    """Decomposition of the holonomy representation; returns multiplicities
    and the rendered form such as '2χ1+χ3+χ4'."""
    mults = chartables.decompose(trace_character(record), record.holonomy_group.table)
    return mults, render_decomposition(mults)
