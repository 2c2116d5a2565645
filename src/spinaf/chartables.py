"""Exact character tables for the finite holonomy groups of rank ≤ 4.

Every character value lives in Q(zeta_12), which contains all roots of
unity of order dividing 12 — enough for groups of exponent dividing 12,
which covers every holonomy group occurring in dimension four.  A value is
written as an integer or a power of zeta_12 (:class:`Zeta`), and every
inner product is a sum of integers times powers of zeta_12, which
:func:`zeta_sum` adds up exactly on the power basis 1, z, z^2, z^3;
decomposition therefore either returns literal non-negative integers or
raises.

Class representatives are stored as words in the table's abstract
generators, alongside a defining presentation (power relators) used to
match a concrete matrix group against the abstract one.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .errors import InconsistentRecord, UnknownGroup

ConcreteWord = Tuple[Tuple[str, int], ...]


class Zeta(NamedTuple):
    """The character value zeta_12^k."""

    k: int


Value = Union[int, Zeta]


def as_power(v: Value) -> Tuple[int, int]:
    """``v`` as (c, k), meaning c * zeta_12^k."""
    return (1, v.k) if isinstance(v, Zeta) else (v, 0)


def zeta_sum(terms: Iterable[Tuple[int, int]]) -> Tuple[int, int, int, int]:
    """The sum of c * zeta_12^k over the pairs (c, k), as its integer
    coefficients on the power basis 1, z, z^2, z^3 of Q(zeta_12).

    The sum is rational exactly when the last three coefficients are 0.
    """
    slots = [0] * 6
    for c, k in terms:
        k %= 12
        if k < 6:
            slots[k] += c
        else:  # z^6 = -1
            slots[k - 6] -= c
    s0, s1, s2, s3, s4, s5 = slots
    # z^4 = z^2 - 1 and z^5 = z^3 - z, from the minimal polynomial z^4 - z^2 + 1
    return (s0 - s4, s1 - s5, s2 + s4, s3 + s5)


class CharacterTable(NamedTuple):
    name: str
    generators: Tuple[str, ...]
    # power relators (word, exponent) presenting the group
    relators: Tuple[Tuple[ConcreteWord, int], ...]
    class_reps: Tuple[ConcreteWord, ...]
    class_sizes: Tuple[int, ...]
    # per character, its value on each class: an integer or a Zeta
    character_values: Tuple[Tuple[Value, ...], ...]

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(chi[0] for chi in self.character_values)

    def verify(self) -> None:
        """Exact first and second orthogonality, and sum of squared degrees."""
        characters = [[as_power(v) for v in chi] for chi in self.character_values]
        n = len(self.class_reps)
        if any(len(chi) != n for chi in characters):
            raise InconsistentRecord(f"{self.name}: ragged character table")
        order = self.order
        if sum(d * d for d in self.degrees) != order:
            raise InconsistentRecord(f"{self.name}: degrees do not sum to the order")
        for i, chi in enumerate(characters):
            for j, psi in enumerate(characters):
                acc = zeta_sum(
                    (size * a * b, s - t)
                    for size, (a, s), (b, t) in zip(self.class_sizes, chi, psi)
                )
                if acc != (order if i == j else 0, 0, 0, 0):
                    raise InconsistentRecord(
                        f"{self.name}: row orthogonality fails for chi{i+1}, chi{j+1}"
                    )
        columns = list(zip(*characters))
        for j in range(n):
            for k in range(n):
                acc = zeta_sum((a * b, s - t) for (a, s), (b, t) in zip(columns[j], columns[k]))
                if acc != (order // self.class_sizes[j] if j == k else 0, 0, 0, 0):
                    raise InconsistentRecord(
                        f"{self.name}: column orthogonality fails at classes {j}, {k}"
                    )


def decompose(values: Sequence[int], table: CharacterTable) -> Tuple[int, ...]:
    """Multiplicities of ``values`` (an integer class function) in the
    irreducibles.

    Computed exactly in Q(zeta_12); raises InconsistentRecord unless every
    multiplicity is a non-negative integer.
    """
    if len(values) != len(table.class_reps):
        raise InconsistentRecord(
            f"{table.name}: class function has {len(values)} values, "
            f"table has {len(table.class_reps)} classes"
        )
    order = table.order
    out: List[int] = []
    for i, chi in enumerate(table.character_values):
        acc = zeta_sum(
            (size * v * c, -k)
            for size, v, (c, k) in zip(table.class_sizes, values, map(as_power, chi))
        )
        if acc[1:] != (0, 0, 0):
            raise InconsistentRecord(f"{table.name}: non-rational multiplicity of chi{i+1}")
        m, rem = divmod(acc[0], order)
        if rem or m < 0:
            g = gcd(acc[0], order)
            shown = f"{acc[0] // g}/{order // g}" if rem else str(m)
            raise InconsistentRecord(
                f"{table.name}: multiplicity of chi{i+1} is {shown}, not a non-negative integer"
            )
        out.append(m)
    return tuple(out)


def render_decomposition(mults: Sequence[int]) -> str:
    """Render multiplicities in the conventional compact form, e.g. 2χ1+χ3+χ4."""
    parts = []
    for i, m in enumerate(mults, start=1):
        if m == 0:
            continue
        parts.append(f"χ{i}" if m == 1 else f"{m}χ{i}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------

# roots of unity: zeta_3 = zeta_12^4, i = zeta_12^3, zeta_6 = zeta_12^2
_Z3, _Z3SQ = Zeta(4), Zeta(8)
_I, _MI = Zeta(3), Zeta(9)


def _w(*letters) -> ConcreteWord:
    return tuple(letters)


TABLE_C1 = CharacterTable(
    name="C1",
    generators=(),
    relators=(),
    class_reps=(_w(),),
    class_sizes=(1,),
    character_values=((1,),),
)

TABLE_C2 = CharacterTable(
    name="C2",
    generators=("a",),
    relators=(((("a", 1),), 2),),
    class_reps=(_w(), _w(("a", 1))),
    class_sizes=(1, 1),
    character_values=((1, 1), (1, -1)),
)

TABLE_C2xC2 = CharacterTable(
    name="C2xC2",
    generators=("a", "b"),
    relators=(
        ((("a", 1),), 2),
        ((("b", 1),), 2),
        ((("a", 1), ("b", 1)), 2),
    ),
    class_reps=(_w(), _w(("a", 1)), _w(("b", 1)), _w(("a", 1), ("b", 1))),
    class_sizes=(1, 1, 1, 1),
    character_values=(
        (1, 1, 1, 1),
        (1, 1, -1, -1),
        (1, -1, 1, -1),
        (1, -1, -1, 1),
    ),
)

TABLE_C3 = CharacterTable(
    name="C3",
    generators=("a",),
    relators=(((("a", 1),), 3),),
    class_reps=(_w(), _w(("a", 1)), _w(("a", 2))),
    class_sizes=(1, 1, 1),
    character_values=(
        (1, 1, 1),
        (1, _Z3, _Z3SQ),
        (1, _Z3SQ, _Z3),
    ),
)

TABLE_C4 = CharacterTable(
    name="C4",
    generators=("a",),
    relators=(((("a", 1),), 4),),
    class_reps=(_w(), _w(("a", 1)), _w(("a", 2)), _w(("a", 3))),
    class_sizes=(1, 1, 1, 1),
    character_values=(
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, _I, -1, _MI),
        (1, _MI, -1, _I),
    ),
)

TABLE_C6 = CharacterTable(
    name="C6",
    generators=("a",),
    relators=(((("a", 1),), 6),),
    class_reps=tuple(_w(("a", k)) if k else _w() for k in range(6)),
    class_sizes=(1, 1, 1, 1, 1, 1),
    character_values=(
        (1, 1, 1, 1, 1, 1),
        (1, -1, 1, -1, 1, -1),
        (1, _Z3, _Z3SQ, 1, _Z3, _Z3SQ),
        (1, _Z3SQ, _Z3, 1, _Z3SQ, _Z3),
        (1, Zeta(2), Zeta(4), -1, Zeta(8), Zeta(10)),  # zeta_6^k
        (1, Zeta(10), Zeta(8), -1, Zeta(4), Zeta(2)),  # zeta_6^(5k)
    ),
)

TABLE_S3 = CharacterTable(
    name="S3",
    generators=("a", "b"),
    relators=(
        ((("a", 1),), 3),
        ((("b", 1),), 2),
        ((("b", 1), ("a", 1)), 2),
    ),
    class_reps=(_w(), _w(("a", 1)), _w(("b", 1))),
    class_sizes=(1, 2, 3),
    character_values=(
        (1, 1, 1),
        (1, 1, -1),
        (2, -1, 0),
    ),
)

TABLE_D8 = CharacterTable(
    name="D8",
    generators=("a", "b"),
    relators=(
        ((("a", 1),), 4),
        ((("b", 1),), 2),
        ((("a", 1), ("b", 1)), 2),
    ),
    # classes: 1, b, ab, a^2, a
    class_reps=(_w(), _w(("b", 1)), _w(("a", 1), ("b", 1)), _w(("a", 2)), _w(("a", 1))),
    class_sizes=(1, 2, 2, 1, 2),
    character_values=(
        (1, 1, 1, 1, 1),
        (1, -1, -1, 1, 1),
        (1, 1, -1, 1, -1),
        (1, -1, 1, 1, -1),
        (2, 0, 0, -2, 0),
    ),
)

TABLE_D12 = CharacterTable(
    name="D12",
    generators=("a", "b"),
    relators=(
        ((("a", 1),), 2),
        ((("b", 1),), 6),
        ((("a", 1), ("b", 1)), 2),
    ),
    # classes: 1, a, b^3, b^2, ab, b
    class_reps=(
        _w(),
        _w(("a", 1)),
        _w(("b", 3)),
        _w(("b", 2)),
        _w(("a", 1), ("b", 1)),
        _w(("b", 1)),
    ),
    class_sizes=(1, 3, 1, 2, 3, 2),
    character_values=(
        (1, 1, 1, 1, 1, 1),
        (1, -1, 1, 1, -1, 1),
        (1, -1, -1, 1, 1, -1),
        (1, 1, -1, 1, -1, -1),
        (2, 0, 2, -1, 0, -1),
        (2, 0, -2, -1, 0, 1),
    ),
)

TABLES: Dict[str, CharacterTable] = {
    t.name: t
    for t in (
        TABLE_C1,
        TABLE_C2,
        TABLE_C2xC2,
        TABLE_C3,
        TABLE_C4,
        TABLE_C6,
        TABLE_S3,
        TABLE_D8,
        TABLE_D12,
    )
}


def get_table(name: str) -> CharacterTable:
    try:
        return TABLES[name]
    except KeyError:
        raise UnknownGroup(f"no character table for group {name!r}") from None
