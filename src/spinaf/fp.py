"""Finitely presented almost-Bieberbach groups and the counting of spin
structures.

A record's generators are *lattice* generators (mapping into the nilpotent
lattice, so acting trivially on the fibre) or *holonomy* generators
(mapping onto the finite holonomy group F, each with an integral matrix).
Lifting the induced orthogonal representation through the double cover
amounts to choosing a sign for each generator; an assignment works
precisely when every relator evaluates to +1 in Spin(4).  As -1 is
central, flipping a generator's sign flips a relator's value exactly when
the relator's exponent sum in that generator is odd, so the valid
assignments solve an affine system over F_2 whose right-hand side is each
relator's base sign.  Parameters appear only in lattice-generator exponents
(checked where F is built), so the base signs are constants of the record, and
the system's rows are affine in the parameters mod 2.

One count path serves every record: the base signs are traced in
Ĝ = λ⁻¹(F), the central extension of F that one F_2 solve over F's Cayley
graph builds (``lifted_holonomy``; ``AlmostBieberbachRecord.relator_signs``,
computed on first use).  The relators whose rows do not depend on the
parameters mod 2 are eliminated once per record, and the others kept as a
base row, toggles per parameter and a sign
(``AlmostBieberbachRecord.parity_system``, also computed on first use).  A
parameter row is a vector, one integer per parameter in the record's order,
as the expectations file and the command line give it; ``count_lifts``
reduces it mod 2, adds only those rows to the record's echelon, and counts
2^(generators - rank) (``enumerate_lifts``), with no Clifford product.  Its
``LiftResult`` carries the reduced row.
``lift_group`` names Ĝ from the same table.
``_f2_solve`` is the one F_2 elimination; the oracles call it too.  F
itself, one integer multiplication table, is built once per record when
the catalog is loaded (``AlmostBieberbachRecord.holonomy_group``).  The
independent oracles that back the count path in the tests (Clifford
products over ``base_preimages``, the Sylow pullback, the relators
instantiated at a parameter row, and Ĝ by coset enumeration) live in
:mod:`spinaf.oracles`, which no command imports.
"""

from __future__ import annotations

import operator
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import groups, intmat
from .errors import InconsistentRecord, UnsupportedScalar

if TYPE_CHECKING:  # imported where spin elements are made, so counting never loads them
    from .clifford import CliffordElement
    from .holonomy import FiniteMatrixGroup

DIM = 4

LATTICE = "lattice"
HOLONOMY = "holonomy"

IntMatrix = Tuple[Tuple[int, ...], ...]


class ExponentExpr(NamedTuple):
    """Affine integer expression const + sum(coeff_i * param_i)."""

    const: int = 0
    coeffs: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def make(cls, const: int = 0, coeffs: Optional[Mapping[str, int]] = None) -> "ExponentExpr":
        items = tuple(sorted((k, v) for k, v in (coeffs or {}).items() if v != 0))
        return cls(const, items)

    def evaluate(self, params: Mapping[str, int]) -> int:
        total = self.const
        for name, coeff in self.coeffs:
            if name not in params:
                raise InconsistentRecord(f"parameter {name!r} has no assigned value")
            total += coeff * params[name]
        return total

    def __str__(self):
        parts = [str(self.const)] if self.const or not self.coeffs else []
        for name, coeff in self.coeffs:
            parts.append(f"{coeff:+d}*{name}")
        return " ".join(parts) if parts else "0"


Word = Tuple[Tuple[str, ExponentExpr], ...]


class GeneratorDecl(NamedTuple):
    name: str
    role: str  # LATTICE or HOLONOMY; checked by Presentation


class _PresentationFields(NamedTuple):
    generators: Tuple[GeneratorDecl, ...]
    relators: Tuple[Word, ...]
    parameters: Tuple[str, ...] = ()


class Presentation(_PresentationFields):
    __slots__ = ()

    def __new__(cls, generators, relators, parameters=()):
        for g in generators:
            if g.role not in (LATTICE, HOLONOMY):
                raise InconsistentRecord(f"unknown generator role {g.role!r}")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise InconsistentRecord("duplicate generator names")
        if len(set(parameters)) != len(parameters):
            raise InconsistentRecord("duplicate parameter names")
        declared = set(names)
        declared_params = set(parameters)
        for rel in relators:
            for gen, exp in rel:
                if gen not in declared:
                    raise InconsistentRecord(f"relator mentions undeclared generator {gen!r}")
                if exp.coeffs:  # most exponents are constants
                    for name, _coeff in exp.coeffs:
                        if name not in declared_params:
                            raise InconsistentRecord(
                                f"relator exponent mentions undeclared parameter {name!r}")
        return super().__new__(cls, generators, relators, parameters)

    @property
    def generator_names(self) -> List[str]:
        return [g.name for g in self.generators]

    def holonomy_generators(self) -> List[str]:
        return [g.name for g in self.generators if g.role == HOLONOMY]


class ParitySystem(NamedTuple):
    """A record's F_2 system, with its constant relators eliminated once.

    Bit i of a row stands for generator i.  A relator whose row does not
    depend on the parameters mod 2 is constant: its row and sign bit are
    added to ``echelon`` (``_f2_solve``) when the system is built, and one
    that is always ``0 | 0`` drops out there.  ``echelon`` is None when the
    constant rows are inconsistent, so that no parameter row has a lift.
    Each other relator is kept as its row at parameters 0 (the exponents'
    ``const % 2``) in ``rows``, the bits an odd value of parameter j
    toggles (the coefficients mod 2) as pairs ``(j, bits)`` in ``toggles``,
    and its sign bit in ``signs``.
    """

    generators: Tuple[str, ...]
    parameters: Tuple[str, ...]
    echelon: Optional[Mapping[int, int]]
    rows: Tuple[int, ...]
    toggles: Tuple[Tuple[Tuple[int, int], ...], ...]  # per relator, its non-zero toggles
    signs: Tuple[int, ...]

    def solve(self, odd: Sequence[int]) -> Optional[Dict[int, int]]:
        """The echelon at a parameter row whose parameters have the
        parities ``odd`` (in the order of ``parameters``), or None when
        that row has no lift."""
        if self.echelon is None:
            return None
        rows = []
        for row, toggles in zip(self.rows, self.toggles):
            for j, toggle in toggles:
                if odd[j]:
                    row ^= toggle
            rows.append(row)
        return _f2_solve(rows, self.signs, len(self.generators), self.echelon)


class _RecordFields(NamedTuple):
    family: str
    holonomy_name: str
    presentation: Presentation
    matrices: Mapping[str, IntMatrix]
    nilpotency_class: int = 2
    source: str = "reconstruction"


class AlmostBieberbachRecord(_RecordFields):
    """A catalog record.  Its fields are read-only and ``==`` compares them
    only; without ``__slots__`` the subclass has an instance ``__dict__``,
    where the cached properties keep their values."""

    def matrix_of(self, gen: str) -> IntMatrix:
        if gen in self.matrices:
            return self.matrices[gen]
        return intmat.int_identity(DIM)

    @cached_property
    def signed_perm_holonomy(self) -> bool:
        """Whether every holonomy matrix is a signed permutation, i.e. has
        spin preimages over Q(sqrt 2) (``base_preimages``); computed on
        first use and kept."""
        return all(
            intmat.is_signed_perm(self.matrix_of(g)) for g in self.presentation.holonomy_generators()
        )

    @cached_property
    def holonomy_group(self) -> FiniteMatrixGroup:
        """F, closed from the holonomy matrices by
        ``holonomy.matrix_group_closure``, which runs every record-level
        check on the way.

        Built once, when the catalog is loaded, and kept on the record: every
        later use (the lifted group, the character) reads its table.
        """
        from . import holonomy

        return holonomy.matrix_group_closure(self)

    @cached_property
    def base_preimages(self) -> Mapping[str, CliffordElement]:
        """``base_preimages(self)``, computed on first use and kept."""
        return MappingProxyType(base_preimages(self))

    @cached_property
    def relator_signs(self) -> Tuple[int, ...]:
        """Per relator, 1 iff it evaluates to -1 in Spin(4) when every
        holonomy generator takes its lift in Ĝ (``lifted_holonomy``,
        ``holonomy_lift``) and every lattice generator 1.

        Computed on first use and kept on the record object, so loading a
        catalog builds no Ĝ and every parameter row of a record shares it.
        """
        lifted = lifted_holonomy(self)
        G = lifted.group
        lift = {g: holonomy_lift(lifted, self.matrix_of(g))
                for g in self.presentation.holonomy_generators()}
        signs: List[int] = []
        for rel in self.presentation.relators:
            x = G.identity
            for g, e in rel:
                if g in lift:
                    x = G.mul(x, G.power(lift[g], e.const))
            # ``holonomy_group`` checked the relator on F, so x lies over its identity
            signs.append(int(x == lifted.central))
        return tuple(signs)

    @cached_property
    def parity_system(self) -> ParitySystem:
        """The F_2 system with its constant relators eliminated: one pass
        over the relators' letters and one ``_f2_solve``, on first use,
        kept on the record object."""
        pres = self.presentation
        names = tuple(pres.generator_names)
        bit = {n: 1 << i for i, n in enumerate(names)}
        column = {p: j for j, p in enumerate(pres.parameters)}
        constant_rows: List[int] = []
        constant_signs: List[int] = []
        rows: List[int] = []
        toggles: List[Tuple[Tuple[int, int], ...]] = []
        signs: List[int] = []
        for rel, sign in zip(pres.relators, self.relator_signs):
            row = 0
            toggle = [0] * len(column)
            for gen, expr in rel:
                if expr.const % 2:
                    row ^= bit[gen]
                for name, coeff in expr.coeffs:
                    if coeff % 2:
                        toggle[column[name]] ^= bit[gen]
            if any(toggle):
                rows.append(row)
                toggles.append(tuple((j, t) for j, t in enumerate(toggle) if t))
                signs.append(sign)
            else:
                constant_rows.append(row)
                constant_signs.append(sign)
        echelon = _f2_solve(constant_rows, constant_signs, len(names))
        return ParitySystem(names, pres.parameters, echelon, tuple(rows), tuple(toggles), tuple(signs))


class SignAssignment(NamedTuple):
    signs: Tuple[Tuple[str, int], ...]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.signs)


class LiftResult(NamedTuple):
    """The lifts at one parameter row, counted at the parities ``params``.

    ``echelon`` is the row's reduced echelon form (``_f2_solve``) when the
    count path found lifts; ``valid_assignments`` lists them from it, on
    each read.  An oracle's result carries no echelon.
    """

    exists: bool
    count: int
    params: Tuple[int, ...]  # the row's values mod 2, in the record's parameter order
    generators: Tuple[str, ...] = ()
    echelon: Optional[Mapping[int, int]] = None

    @property
    def valid_assignments(self) -> Tuple[SignAssignment, ...]:
        """The valid sign assignments in increasing order of their bit
        vectors, generator i on bit i."""
        if self.echelon is None:
            return ()
        p, kernel = _f2_solution(self.echelon, len(self.generators))
        valid = [p]
        for v in kernel:
            valid += [bits ^ v for bits in valid]
        names = self.generators
        return tuple(
            SignAssignment(tuple((n, -1 if bits >> i & 1 else 1) for i, n in enumerate(names)))
            for bits in valid
        )


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _parities(record: AlmostBieberbachRecord, params: Sequence[int]) -> Tuple[int, ...]:
    """``params``, one value per parameter of the record in its order, mod 2;
    a row of another length raises."""
    names = record.presentation.parameters
    if len(params) != len(names):
        raise InconsistentRecord(
            f"family {record.family} takes {len(names)} parameters, got {len(params)}"
        )
    return tuple(v % 2 for v in params)


# ---------------------------------------------------------------------------
# base preimages
# ---------------------------------------------------------------------------


def base_preimages(record: AlmostBieberbachRecord) -> Dict[str, CliffordElement]:
    """Canonical spin preimage per generator (lattice generators map to 1).

    Raises UnsupportedScalar unless every holonomy matrix is a signed
    permutation.  Counting does not use these: ``export`` and ``lift_group``
    list them (through the record's cached ``base_preimages``), and the
    oracles in :mod:`spinaf.oracles` evaluate relators on them.
    """
    from . import spin
    from .clifford import CliffordElement
    from .linalg import as_matrix

    if not record.signed_perm_holonomy:
        raise UnsupportedScalar(
            f"family {record.family}: some holonomy matrix is not a signed permutation"
        )
    one = CliffordElement.scalar(DIM, 1)
    out: Dict[str, CliffordElement] = {}
    for gen in record.presentation.generators:
        if gen.role == LATTICE:
            out[gen.name] = one
            continue
        x, _ = spin.preimage(as_matrix(record.matrix_of(gen.name)))
        out[gen.name] = x
    return out


def _render_word(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(f"{g}^({e})" for g, e in w)


def _f2_solve(
    rows: Sequence[int], rhs: Sequence[int], nvars: int, echelon: Optional[Mapping[int, int]] = None
) -> Optional[Dict[int, int]]:
    """Add the equations parity(rows[r] & s) == rhs[r], for a bit vector s
    of ``nvars`` bits, to ``echelon`` (none: an empty system).

    The one F_2 elimination: Gauss-Jordan with each row's lowest bit as its
    pivot.  An echelon maps each pivot bit to its row, with the right-hand
    side on bit ``nvars``; every pivot bit is set in its own row only.
    Returns the new echelon, a copy, or None when the system is
    inconsistent.  The system has 2^(nvars - len(echelon)) solutions, and
    ``_f2_solution`` lists them.  The reduced form is unique, so it does not
    depend on the order the rows come in.
    """
    pivots = dict(echelon) if echelon else {}
    top = 1 << nvars
    for row, b in zip(rows, rhs):
        if b:
            row |= top
        for bit, prow in pivots.items():
            if row & bit:
                row ^= prow
        if not row:
            continue
        bit = row & -row
        if bit == top:
            return None
        for q, prow in pivots.items():
            if prow & bit:
                pivots[q] = prow ^ row
        pivots[bit] = row
    return pivots


def _f2_solution(echelon: Mapping[int, int], nvars: int) -> Tuple[int, Tuple[int, ...]]:
    """``(p, kernel)`` for a consistent echelon of ``_f2_solve``: the
    solutions are exactly p XOR a subset of ``kernel``.

    Each kernel vector has one free bit, its highest, and ``kernel`` is
    sorted by it; p has no free bit.  So the subset with bit mask i gives
    the i-th smallest solution.
    """
    top = 1 << nvars
    p = sum(bit for bit, row in echelon.items() if row & top)
    kernel = []
    for i in range(nvars):
        free = 1 << i
        if free not in echelon:
            kernel.append(free | sum(bit for bit, row in echelon.items() if row & free))
    return p, tuple(kernel)


def enumerate_lifts(record: AlmostBieberbachRecord, params: Sequence[int]) -> LiftResult:
    """Count the lifts of the classifying representation to Spin(4) at the
    parameter row ``params``, one integer per parameter of the record in its
    order; only their parities matter, and the result carries them.

    An assignment s (bit i = 1 meaning generator i carries -1) is valid iff
    every relator evaluates to +1, that is, iff for every relator the parity
    of s on the generators with odd exponent sum equals the relator's sign
    bit (``relator_signs``), because -1 is central and base relator values
    are +-1.  The record's constant relators are eliminated once
    (``parity_system``); a row adds its parameter-dependent relators to
    that echelon, and the count is 2^(generators - rank).  The result keeps
    the row's echelon, from which ``LiftResult.valid_assignments`` lists the
    valid assignments; their signs are relative to the lifts
    ``holonomy_lift`` chooses.
    """
    odd = _parities(record, params)
    system = record.parity_system
    echelon = system.solve(odd)
    if echelon is None:
        return LiftResult(False, 0, odd, system.generators)
    count = 1 << (len(system.generators) - len(echelon))
    return LiftResult(True, count, odd, system.generators, echelon)


# ---------------------------------------------------------------------------
# Ĝ = λ⁻¹(F)
# ---------------------------------------------------------------------------


def lift_power_sign(M: Sequence[Sequence[int]], m: int) -> int:
    """Sign s with x^m = s for either preimage x of M under the double cover.

    Requires an integer matrix M of determinant 1 with M^m = 1; M has some
    finite order o and is conjugate into SO(4).  For even m: if M's rotation
    angles are 2 pi j_1/o and 2 pi j_2/o, then x^o = (-1)^(j_1 + j_2).  The
    involution M^(o/2) is -1 on exactly the rotation planes with odd j_k, so
    its trace t is 0 or -4, (4 - t)/4 counts those planes, and
    s = (-1)^(((4 - t)/4) (m/o)); for odd o, s = +1.  For odd m the preimage
    pair {x, -x} contains exactly one element with x^m = 1, so the question
    has no invariant answer and we return +1 by convention for the element
    of odd order.
    """
    if m % 2:
        return 1
    d = intmat.int_det(M)
    if d != 1:
        raise InconsistentRecord(f"matrix has determinant {d}, so it is not in SO(4)")
    one = intmat.int_identity(4)
    powers = [one, tuple(map(tuple, M))]
    while powers[-1] != one and len(powers) <= m:
        powers.append(intmat.int_mat_mul(powers[-1], M))
    o = len(powers) - 1
    if powers[-1] != one or m % o:
        raise InconsistentRecord(f"matrix does not satisfy M^{m} = 1")
    if o % 2:
        return 1
    t = sum(powers[o // 2][i][i] for i in range(4))
    return -1 if (4 - t) // 4 * (m // o) % 2 else 1


class LiftedHolonomy(NamedTuple):
    """Ĝ = λ⁻¹(F): the preimage of the holonomy group under the double cover."""

    group: groups.FiniteGroup  # elements 0 .. 2|F| - 1, 0 the identity
    matrices: Tuple[IntMatrix, ...]  # per element, its image in F
    central: int  # the kernel element c, which maps to -1 in Spin(4)


def lifted_holonomy(record: AlmostBieberbachRecord) -> LiftedHolonomy:
    """Ĝ as F x {0, 1}, element 2x + s over F's element x: 0 is the identity
    and 1 the kernel element c.

    A generator g_j of the named group's table acts by
    (x, s) g_j = (x g_j, s + e(x, j)), with one bit e(x, j) per edge
    x -> x g_j of F's Cayley graph, and c flips s.  The bits are 0 on a
    spanning tree, and around the loop that a power relator w^m spells from
    any x they sum to its sign (``lift_power_sign``): one ``_f2_solve``.  The
    table presents F, so its relator loops span the graph's cycles mod 2 and
    fix every other bit.  No solution means the lifted relators force c = 1,
    and a free bit that the table presents a group larger than F (then Ĝ has
    more than 2|F| elements); both raise InconsistentRecord.
    """
    F = record.holonomy_group
    products, inverses = F.group.table, F.group.inverses
    gens, k = F.generators, len(F.generators)
    right = [[row[g] for g in gens] for row in products]
    nvars = k * len(right)  # bit x k + j is e(x, j)
    rows = [1 << (x * k + j) for _, x, j in groups.spanning_tree(right)]
    rhs = [0] * len(rows)
    pos = {g: i for i, g in enumerate(F.table.generators)}
    for base, power in F.table.relators:
        word = groups.word_to_letters(base, pos) * power
        sign = int(lift_power_sign(F.matrices[F.element_of_word(base)], power) < 0)
        for x in F.group.elements:
            row = 0
            for letter in word:  # the letter g_j^-1 walks the edge y -> y g_j = x back
                j = abs(letter) - 1
                y = x if letter > 0 else products[x][inverses[gens[j]]]
                row ^= 1 << (y * k + j)
                x = right[x][j] if letter > 0 else y
            rows.append(row)
            rhs.append(sign)
    echelon = _f2_solve(rows, rhs, nvars)
    if echelon is None or len(echelon) < nvars:
        order = F.order if echelon is None else f"more than {2 * F.order}"
        raise InconsistentRecord(
            f"family {record.family}: the lift of the {F.table.name} presentation has "
            f"order {order}, not twice the holonomy order {F.order}"
        )
    bits = _f2_solution(echelon, nvars)[0]
    action = [[2 * y + (s ^ bits >> (x * k + j) & 1) for j, y in enumerate(targets)]
              + [2 * x + 1 - s] for x, targets in enumerate(right) for s in (0, 1)]
    G = groups.FiniteGroup.from_right_action(action)
    return LiftedHolonomy(G, tuple(F.matrices[e >> 1] for e in G.elements), 1)


def holonomy_lift(lifted: LiftedHolonomy, M: IntMatrix) -> int:
    """The element of Ĝ a holonomy generator with matrix M lifts to: 1 over
    the identity, otherwise the element over M of even order, the lower
    numbered when both have even order.

    Over an M of odd order only one element has even order; ``spin.preimage``
    lifts the signed permutations of order 3 to it.  The choice moves a
    relator's sign only for a generator with an odd exponent sum in it, and
    on the bundled records every such generator has an odd-order matrix, so
    there the signs are the Clifford signs of ``base_preimages``.  Counts
    never depend on the choice.
    """
    if M == intmat.int_identity(DIM):
        return lifted.group.identity
    over = [x for x, N in enumerate(lifted.matrices) if N == M]
    return min(over, key=lambda x: lifted.group.element_order(x) % 2)


class LiftGroupResult(NamedTuple):
    """The preimage of the holonomy group under the double cover."""

    name: str
    order: int
    realization: str  # "spin" (explicit Clifford elements) or "abstract"
    elements: Tuple[CliffordElement, ...] = ()


def lift_group(record: AlmostBieberbachRecord) -> LiftGroupResult:
    """The preimage group Ĝ of the holonomy group under the double cover,
    named and ordered from ``lifted_holonomy``, the count path's Ĝ.

    When every holonomy matrix is a signed permutation, Ĝ's elements are
    listed by closing the base preimages and -1 in the Clifford algebra;
    a closure of another size than |Ĝ| raises InconsistentRecord.
    """
    G = lifted_holonomy(record).group
    name, order = groups.identify_group(G), len(G)
    if not record.signed_perm_holonomy:
        return LiftGroupResult(name, order, "abstract")
    from .clifford import CliffordElement

    base = record.base_preimages
    one = CliffordElement.scalar(DIM, 1)
    gens = [base[g] for g in record.presentation.holonomy_generators()] + [-one]
    elements = groups.closure(gens, operator.mul, one)
    if len(elements) != order:
        raise InconsistentRecord(
            f"family {record.family}: the spin preimages close to {len(elements)} "
            f"elements, but the lifted holonomy group has order {order}"
        )
    return LiftGroupResult(name, order, "spin", tuple(elements))


def count_lifts(record: AlmostBieberbachRecord, params: Sequence[int]) -> LiftResult:
    """The lifts at one parameter row; every record is counted by
    ``enumerate_lifts``."""
    return enumerate_lifts(record, params)


def __getattr__(name: str):
    # the oracles live in ``spinaf.oracles``; spinbench's tracer still looks
    # them up here
    if name in ("evaluate_word", "sylow_pullback_record", "sylow_strategy"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
