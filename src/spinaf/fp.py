"""Finitely presented almost-Bieberbach groups and the counting of spin
structures.

A group record carries a presentation whose generators are split into
*lattice* generators (mapping into the nilpotent lattice, hence acting
trivially on the fibre) and *holonomy* generators (mapping onto the finite
holonomy group F, each with an assigned integral matrix).  Lifting the
induced orthogonal representation through the double cover amounts to
choosing a sign for each generator; a sign assignment works precisely when
every relator evaluates to +1 in Spin(4).

Because -1 is central, flipping the sign of a generator flips a relator's
value exactly when the relator's exponent sum in that generator is odd, so
validity of an assignment is an affine condition over F_2 on top of the
relator's base value.  Lattice generators map to 1 and parameters appear
only in lattice-generator exponents (checked at load time), so that base
value (+-1) is a constant of the record: each record computes its spin
preimages and one sign bit per relator once, on first use
(``AlmostBieberbachRecord.spin_base`` and ``relator_signs``), and every
parameter row is then counted with F_2 parity alone.  ``evaluate_word`` is
the honest Clifford product behind those sign bits; the test suite also
uses it as an oracle.

The counting route is a property of the record's integer matrices
(``AlmostBieberbachRecord.signed_perm_holonomy``).  When every holonomy
matrix is a signed permutation its spin preimages have coordinates in
Q(sqrt 2) and the assignments are enumerated directly.  Otherwise existence
is decided on the pullback of a subgroup of F of odd index whose matrices
are signed permutations (the record's ``sylow_generators``), and the count
follows from the torsor structure: 2^(mod-2 abelianization rank).  Loading
a catalog checks that the chosen route can run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import groups, linalg, spin
from .clifford import CliffordElement
from .errors import EnumerationBoundExceeded, InconsistentRecord, UnsupportedScalar
from .groups import CosetTable

DIM = 4
MAX_DIRECT_GENERATORS = 20

LATTICE = "lattice"
HOLONOMY = "holonomy"


@dataclass(frozen=True)
class ExponentExpr:
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
ConcreteWord = Tuple[Tuple[str, int], ...]


def word(*letters) -> Word:
    """Convenience constructor: word(("a", 2), ("al", ExponentExpr...))."""
    out = []
    for gen, exp in letters:
        if isinstance(exp, int):
            exp = ExponentExpr.make(exp)
        out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    role: str  # LATTICE or HOLONOMY

    def __post_init__(self):
        if self.role not in (LATTICE, HOLONOMY):
            raise InconsistentRecord(f"unknown generator role {self.role!r}")


@dataclass(frozen=True)
class Presentation:
    generators: Tuple[GeneratorDecl, ...]
    relators: Tuple[Word, ...]
    parameters: Tuple[str, ...] = ()

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InconsistentRecord("duplicate generator names")
        declared = set(names)
        for rel in self.relators:
            for gen, _exp in rel:
                if gen not in declared:
                    raise InconsistentRecord(f"relator mentions undeclared generator {gen!r}")

    @property
    def generator_names(self) -> List[str]:
        return [g.name for g in self.generators]

    def holonomy_generators(self) -> List[str]:
        return [g.name for g in self.generators if g.role == HOLONOMY]


@dataclass(frozen=True)
class PowerRelator:
    """A holonomy-group relator of the shape word^power = 1."""

    base: Tuple[Tuple[str, int], ...]
    power: int


@dataclass(frozen=True)
class HolonomyPresentation:
    generators: Tuple[str, ...]
    power_relators: Tuple[PowerRelator, ...]
    sylow_generators: Tuple[Tuple[Tuple[str, int], ...], ...]


@dataclass(frozen=True)
class AlmostBieberbachRecord:
    family: str
    holonomy_name: str
    presentation: Presentation
    matrices: Mapping[str, Tuple[Tuple[int, ...], ...]]
    holonomy_presentation: Optional[HolonomyPresentation] = None
    nilpotency_class: int = 2
    source: str = "reconstruction"

    def matrix_of(self, gen: str) -> Tuple[Tuple[int, ...], ...]:
        if gen in self.matrices:
            return self.matrices[gen]
        return linalg.int_identity(DIM)

    @cached_property
    def signed_perm_holonomy(self) -> bool:
        """Whether every holonomy matrix is a signed permutation, i.e. has
        spin preimages over Q(sqrt 2); this decides the counting route."""
        return all(
            linalg.is_signed_perm(self.matrix_of(g)) for g in self.presentation.holonomy_generators()
        )

    @cached_property
    def spin_base(self) -> Optional[Mapping[str, CliffordElement]]:
        """Canonical spin preimage per generator (``base_preimages``), or None
        when some holonomy matrix is not a signed permutation.

        This and ``relator_signs`` are computed on first use and kept on the
        record object, so loading a catalog does no spin arithmetic and every
        parameter row of a record shares them.
        """
        return base_preimages(self) if self.signed_perm_holonomy else None

    @cached_property
    def relator_signs(self) -> Tuple[int, ...]:
        """Per relator, 1 iff it evaluates to -1 in Spin(4) under ``spin_base``.

        Raises UnsupportedScalar when the record has no ``spin_base``.
        """
        check_holonomy_exponents(self)
        base = self.spin_base
        if base is None:
            raise UnsupportedScalar(
                f"family {self.family}: some holonomy matrix has no spin preimage over Q(sqrt 2)"
            )
        holonomy = set(self.presentation.holonomy_generators())
        one = CliffordElement.scalar(DIM, 1)
        signs: List[int] = []
        for rel in self.presentation.relators:
            value = evaluate_word([(g, e.const) for g, e in rel if g in holonomy], {}, base)
            if value == one:
                signs.append(0)
            elif value == -one:
                signs.append(1)
            else:
                raise InconsistentRecord(
                    f"family {self.family}: relator {_render_word(rel)} evaluates to "
                    f"{value}, not to +-1; the matrices do not satisfy the presentation"
                )
        return tuple(signs)


def word_matrix(
    matrices: Mapping[str, Tuple[Tuple[int, ...], ...]], w: Sequence[Tuple[str, int]]
) -> Tuple[Tuple[int, ...], ...]:
    """The integer matrix of a word; generators without a matrix act trivially."""
    M = None
    for gen, exp in w:
        if gen in matrices:
            P = linalg.int_mat_pow(matrices[gen], exp)
            M = P if M is None else linalg.int_mat_mul(M, P)
    return linalg.int_identity(DIM) if M is None else M


def holonomy_closure(record: AlmostBieberbachRecord) -> groups.FiniteGroup:
    """The finite group generated by the record's holonomy matrices."""
    mats = [record.matrix_of(g) for g in record.presentation.holonomy_generators()]
    identity = linalg.int_identity(DIM)
    return groups.FiniteGroup.generated(mats or [identity], linalg.int_mat_mul, identity)


@dataclass(frozen=True)
class SignAssignment:
    signs: Tuple[Tuple[str, int], ...]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.signs)


@dataclass(frozen=True)
class LiftResult:
    exists: bool
    count: int
    valid_assignments: Tuple[SignAssignment, ...]
    strategy: str  # "direct" | "sylow"
    parallelizable: bool


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def reduce_params_mod2(params: Mapping[str, int]) -> Dict[str, int]:
    """Reduce a parameter assignment mod 2 (the count only depends on this)."""
    return {k: v % 2 for k, v in params.items()}


def _check_params(record: AlmostBieberbachRecord, params: Mapping[str, int]) -> None:
    declared = set(record.presentation.parameters)
    given = set(params)
    if declared != given:
        raise InconsistentRecord(
            f"family {record.family}: expected parameters {sorted(declared)}, got {sorted(given)}"
        )


def instantiate_relators(presentation: Presentation, params: Mapping[str, int]) -> List[ConcreteWord]:
    out = []
    for rel in presentation.relators:
        concrete = []
        for gen, expr in rel:
            e = expr.evaluate(params)
            if e != 0:
                concrete.append((gen, e))
        out.append(tuple(concrete))
    return out


def check_holonomy_exponents(record: AlmostBieberbachRecord) -> None:
    """Parameters may appear only in lattice-generator exponents.

    This is what makes a relator's base value a constant of the record and
    the mod-2 reduction of parameters sound.
    """
    holonomy = set(record.presentation.holonomy_generators())
    for rel in record.presentation.relators:
        for gen, expr in rel:
            if gen in holonomy and expr.coeffs:
                raise InconsistentRecord(
                    f"family {record.family}: relator {_render_word(rel)} has a parameter "
                    f"in the exponent of holonomy generator {gen!r}; parameters may "
                    "appear only in lattice-generator exponents"
                )


# ---------------------------------------------------------------------------
# base preimages and word evaluation
# ---------------------------------------------------------------------------


def base_preimages(record: AlmostBieberbachRecord) -> Dict[str, CliffordElement]:
    """Canonical spin preimage per generator (lattice generators map to 1).

    Raises UnsupportedScalar unless every holonomy matrix is a signed
    permutation; such records are counted by the Sylow strategy.
    """
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
        x, _ = spin.preimage(linalg.as_matrix(record.matrix_of(gen.name)))
        out[gen.name] = x
    return out


def evaluate_word(
    w: Sequence[Tuple[str, object]],
    assignment: Mapping[str, int],
    base: Mapping[str, CliffordElement],
    params: Optional[Mapping[str, int]] = None,
) -> CliffordElement:
    """Honest Clifford product of (sign * base)^exponent along a word."""
    result = CliffordElement.scalar(DIM, 1)
    for gen, exp in w:
        if isinstance(exp, ExponentExpr):
            exp = exp.evaluate(params or {})
        x = base[gen]
        if assignment.get(gen, 1) < 0:
            x = -x
        if exp < 0:
            x = x.conjugate()  # inverse of a spin element
            exp = -exp
        result = result * x ** exp
    return result


def _parity_rows(presentation: Presentation, params: Mapping[str, int]) -> List[int]:
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


def _relator_system(
    record: AlmostBieberbachRecord, params: Mapping[str, int]
) -> Tuple[List[str], List[int], List[int]]:
    """The affine F_2 system governing sign assignments.

    Returns (generator names, rows, rhs): an assignment s (bit vector,
    bit i = 1 meaning generator i carries -1) is valid iff for every
    relator r, parity(rows[r] & s) == rhs[r].  Raises UnsupportedScalar
    when the record's preimages leave Q(sqrt 2).
    """
    rhs = list(record.relator_signs)
    return record.presentation.generator_names, _parity_rows(record.presentation, params), rhs


def _render_word(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(f"{g}^({e})" for g, e in w)


def _f2_rank_and_consistency(rows: Sequence[int], rhs: Sequence[int]) -> Tuple[int, bool]:
    """Gaussian elimination over F_2 on an augmented system."""
    aug = [(row << 1) | b for row, b in zip(rows, rhs)]
    basis: List[int] = []
    consistent = True
    for v in aug:
        for b in basis:
            v = min(v, v ^ b)
        if v == 1:
            consistent = False
        elif v:
            basis.append(v)
    rank = sum(1 for b in basis if b > 1)
    return rank, consistent


def abelianization_mod2_rank(presentation: Presentation, params: Mapping[str, int]) -> int:
    """dim_F2 of Hom(Gamma, C_2) = |generators| - rank of the exponent matrix."""
    rows = _parity_rows(presentation, params)
    rank, _ = _f2_rank_and_consistency(rows, [0] * len(rows))
    return len(presentation.generator_names) - rank


def enumerate_lifts(record: AlmostBieberbachRecord, params: Mapping[str, int]) -> LiftResult:
    """Count the lifts of the classifying representation to Spin(4).

    Iterates all sign assignments in declaration (lexicographic) order; an
    assignment is valid iff every relator evaluates to +1, which reduces to
    the parity condition computed by ``_relator_system`` because -1 is
    central and base relator values are +-1.
    """
    _check_params(record, params)
    names, rows, rhs = _relator_system(record, params)
    k = len(names)
    if k > MAX_DIRECT_GENERATORS:
        raise EnumerationBoundExceeded(
            f"{k} generators exceeds the direct enumeration bound {MAX_DIRECT_GENERATORS}"
        )
    valid = []
    for bits in range(1 << k):
        if all((bin(row & bits).count("1") & 1) == b for row, b in zip(rows, rhs)):
            valid.append(bits)
    assignments = tuple(
        SignAssignment(tuple((n, -1 if bits >> i & 1 else 1) for i, n in enumerate(names)))
        for bits in valid
    )
    exists = bool(valid)
    return LiftResult(
        exists=exists,
        count=len(valid),
        valid_assignments=assignments,
        strategy="direct",
        parallelizable=exists,
    )


# ---------------------------------------------------------------------------
# Sylow strategy
# ---------------------------------------------------------------------------


def coset_enumerate(
    hol: HolonomyPresentation, subgroup_words: Sequence[Tuple[Tuple[str, int], ...]]
) -> CosetTable:
    """Todd-Coxeter on the holonomy presentation, named-generator flavour."""
    pos = {g: i for i, g in enumerate(hol.generators)}
    relators = [groups.word_to_letters(pr.base, pos) * pr.power for pr in hol.power_relators]
    subgroup = [groups.word_to_letters(w, pos) for w in subgroup_words]
    return groups.todd_coxeter(len(hol.generators), relators, subgroup)


def sylow_pullback_record(
    record: AlmostBieberbachRecord, params: Mapping[str, int]
) -> AlmostBieberbachRecord:
    """The record for the preimage of Syl_2(F), via Reidemeister-Schreier.

    The Schreier generators' holonomy matrices are the theta-images of the
    corresponding words; generators whose matrix is the identity become
    lattice generators of the pullback.
    """
    hol = record.holonomy_presentation
    if hol is None:
        raise InconsistentRecord(
            f"family {record.family}: no holonomy presentation for the Sylow strategy"
        )
    f_table = coset_enumerate(hol, hol.sylow_generators)
    # Lift the coset action from F to Gamma: lattice generators act
    # trivially, holonomy generators act as their F-images.
    names = record.presentation.generator_names
    pos = {n: i for i, n in enumerate(names)}
    hol_letter = {g: i for i, g in enumerate(hol.generators)}
    nletters = 2 * len(names)
    lifted_rows = []
    for c in range(f_table.index):
        row = [c] * nletters
        for g, fi in hol_letter.items():
            gi = pos[g]
            row[2 * gi] = f_table.table[c][2 * fi]
            row[2 * gi + 1] = f_table.table[c][2 * fi + 1]
        lifted_rows.append(row)
    gamma_table = CosetTable(len(names), lifted_rows)
    gamma_relators = [
        groups.word_to_letters(w, pos) for w in instantiate_relators(record.presentation, params)
    ]
    subgens, subrels, transversal = groups.reidemeister_schreier(
        len(names), gamma_relators, gamma_table
    )

    identity = linalg.int_identity(DIM)
    new_gens: List[GeneratorDecl] = []
    new_mats: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
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
        holonomy_presentation=None,
        nilpotency_class=record.nilpotency_class,
        source=record.source,
    )


def sylow_strategy(record: AlmostBieberbachRecord, params: Mapping[str, int]) -> LiftResult:
    """Lift count via restriction to the Sylow pullback.

    Existence is decided on the pullback record, whose holonomy matrices lie
    in the group generated by the Sylow generators' signed permutations, and
    the count is 2^(mod-2 abelianization rank) of the full record when a
    lift exists.  Restriction to a subgroup of odd index loses no
    obstruction, which is why any such subgroup serves.  Parameters are
    reduced mod 2 first: they enter the pullback's relators as exponents.
    """
    _check_params(record, params)
    params = reduce_params_mod2(params)
    pullback = sylow_pullback_record(record, params)
    _, rows, rhs = _relator_system(pullback, {})
    _, consistent = _f2_rank_and_consistency(rows, rhs)
    if not consistent:
        return LiftResult(False, 0, (), "sylow", False)
    d = abelianization_mod2_rank(record.presentation, params)
    return LiftResult(True, 2 ** d, (), "sylow", True)


@dataclass(frozen=True)
class LiftGroupResult:
    """The preimage of the holonomy group under the double cover."""

    name: str
    order: int
    realization: str  # "spin" (explicit Clifford elements) or "abstract"
    elements: Tuple[CliffordElement, ...] = ()


def _lift_group_abstract(record: AlmostBieberbachRecord) -> LiftGroupResult:
    """Identify the preimage group from the holonomy presentation alone.

    The preimage is the central extension of F by the order-2 kernel; each
    power relator w^m = 1 of F lifts to w^m = (sign) where the sign is read
    off from the rotation angles of theta(w) (its cyclotomic factor
    structure).  Coset enumeration of the extension presentation then
    realizes the group by permutations.
    """
    from .cyclotomic import lift_power_sign

    hol = record.holonomy_presentation
    if hol is None:
        raise InconsistentRecord(
            f"family {record.family}: no holonomy presentation to lift"
        )
    pos = {g: i for i, g in enumerate(hol.generators)}
    c = len(hol.generators) + 1  # the central kernel generator
    relators: List[Tuple[int, ...]] = [(c, c)]
    for g in range(1, c):
        relators.append((g, c, -g, -c))
    for pr in hol.power_relators:
        sign = lift_power_sign(word_matrix(record.matrices, pr.base), pr.power)
        rel = groups.word_to_letters(pr.base, pos) * pr.power
        if sign < 0:
            rel = rel + (c,)
        relators.append(rel)
    G = groups.regular_representation(c, relators)
    name = groups.identify_group(G)
    return LiftGroupResult(name=name, order=len(G), realization="abstract")


def lift_group(record: AlmostBieberbachRecord) -> LiftGroupResult:
    """The preimage group of the holonomy group under the double cover.

    When every holonomy matrix is a signed permutation the group is closed
    explicitly inside the Clifford algebra (together with -1); otherwise it
    is identified abstractly from the holonomy presentation.
    """
    base = record.spin_base
    if base is None:
        return _lift_group_abstract(record)
    one = CliffordElement.scalar(DIM, 1)
    gens = [base[g] for g in record.presentation.holonomy_generators()]
    gens.append(-one)
    elements = spin.subgroup_closure(gens)
    G = groups.FiniteGroup(tuple(elements), lambda x, y: x * y, one)
    name = groups.identify_group(G)
    return LiftGroupResult(
        name=name, order=len(elements), realization="spin", elements=tuple(elements)
    )


def count_lifts(record: AlmostBieberbachRecord, params: Mapping[str, int]) -> LiftResult:
    """Direct enumeration when every holonomy matrix is a signed
    permutation, the Sylow strategy otherwise."""
    if record.signed_perm_holonomy:
        return enumerate_lifts(record, params)
    return sylow_strategy(record, params)
