import itertools
import operator
import random
import re

import pytest

from spinaf import catalog as cat
from spinaf import chartables, fp, groups, intmat, linalg, oracles, spin
from spinaf.clifford import CliffordElement
from spinaf.errors import InconsistentRecord, SpinafError, UnsupportedScalar


@pytest.fixture(scope="module")
def catalog(bundled):
    return bundled[0]


def test_family_4_counts(catalog):
    r = catalog.find("4")
    expected = {(0, 0, 0, 0): 16, (0, 1, 0, 0): 8, (1, 0, 0, 0): 8}
    for bits, count in expected.items():
        res = fp.enumerate_lifts(r, bits)
        assert res.count == count
        assert len(res.valid_assignments) == count


def test_family_5_nonspin_row(catalog):
    r = catalog.find("5")
    res = fp.enumerate_lifts(r, (1, 0, 0, 1))
    assert res.count == 0
    assert not res.exists


def test_c6_sylow_counts(catalog):
    r = catalog.find("173")
    assert not r.signed_perm_holonomy
    for bits, count in {(0, 0, 0, 0): 4, (1, 0, 0, 0): 2,
                        (0, 0, 0, 1): 4, (1, 0, 0, 1): 2}.items():
        assert oracles.sylow_strategy(r, bits).count == count


def test_wrongly_named_record_is_refused_not_miscounted(catalog):
    # records built in code skip load's check of the name against the closure;
    # counting builds Ĝ from the named group's table, which must fit the matrices
    for family in ["4", "158", "173"]:
        r = catalog.find(family)
        zeros = (0,) * len(r.presentation.parameters)
        for name in ["C6", "C2", "no-such-group"]:
            if name == r.holonomy_name:
                continue
            with pytest.raises(SpinafError):
                fp.count_lifts(r._replace(holonomy_name=name), zeros)


def test_direct_count_needs_no_spin_preimages(catalog):
    r = catalog.find("143")
    assert not r.signed_perm_holonomy
    with pytest.raises(UnsupportedScalar):
        fp.base_preimages(r)
    result = fp.count_lifts(r, (0, 0, 0, 0))
    assert result.count == 4
    assert result == fp.enumerate_lifts(r, (0, 0, 0, 0))
    assert oracles.sylow_strategy(r, (0, 0, 0, 0)).count == 4


def test_sylow_strategy_reduces_params_mod2(catalog, monkeypatch):
    # parameters enter the pullback's relators as exponents, so an unreduced
    # k = 20001 would build words 10^4 times longer than k = 1
    r = catalog.find("143")
    built = []
    pullback = oracles.sylow_pullback_record

    def keep_pullback(record, params):
        built.append(pullback(record, params))
        return built[-1]

    monkeypatch.setattr(oracles, "sylow_pullback_record", keep_pullback)

    def relator_length(record):
        return sum(len(rel) for rel in record.presentation.relators)

    small = oracles.sylow_strategy(r, (1, 0, 0, 0))
    large = oracles.sylow_strategy(r, (20001, 0, 0, 0))
    assert large == small
    assert len(built) == 2
    assert relator_length(built[1]) == relator_length(built[0])


def test_count_lifts_agrees_with_sylow_strategy_on_every_row(catalog):
    # the Sylow oracle restricts to the 2-subgroup that fp.sylow_subgroup
    # finds in the matrices and evaluates Clifford products there
    rows = cat.load_expectations(cat.bundled_path("expectations.json"))
    assert len(rows) == 127
    assert len({e.family for e in rows}) == 43
    for e in rows:
        r = catalog.find(e.family)
        direct, sylow = fp.count_lifts(r, e.params), oracles.sylow_strategy(r, e.params)
        assert sylow.count == direct.count == e.count, (e.family, e.params)


def clifford_relator_signs(record):
    """Per relator, 1 iff its holonomy letters multiply to -1 over the
    spin preimages of ``base_preimages``."""
    base = fp.base_preimages(record)
    holonomy = set(record.presentation.holonomy_generators())
    one = CliffordElement.scalar(fp.DIM, 1)
    signs = []
    for rel in record.presentation.relators:
        value = oracles.evaluate_word([(g, e.const) for g, e in rel if g in holonomy], {}, base)
        assert value in (one, -one), (record.family, rel)
        signs.append(int(value == -one))
    return tuple(signs)


def test_relator_signs_in_the_lifted_group_equal_the_clifford_signs(catalog):
    records = [r for r in catalog.records if r.signed_perm_holonomy]
    assert len(records) == 35
    for r in records:
        assert r.relator_signs == clifford_relator_signs(r), r.family


def test_holonomy_lift_is_the_even_order_element_over_its_matrix(catalog):
    for r in catalog.records:
        lifted = fp.lifted_holonomy(r)
        G = lifted.group
        assert len(G) == 2 * r.holonomy_group.order
        assert lifted.matrices[lifted.central] == intmat.int_identity(fp.DIM)
        assert G.element_order(lifted.central) == 2
        for g in r.presentation.holonomy_generators():
            M = r.matrix_of(g)
            x = fp.holonomy_lift(lifted, M)
            assert lifted.matrices[x] == M
            if M != intmat.int_identity(fp.DIM):
                assert G.element_order(x) % 2 == 0, (r.family, g)


def test_sylow_subgroup_has_odd_index_on_every_record(catalog):
    for r in catalog.records:
        F = r.holonomy_group
        S = oracles.sylow_subgroup(F)
        assert all(intmat.is_signed_perm(F.matrices[x]) for x in S)
        assert len(S) & (len(S) - 1) == 0 and F.order // len(S) % 2 == 1, r.family


def test_sylow_strategy_refuses_a_subgroup_of_even_index(sheared_quarter_turn):
    # no element of the sheared quarter turn's C4 but the identity is a
    # signed permutation, so S is trivial, of index 4; counting on it would
    # miss the obstruction x^4 = -1 of the relator al^4 and give 2^5
    cat.check_record(sheared_quarter_turn)
    assert oracles.sylow_subgroup(sheared_quarter_turn.holonomy_group) == [0]
    assert fp.count_lifts(sheared_quarter_turn, {}).count == 0
    message = ("family C4-shear: some holonomy matrix is not a signed permutation, and the "
               "signed permutations in the holonomy group give a 2-subgroup of even index 4, "
               "so the Sylow strategy cannot count the record")
    with pytest.raises(SpinafError, match=f"^{re.escape(message)}$"):
        oracles.sylow_strategy(sheared_quarter_turn, {})


def test_f2_solve_against_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(0, 7)
        rows = [rng.randrange(1 << k) for _ in range(rng.randint(0, 6))]
        rhs = [rng.randint(0, 1) for _ in rows]
        brute = [s for s in range(1 << k)
                 if all(bin(row & s).count("1") % 2 == b for row, b in zip(rows, rhs))]
        solved = fp._f2_solve(rows, rhs, k)
        # the same rows added to the echelon of a first part of them: the
        # reduced form is unique, and the first echelon is left as it was
        j = rng.randint(0, len(rows))
        first = fp._f2_solve(rows[:j], rhs[:j], k)
        if first is not None:
            kept = dict(first)
            assert fp._f2_solve(rows[j:], rhs[j:], k, first) == solved
            assert first == kept
        if not brute:
            assert solved is None
            continue
        assert len(brute) == 1 << (k - len(solved))
        p, kernel = fp._f2_solution(solved, k)
        listed = []
        for i in range(1 << len(kernel)):
            s = p
            for j, v in enumerate(kernel):
                if i >> j & 1:
                    s ^= v
            listed.append(s)
        assert listed == brute


def test_abstract_lift_agrees_with_spin_closure(catalog):
    # Ĝ named from the table presentation and the generator map, against the
    # lift group closed in the Clifford algebra and identified on its own, on
    # every signed-permutation record
    for r in catalog.records:
        if r.signed_perm_holonomy:
            one = CliffordElement.scalar(fp.DIM, 1)
            gens = [r.base_preimages[g] for g in r.presentation.holonomy_generators()] + [-one]
            elements, right = groups.cayley_graph(gens, operator.mul, one)
            spin_lift = groups.identify_group(groups.FiniteGroup.from_right_action(right))
            lifted = fp.lift_group(r)
            assert (lifted.name, lifted.order) == (spin_lift, len(elements)), r.family
            assert lifted.elements == tuple(elements), r.family


def test_abstract_lift_rejects_a_presentation_of_a_larger_group(catalog, monkeypatch):
    # <a, b | a^2, b^2, (ab)^4> holds for the C2xC2 matrices of family 27 but
    # presents D8, so its lift has order 16, not 2|F| = 8
    table = chartables.TABLES["C2xC2"]
    d8 = table.relators[:2] + (((("a", 1), ("b", 1)), 4),)
    monkeypatch.setitem(chartables.TABLES, "C2xC2", table._replace(relators=d8))
    fresh = catalog.find("27")._replace()  # no holonomy group built with the real table yet
    with pytest.raises(InconsistentRecord, match="^family 27: .* not twice the holonomy order 4$"):
        fp.lift_group(fresh)


def test_lift_group_refuses_a_spin_closure_of_another_order(catalog):
    # with the identity as the preimage of its generator, family 4's Clifford
    # closure is {1, -1}, not the C4 that lifted_holonomy gives
    r = catalog.find("4")._replace()
    one = CliffordElement.scalar(fp.DIM, 1)
    r.__dict__["base_preimages"] = {g: one for g in r.presentation.generator_names}
    message = ("family 4: the spin preimages close to 2 elements, "
               "but the lifted holonomy group has order 4")
    with pytest.raises(InconsistentRecord, match=f"^{re.escape(message)}$"):
        fp.lift_group(r)


def test_lift_whose_relators_force_c_to_1_is_refused(catalog, monkeypatch):
    # with b^2 = 1 in place of b^2 = c, the lifted relator (ba)^2 = c gives
    # b a b^-1 = c a^-1, and conjugating a^3 = 1 by b then forces c = 1
    r = catalog.find("158")
    F = r.holonomy_group
    b = F.matrices[F.element_of_word((("b", 1),))]
    sign = fp.lift_power_sign
    monkeypatch.setattr(fp, "lift_power_sign",
                        lambda M, m: -sign(M, m) if (M, m) == (b, 2) else sign(M, m))
    message = "family 158: the lift of the S3 presentation has order 6, not twice the holonomy order 6"
    with pytest.raises(InconsistentRecord, match=f"^{re.escape(message)}$"):
        fp.lifted_holonomy(r)


def coset_enumeration_lift(record):
    """Ĝ realized by coset enumeration of the table presentation with a
    central generator c and each power relator signed by
    ``lift_power_sign``: the reference for ``fp.lifted_holonomy``."""
    F = record.holonomy_group
    table = F.table
    pos = {g: i for i, g in enumerate(table.generators)}
    c = len(table.generators) + 1
    relators = [(c, c)] + [(g, c, -g, -c) for g in range(1, c)]
    for base, power in table.relators:
        rel = groups.word_to_letters(base, pos) * power
        if fp.lift_power_sign(F.matrices[F.element_of_word(base)], power) < 0:
            rel = rel + (c,)
        relators.append(rel)
    G, words = oracles.regular_representation(c, relators)
    images = [F.group.evaluate_word([k for k in w if k < c], F.generators) for w in words]
    return fp.LiftedHolonomy(G, tuple(F.matrices[x] for x in images), images.index(0, 1))


def assert_lifted_holonomy_agrees_with_coset_enumeration(records):
    """Same order and type, and the relator signs traced in the reference
    with holonomy_lift's rule are the record's."""
    for r in records:
        lifted, reference = fp.lifted_holonomy(r), coset_enumeration_lift(r)
        G = reference.group
        assert len(lifted.group) == len(G) == 2 * r.holonomy_group.order, r.family
        assert groups.identify_group(lifted.group) == groups.identify_group(G), r.family
        lift = {g: fp.holonomy_lift(reference, r.matrix_of(g))
                for g in r.presentation.holonomy_generators()}
        signs = []
        for rel in r.presentation.relators:
            x = G.identity
            for g, e in rel:
                if g in lift:
                    x = G.mul(x, G.power(lift[g], e.const))
            assert x in (G.identity, reference.central), (r.family, rel)
            signs.append(int(x == reference.central))
        assert tuple(signs) == r.relator_signs, r.family


def test_lifted_holonomy_agrees_with_coset_enumeration(catalog):
    # the second Ĝ oracle for every record, the 8 whose matrices are not all
    # signed permutations included
    assert len(catalog.records) == 43
    assert_lifted_holonomy_agrees_with_coset_enumeration(catalog.records)


def test_lifted_holonomy_of_conjugated_records_agrees_with_coset_enumeration(conjugated):
    # the same records written in other lattice bases, most of them no
    # longer signed permutations
    for conjugates in conjugated.values():
        assert len(conjugates.records) == 43
        assert_lifted_holonomy_agrees_with_coset_enumeration(conjugates.records)


def sign_bits(signs):
    """Bit i set iff generator i carries -1."""
    return sum(1 << i for i, s in enumerate(signs) if s < 0)


def brute_force_assignments(record, params):
    """Independent oracle: try all sign assignments on the holonomy and
    lattice generators and evaluate every relator as a Clifford product.
    Returns the valid ones as ``sign_bits`` masks."""
    base = fp.base_preimages(record)
    names = record.presentation.generator_names
    relators = oracles.instantiate_relators(record.presentation, params)
    one = CliffordElement.scalar(fp.DIM, 1)
    valid = []
    for signs in itertools.product((1, -1), repeat=len(names)):
        assignment = dict(zip(names, signs))
        if all(oracles.evaluate_word(rel, assignment, base) == one for rel in relators):
            valid.append(sign_bits(signs))
    return valid


def test_count_is_2_to_rank_against_brute_force(catalog):
    rng = random.Random(20)
    for family in ["1", "4", "9b", "27", "33b", "75", "104", "B1", "B5b"]:
        r = catalog.find(family)
        names = r.presentation.parameters
        generators = tuple(r.presentation.generator_names)
        for _ in range(3):
            bits = [rng.randint(0, 1) for _ in names]
            res = fp.enumerate_lifts(r, bits)
            # the exact list export prints: the brute-force set, in
            # increasing bit order with generator i on bit i
            assert all(tuple(n for n, _ in a.signs) == generators
                       for a in res.valid_assignments)
            listed = [sign_bits(s for _, s in a.signs) for a in res.valid_assignments]
            assert listed == sorted(brute_force_assignments(r, dict(zip(names, bits))))
            assert res.count == len(listed)
            if res.count:
                # count = 2^(n - rank) is a power of two
                assert res.count & (res.count - 1) == 0


def test_parity_system_solves_like_the_instantiated_rows(catalog):
    # the count path adds a row's parameter-dependent relators to the
    # record's echelon of its constant ones; the oracle evaluates every
    # exponent at the row and eliminates the whole system from scratch.
    # Every parity vector of every record, and each again with its entries
    # shifted by even amounts in -6..6
    rng = random.Random(23)
    seen = set()
    rows = 0
    for r in catalog.records:
        names = r.presentation.parameters
        generators = tuple(r.presentation.generator_names)
        assert len(names) <= 5, r.family
        for bits in itertools.product((0, 1), repeat=len(names)):
            shifted = [b + 2 * rng.randint(-3, 2) for b in bits]
            seen.update(shifted)
            solved = fp._f2_solve(oracles.parity_rows(r.presentation, dict(zip(names, shifted))),
                                  r.relator_signs, len(generators))
            oracle = fp.LiftResult(solved is not None,
                                   0 if solved is None else 1 << (len(generators) - len(solved)),
                                   bits, generators, solved)
            for vector in (bits, shifted):
                res = fp.enumerate_lifts(r, vector)
                assert res == oracle, (r.family, vector)
                assert res.valid_assignments == oracle.valid_assignments, (r.family, vector)
            rows += 1
    assert rows == sum(1 << len(r.presentation.parameters) for r in catalog.records)
    assert min(seen) < 0 and max(seen) >= 2


def test_inconsistent_constant_relators_count_0_at_every_row():
    # al is a half turn in one plane: both its spin lifts square to -1, so
    # the parameter-free relator al^2 is the row 0 | 1, and the record has
    # no lift whatever its parameters.  No bundled record has such a relator
    gens = (fp.GeneratorDecl("a", fp.LATTICE), fp.GeneratorDecl("al", fp.HOLONOMY))
    relators = (
        (("al", E(2)),),
        (("a", E(0, {"k1": 1})), ("al", E(2))),
        (("a", E(1, {"k2": 1})),),
    )
    record = fp.AlmostBieberbachRecord(
        family="half-turn", holonomy_name="C2",
        presentation=fp.Presentation(gens, relators, ("k1", "k2")),
        matrices={"al": ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))},
    )
    cat.check_record(record)
    assert record.relator_signs == (1, 1, 0)
    assert record.parity_system.echelon is None
    for bits in itertools.product((0, 1), repeat=2):
        res = fp.count_lifts(record, bits)
        assert (res.exists, res.count) == (False, 0)
        assert res.valid_assignments == ()
        assert brute_force_assignments(record, dict(zip(("k1", "k2"), bits))) == []
        assert oracles.sylow_strategy(record, bits).count == 0


@pytest.mark.parametrize("params", [
    pytest.param((0, 0, 0), id="missing"),
    pytest.param((0, 0, 0, 0, 1), id="extra"),
])
def test_count_lifts_refuses_parameters_that_are_not_the_records(catalog, params):
    r = catalog.find("4")
    assert r.presentation.parameters == ("k1", "k2", "k3", "k4")
    message = f"family 4 takes 4 parameters, got {len(params)}"
    for count in (fp.count_lifts, oracles.sylow_strategy):
        with pytest.raises(InconsistentRecord, match=f"^{re.escape(message)}$"):
            count(r, params)


def test_mod2_invariance(catalog):
    rng = random.Random(21)
    for family in ["4", "41", "80", "173", "158"]:
        r = catalog.find(family)
        names = r.presentation.parameters
        for _ in range(3):
            bits = [rng.randint(0, 1) for _ in names]
            shifted = [v + 2 * rng.randint(0, 3) for v in bits]
            assert fp.count_lifts(r, shifted) == fp.count_lifts(r, bits)


def test_valid_assignments_form_a_torsor(catalog):
    # the set of valid assignments is a coset of the solution space of the
    # homogeneous system: the pointwise product (XOR) of two valid
    # assignments with a third is again valid
    r = catalog.find("29b")
    res = fp.enumerate_lifts(r, (1, 0, 1, 0, 0))
    assert res.count == 8
    rng = random.Random(22)
    valid = {tuple(sorted(a.as_dict().items())) for a in res.valid_assignments}
    picks = [rng.choice(res.valid_assignments) for _ in range(9)]
    for x, y, z in zip(picks[0::3], picks[1::3], picks[2::3]):
        combo = {
            g: x.as_dict()[g] * y.as_dict()[g] * z.as_dict()[g]
            for g in x.as_dict()
        }
        assert tuple(sorted(combo.items())) in valid


def test_lift_groups_have_double_order(catalog):
    expected = {
        "1": "C2", "4": "C4", "27": "Q8", "75": "C8", "103": "Q16",
        "143": "C6", "158": "C3:C4", "168": "C12", "184": "C3:Q8",
    }
    from spinaf import holonomy
    for family, name in expected.items():
        r = catalog.find(family)
        g = fp.lift_group(r)
        assert g.name == name
        assert g.order == 2 * holonomy.matrix_group_closure(r).order


def test_wrong_parameter_count_rejected(catalog):
    r = catalog.find("4")
    with pytest.raises(InconsistentRecord, match=r"^family 4 takes 4 parameters, got 2$"):
        fp.count_lifts(r, (0, 0))


def test_exponent_expr():
    e = fp.ExponentExpr.make(1, {"k1": 2})
    assert e.evaluate({"k1": 3}) == 7
    assert fp.ExponentExpr.make(0).evaluate({}) == 0


E = fp.ExponentExpr.make


@pytest.mark.parametrize("generators, parameters, relators, message", [
    pytest.param([("a", "lattice"), ("al", "fibre")], (), (), "unknown generator role 'fibre'",
                 id="unknown-role"),
    pytest.param([("a", "lattice"), ("a", "holonomy")], (), (), "duplicate generator names",
                 id="duplicate-name"),
    pytest.param([("a", "lattice")], (), ((("b", E(1)),),),
                 "relator mentions undeclared generator 'b'", id="undeclared-generator"),
    pytest.param([("a", "lattice")], ("k1", "k1"), (), "duplicate parameter names",
                 id="duplicate-parameter"),
    pytest.param([("a", "lattice")], ("k1",), ((("a", E(0, {"k1": 1, "zz": 1})),),),
                 "relator exponent mentions undeclared parameter 'zz'",
                 id="undeclared-parameter"),
])
def test_presentation_built_in_code_is_checked(generators, parameters, relators, message):
    with pytest.raises(InconsistentRecord, match=f"^{re.escape(message)}$"):
        gens = tuple(fp.GeneratorDecl(name, role) for name, role in generators)
        fp.Presentation(gens, relators, parameters)


ROT3 = ((1, 0, 0, 0), (0, 0, -1, 0), (0, 1, -1, 0), (0, 0, 0, 1))
ROT4 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ROT6 = ((1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1))
IDENT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_lift_power_sign():
    # a rotation through 2 pi / m acting in one plane lifts to an element of
    # order 2m in Spin(4): its m-th power is -1
    assert fp.lift_power_sign(ROT4, 4) == -1
    assert fp.lift_power_sign(ROT6, 6) == -1
    # order-3 rotation lifts to order 3: cube is +1
    assert fp.lift_power_sign(ROT3, 3) == 1
    assert fp.lift_power_sign(IDENT, 1) == 1


def _order(M):
    P, o = M, 1
    while P != IDENT:
        P, o = intmat.int_mat_mul(P, M), o + 1
    return o


def test_lift_power_sign_matches_clifford_powers():
    # an independent computation: the m-th power of an honest spin preimage
    # in the Clifford algebra, for every signed permutation in SO(4)
    matrices = cases = 0
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            M = tuple(
                tuple(signs[j] if perm[j] == i else 0 for j in range(4)) for i in range(4)
            )
            if intmat.int_det(M) != 1:
                continue
            matrices += 1
            x = spin.preimage(linalg.as_matrix(M))[0]
            o = _order(M)
            for m in sorted({o, 2 * o}):
                if m % 2:
                    continue
                assert x ** m == fp.lift_power_sign(M, m) * x ** 0, (M, m)
                cases += 1
    assert (matrices, cases) == (192, 351)


SHEAR = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
REFLECTION = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


@pytest.mark.parametrize(
    "M, m",
    [
        (ROT4, 6),  # order 4 does not divide 6
        (SHEAR, 2),  # infinite order
        (REFLECTION, 2),  # determinant -1
    ],
)
def test_lift_power_sign_rejects(M, m):
    with pytest.raises(InconsistentRecord):
        fp.lift_power_sign(M, m)
