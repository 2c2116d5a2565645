import itertools
import random
import re

import pytest

from spinaf import catalog as cat
from spinaf import chartables, fp, intmat, oracles
from spinaf.clifford import CliffordElement
from spinaf.errors import InconsistentRecord, SpinafError, UnsupportedScalar


@pytest.fixture(scope="module")
def catalog(bundled):
    return bundled[0]


def params_of(record, bits):
    names = record.presentation.parameters
    assert len(bits) == len(names)
    return dict(zip(names, bits))


def test_family_4_counts(catalog):
    r = catalog.find("4")
    expected = {(0, 0, 0, 0): 16, (0, 1, 0, 0): 8, (1, 0, 0, 0): 8}
    for bits, count in expected.items():
        res = fp.enumerate_lifts(r, params_of(r, bits))
        assert res.count == count
        assert res.strategy == "direct"
        assert len(res.valid_assignments) == count
        assert res.parallelizable == (count > 0)


def test_family_5_nonspin_row(catalog):
    r = catalog.find("5")
    res = fp.enumerate_lifts(r, params_of(r, (1, 0, 0, 1)))
    assert res.count == 0
    assert not res.exists
    assert not res.parallelizable


def test_c6_sylow_counts(catalog):
    r = catalog.find("173")
    assert not r.signed_perm_holonomy
    for bits, count in {(0, 0, 0, 0): 4, (1, 0, 0, 0): 2,
                        (0, 0, 0, 1): 4, (1, 0, 0, 1): 2}.items():
        res = oracles.sylow_strategy(r, params_of(r, bits))
        assert res.count == count
        assert res.strategy == "sylow"


def test_wrongly_named_record_is_refused_not_miscounted(catalog):
    # records built in code skip load's check of the name against the closure;
    # counting builds Ĝ from the named group's table, which must fit the matrices
    for family in ["4", "158", "173"]:
        r = catalog.find(family)
        zeros = {n: 0 for n in r.presentation.parameters}
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
    result = fp.count_lifts(r, params_of(r, (0, 0, 0, 0)))
    assert (result.strategy, result.count) == ("direct", 4)
    assert result == fp.enumerate_lifts(r, params_of(r, (0, 0, 0, 0)))
    assert oracles.sylow_strategy(r, params_of(r, (0, 0, 0, 0))).count == 4


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

    small = oracles.sylow_strategy(r, params_of(r, (1, 0, 0, 0)))
    large = oracles.sylow_strategy(r, params_of(r, (20001, 0, 0, 0)))
    assert large == small
    assert small.strategy == "sylow"
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
        p = params_of(r, e.params)
        direct, sylow = fp.count_lifts(r, p), oracles.sylow_strategy(r, p)
        assert (direct.strategy, sylow.strategy) == ("direct", "sylow")
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
        S = fp.sylow_subgroup(F)
        assert all(intmat.is_signed_perm(F.matrices[x]) for x in S)
        assert len(S) & (len(S) - 1) == 0 and F.order // len(S) % 2 == 1, r.family


def test_f2_solve_against_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(0, 7)
        rows = [rng.randrange(1 << k) for _ in range(rng.randint(0, 6))]
        rhs = [rng.randint(0, 1) for _ in rows]
        brute = [s for s in range(1 << k)
                 if all(bin(row & s).count("1") % 2 == b for row, b in zip(rows, rhs))]
        solved = fp._f2_solve(rows, rhs, k)
        if not brute:
            assert solved is None
            continue
        p, kernel = solved
        listed = []
        for i in range(1 << len(kernel)):
            s = p
            for j, v in enumerate(kernel):
                if i >> j & 1:
                    s ^= v
            listed.append(s)
        assert listed == brute


def test_abstract_lift_agrees_with_spin_closure(catalog):
    # Ĝ from the table presentation and the generator map, against the lift
    # group closed in the Clifford algebra, on every signed-permutation record
    for r in catalog.records:
        if r.signed_perm_holonomy:
            spin_lift, abstract = fp.lift_group(r), fp._lift_group_abstract(r)
            assert (abstract.name, abstract.order) == (spin_lift.name, spin_lift.order), r.family


def test_abstract_lift_rejects_a_presentation_of_a_larger_group(catalog, monkeypatch):
    # <a, b | a^2, b^2, (ab)^4> holds for the C2xC2 matrices of family 27 but
    # presents D8, so its lift has order 16, not 2|F| = 8
    table = chartables.TABLES["C2xC2"]
    d8 = table.relators[:2] + (((("a", 1), ("b", 1)), 4),)
    monkeypatch.setitem(chartables.TABLES, "C2xC2", table._replace(relators=d8))
    fresh = catalog.find("27")._replace()  # no holonomy group built with the real table yet
    with pytest.raises(InconsistentRecord, match="family 27: .* has order 16, not twice"):
        fp._lift_group_abstract(fresh)


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
            params = {n: rng.randint(0, 1) for n in names}
            res = fp.enumerate_lifts(r, params)
            # the exact list export prints: the brute-force set, in
            # increasing bit order with generator i on bit i
            assert all(tuple(n for n, _ in a.signs) == generators
                       for a in res.valid_assignments)
            listed = [sign_bits(s for _, s in a.signs) for a in res.valid_assignments]
            assert listed == sorted(brute_force_assignments(r, params))
            assert res.count == len(listed)
            if res.count:
                # count = 2^(n - rank) is a power of two
                assert res.count & (res.count - 1) == 0


def test_parity_table_rows_equal_the_instantiated_rows(bundled):
    # the count path reads each row off the record's affine table; the oracle
    # evaluates every exponent at the row
    catalog, expectations = bundled
    rng = random.Random(23)
    seen = set()
    for e in expectations:
        r = catalog.find(e.family)
        names = r.presentation.parameters
        for vector in [e.params] + [[rng.randint(-5, 5) for _ in names] for _ in range(3)]:
            params = dict(zip(names, vector))
            seen.update(vector)
            assert (list(r.parity_table.rows(params))
                    == oracles.parity_rows(r.presentation, params)), (e.family, vector)
    assert min(seen) < 0 and max(seen) >= 2


def test_mod2_invariance(catalog):
    rng = random.Random(21)
    for family in ["4", "41", "80", "173", "158"]:
        r = catalog.find(family)
        names = r.presentation.parameters
        for _ in range(3):
            bits = {n: rng.randint(0, 1) for n in names}
            shifted = {n: v + 2 * rng.randint(0, 3) for n, v in bits.items()}
            assert (fp.count_lifts(r, fp.reduce_params_mod2(shifted)).count
                    == fp.count_lifts(r, bits).count)


def test_valid_assignments_form_a_torsor(catalog):
    # the set of valid assignments is a coset of the solution space of the
    # homogeneous system: the pointwise product (XOR) of two valid
    # assignments with a third is again valid
    r = catalog.find("29b")
    res = fp.enumerate_lifts(r, params_of(r, (1, 0, 1, 0, 0)))
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
    with pytest.raises(InconsistentRecord):
        cat.classify_record(r, (0, 0))


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
