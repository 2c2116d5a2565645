import dataclasses
import itertools
import random

import pytest

from spinaf import catalog as cat
from spinaf import fp
from spinaf.clifford import CliffordElement
from spinaf.errors import InconsistentRecord, UnsupportedScalar


@pytest.fixture(scope="module")
def catalog():
    return cat.load_catalog(cat.bundled_path("catalog.json"))


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
        res = fp.sylow_strategy(r, params_of(r, bits))
        assert res.count == count
        assert res.strategy == "sylow"


def test_route_follows_the_matrices_not_the_name(catalog):
    # records built in code skip load's check of the name against the closure
    for family, strategy in [("4", "direct"), ("158", "direct"), ("173", "sylow")]:
        r = catalog.find(family)
        zeros = {n: 0 for n in r.presentation.parameters}
        for name in ["C6", "C2", "no-such-group"]:
            renamed = dataclasses.replace(r, holonomy_name=name)
            assert renamed.signed_perm_holonomy is (strategy == "direct")
            assert fp.count_lifts(renamed, zeros).strategy == strategy


def test_direct_strategy_rejects_irrational_holonomy(catalog):
    r = catalog.find("143")
    with pytest.raises(UnsupportedScalar):
        fp.base_preimages(r)
    with pytest.raises(UnsupportedScalar):
        fp.enumerate_lifts(r, params_of(r, (0, 0, 0, 0)))
    # count_lifts routes it to the sylow strategy
    result = fp.count_lifts(r, params_of(r, (0, 0, 0, 0)))
    assert (result.strategy, result.count) == ("sylow", 4)


def test_sylow_strategy_reduces_params_mod2(catalog, monkeypatch):
    # parameters enter the pullback's relators as exponents, so an unreduced
    # k = 20001 would build words 10^4 times longer than k = 1
    r = catalog.find("143")
    built = []
    pullback = fp.sylow_pullback_record

    def keep_pullback(record, params):
        built.append(pullback(record, params))
        return built[-1]

    monkeypatch.setattr(fp, "sylow_pullback_record", keep_pullback)

    def relator_length(record):
        return sum(len(rel) for rel in record.presentation.relators)

    small = fp.count_lifts(r, params_of(r, (1, 0, 0, 0)))
    large = fp.count_lifts(r, params_of(r, (20001, 0, 0, 0)))
    assert large == small
    assert small.strategy == "sylow"
    assert len(built) == 2
    assert relator_length(built[1]) == relator_length(built[0])


def test_strategies_agree_on_s3_records(catalog):
    # the S3 records have signed-permutation matrices and a holonomy
    # presentation, so both strategies apply to them
    for family in ["158", "159", "161"]:
        r = catalog.find(family)
        assert r.signed_perm_holonomy and r.holonomy_presentation is not None
        names = r.presentation.parameters
        for bits in itertools.product((0, 1), repeat=len(names)):
            p = dict(zip(names, bits))
            direct, sylow = fp.enumerate_lifts(r, p), fp.sylow_strategy(r, p)
            assert (direct.strategy, sylow.strategy) == ("direct", "sylow")
            assert direct.count == sylow.count


def sign_bits(signs):
    """Bit i set iff generator i carries -1."""
    return sum(1 << i for i, s in enumerate(signs) if s < 0)


def brute_force_assignments(record, params):
    """Independent oracle: try all sign assignments on the holonomy and
    lattice generators and evaluate every relator as a Clifford product.
    Returns the valid ones as ``sign_bits`` masks."""
    base = fp.base_preimages(record)
    names = record.presentation.generator_names
    relators = fp.instantiate_relators(record.presentation, params)
    one = CliffordElement.scalar(fp.DIM, 1)
    valid = []
    for signs in itertools.product((1, -1), repeat=len(names)):
        assignment = dict(zip(names, signs))
        if all(fp.evaluate_word(rel, assignment, base) == one for rel in relators):
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
