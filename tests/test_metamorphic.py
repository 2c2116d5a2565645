"""Counts do not depend on the lattice basis or on the presentation.

A spin structure exists, and the structures are counted, on the canonical
orthogonal representation, which is defined only up to conjugation; and a
group is the same group however its generators and relators are written.
So every record keeps its counts, relator signs, lifted group, character
and sign assignments when its holonomy matrices are conjugated by some U
in GL(4, Z), and when its generators and relators are shuffled and each
relator is replaced by a cyclic rotation of its inverse.
"""

import json
import random

import pytest

from conftest import CONJUGATION_SEEDS
from spinaf import catalog as cat
from spinaf import fp, holonomy

PRESENTATION_SEEDS = (3, 4)


def _assignments(result):
    """The valid sign assignments as a set, each by generator name."""
    return {tuple(sorted(a.as_dict().items())) for a in result.valid_assignments}


def invariants(record, rows):
    """What a change of basis or of presentation must keep, apart from the
    relator signs: the lifted group's name and order, the character, and
    per expectation row the count and the sign assignments."""
    lifted = fp.lift_group(record)
    counts = []
    for e in rows:
        result = fp.count_lifts(record, e.params)
        counts.append((e.params, result.count, _assignments(result)))
    return (lifted.name, lifted.order), holonomy.character_of_record(record), counts


@pytest.fixture(scope="module")
def reference(bundled):
    """Per family: the bundled record, its expectation rows and its
    ``invariants``."""
    catalog, expectations = bundled
    out = {}
    for r in catalog.records:
        rows = [e for e in expectations if e.family == r.family]
        out[r.family] = r, rows, invariants(r, rows)
    assert sum(len(rows) for _, rows, _ in out.values()) == 127
    return out


@pytest.mark.parametrize("seed", sorted(CONJUGATION_SEEDS))
def test_conjugation_keeps_counts_signs_lift_character_and_assignments(
        reference, conjugated, seed):
    records = conjugated[seed].records
    assert len(records) == 43
    # most conjugates leave the signed permutations, where only the count
    # path and the abstract Ĝ apply
    assert sum(not r.signed_perm_holonomy for r in records) >= 35
    for r in records:
        original, rows, expected = reference[r.family]
        assert r.relator_signs == original.relator_signs, r.family
        assert invariants(r, rows) == expected, r.family


def _inverse(e):
    return fp.ExponentExpr.make(-e.const, dict((k, -v) for k, v in e.coeffs))


def represent(record, rng):
    """The record with its generators and its relators shuffled and each
    relator replaced by a cyclic rotation of its inverse, and the relator
    order: relator i of the new record comes from relator ``order[i]``."""
    pres = record.presentation
    generators = list(pres.generators)
    rng.shuffle(generators)
    order = list(range(len(pres.relators)))
    rng.shuffle(order)
    relators = []
    for i in order:
        inverse = tuple((g, _inverse(e)) for g, e in reversed(pres.relators[i]))
        k = rng.randrange(len(inverse)) if inverse else 0
        relators.append(inverse[k:] + inverse[:k])
    presentation = fp.Presentation(tuple(generators), tuple(relators), pres.parameters)
    return record._replace(presentation=presentation), order


@pytest.mark.parametrize("seed", PRESENTATION_SEEDS)
def test_presentation_changes_keep_counts_signs_lift_character_and_assignments(
        reference, seed):
    rng = random.Random(seed)
    moved = 0
    for original, rows, expected in reference.values():
        r, order = represent(original, rng)
        cat.check_record(r)
        moved += r.presentation.generators != original.presentation.generators
        assert r.relator_signs == tuple(original.relator_signs[i] for i in order), r.family
        assert invariants(r, rows) == expected, r.family
    assert moved >= 35


def test_verify_and_classify_on_a_catalog_in_other_lattice_bases(tmp_path, cli, conjugated):
    p = tmp_path / "conjugated.json"
    p.write_text(json.dumps({
        "format_version": cat.FORMAT_VERSION,
        "records": [cat.record_to_json(r) for r in conjugated[5].records]}), encoding="utf-8")
    result = cli("verify", "--catalog", str(p))
    assert result.exit_code == 0, result.output
    assert result.output.count(" pass\n") == 127
    assert result.output.endswith("127 rows, 0 failures, 15 rows with zero spin structures\n")
    bundled_json = cli("classify", "--format", "json")
    assert bundled_json.exit_code == 0
    assert cli("classify", "--catalog", str(p), "--format", "json") == bundled_json
