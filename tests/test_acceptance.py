"""Acceptance suite: one test per top-level acceptance criterion."""

from fractions import Fraction
import itertools
import random
import time

import pytest

from spinaf import catalog as cat
from spinaf import chartables, fp, holonomy, linalg, oracles, spin
from spinaf.clifford import CliffordElement
from spinaf.qsqrt2 import QSqrt2


@pytest.fixture(scope="module")
def bundled():
    # its own records, so that criterion 1 times a verify that computes every sign
    return cat.load_bundled()


# -- 1. full table reproduction under 10 seconds ----------------------------


def test_criterion_1_table_reproduction(bundled):
    catalog, expectations = bundled
    start = time.monotonic()
    report = cat.verify(catalog, expectations)
    elapsed = time.monotonic() - start
    assert report.total == 127
    assert report.failures == 0
    for row in report.rows:
        assert row.computed == row.expected  # integer equality, no tolerance
    assert elapsed < 10.0


# -- 2. non-spin census: exactly the 15 bold rows ----------------------------

BOLD_ROWS = {
    ("5", (1, 0, 0, 1)),
    ("30", (1, 0, 1, 0, 0)),
    ("32", (0, 1, 1, 0, 0)),
    ("34", (1, 0, 1, 0, 0)),
    ("41", (0, 0, 1, 0, 0)),
    ("41", (0, 1, 1, 0, 0)),
    ("41", (1, 1, 1, 0, 0)),
    ("43", (1, 0, 1, 0, 0)),
    ("45", (0, 0, 1, 0, 0)),
    ("80", (1, 0, 0, 1)),
    ("110", (0, 0, 1, 0, 0)),
    ("B3b", (1, 1, 0, 0, 1)),
    ("B5", (0, 1, 0, 0, 1)),
    ("B5", (1, 1, 0, 0, 1)),
    ("B5b", (1, 1, 0, 0, 1)),
}


def test_criterion_2_nonspin_census(bundled):
    catalog, expectations = bundled
    report = cat.verify(catalog, expectations)
    zero = {(r.family, r.params) for r in report.rows if r.computed == 0}
    assert len(zero) == 15
    assert zero == BOLD_ROWS


# -- 3. preimage groups of the nine holonomy cases ---------------------------

PREIMAGE_GROUPS = {
    "1": "C2",       # trivial holonomy
    "4": "C4",       # C2
    "27": "Q8",      # C2 x C2
    "75": "C8",      # C4
    "103": "Q16",    # D8
    "143": "C6",     # C3
    "158": "C3:C4",  # S3
    "168": "C12",    # C6
    "184": "C3:Q8",  # D12
}


def test_criterion_3_preimage_groups(bundled):
    catalog, _ = bundled
    for family, name in PREIMAGE_GROUPS.items():
        record = catalog.find(family)
        result = fp.lift_group(record)
        assert result.name == name, family
        assert result.order == 2 * holonomy.matrix_group_closure(record).order


# -- 4. character suite -------------------------------------------------------

CHARACTERS = {
    "1": "4χ1",
    "4": "2χ1+2χ2",
    "27": "χ1+χ2+χ3+χ4",
    "75": "2χ1+χ3+χ4",
    "103": "χ1+χ2+χ5",
    "158": "χ1+χ2+χ3",
    "168": "2χ1+χ5+χ6",
    "184": "χ1+χ2+χ6",
}


def test_criterion_4_character_suite(bundled):
    catalog, _ = bundled
    for family, decomposition in CHARACTERS.items():
        _, rendered = holonomy.character_of_record(catalog.find(family))
        assert rendered == decomposition, family
    # the tables themselves pass exact orthogonality
    for table in chartables.TABLES.values():
        table.verify()


# -- 5. the double cover itself ----------------------------------------------


def _signed_perm_matrices():
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            M = [[0] * 4 for _ in range(4)]
            for j in range(4):
                M[perm[j]][j] = signs[j]
            M = linalg.as_matrix(M)
            if linalg.det(M) == QSqrt2(1):
                out.append(M)
    return out


def test_criterion_5_double_cover(bundled):
    mats = _signed_perm_matrices()
    assert len(mats) == 192
    # 192-element round trip
    for M in mats:
        x, neg = spin.preimage(M)
        assert spin.lam(x) == M and neg == -x
    # homomorphism over >= 1000 pairs drawn from a mixed pool
    rng = random.Random(12)
    pool = [spin.preimage(M)[0] for M in rng.sample(mats, 12)]
    half = QSqrt2(0, Fraction(1, 2))  # sqrt2 / 2
    quarter = QSqrt2(Fraction(1, 2))
    # 90 degree rotation in the plane of e1 and (e2 + e3)/sqrt2: its image
    # is orthogonal over Q(sqrt 2) but not a signed permutation
    mixed = CliffordElement(4, {0: half, 0b0011: quarter, 0b0101: quarter})
    assert spin.preimage(spin.lam(mixed))[0] in (mixed, -mixed)
    pool.append(mixed)
    while len(pool) < 60:
        pool.append(rng.choice(pool) * rng.choice(pool))
    identity = linalg.as_matrix(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    one = CliffordElement.scalar(4, 1)
    for _ in range(1000):
        x, y = rng.choice(pool), rng.choice(pool)
        assert spin.lam(x * y) == linalg.mat_mul(spin.lam(x), spin.lam(y))
    # kernel of the covering map is {+-1}
    for x in pool:
        if spin.lam(x) == identity:
            assert x in (one, -one)
    # involution identities on the pool: x conj(x) = 1 for spin elements
    for x in pool:
        assert x.conjugate() * x == one
        assert x.star().grade_involution() == x.conjugate()


# -- 6. counting oracle -------------------------------------------------------


def _brute_force_count(record, params):
    base = fp.base_preimages(record)
    names = record.presentation.generator_names
    relators = oracles.instantiate_relators(record.presentation, params)
    one = CliffordElement.scalar(fp.DIM, 1)
    count = 0
    for signs in itertools.product((1, -1), repeat=len(names)):
        assignment = dict(zip(names, signs))
        if all(oracles.evaluate_word(rel, assignment, base) == one for rel in relators):
            count += 1
    return count


def test_criterion_6_counting(bundled):
    catalog, expectations = bundled
    rng = random.Random(30)
    for record in catalog.records:
        names = record.presentation.parameters
        samples = [tuple(rng.randint(0, 1) for _ in names) for _ in range(2)]
        for bits in samples:
            result = fp.count_lifts(record, bits)
            # count is 2^(mod-2 rank) when lifts exist
            if result.count:
                assert result.count & (result.count - 1) == 0
            if record.signed_perm_holonomy:
                # brute-force oracle over all sign assignments
                assert result.count == _brute_force_count(record, dict(zip(names, bits)))
            # mod-2 invariance: shifting any parameter by 2 changes nothing
            assert fp.count_lifts(record, [v + 2 for v in bits]).count == result.count
