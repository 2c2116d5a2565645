from itertools import product

import pytest

from spinaf import chartables, groups, holonomy, intmat

I4 = intmat.int_identity(4)


@pytest.fixture(scope="module")
def catalog(bundled):
    return bundled[0]


def test_matrix_group_closure_orders(catalog):
    orders = {"C1": 1, "C2": 2, "C2xC2": 4, "C3": 3, "C4": 4, "C6": 6,
              "S3": 6, "D8": 8, "D12": 12}
    for r in catalog.records:
        g = holonomy.matrix_group_closure(r)
        assert g.order == orders[r.holonomy_name], r.family


def test_character_decompositions(catalog):
    expected = {
        "1": "4χ1", "4": "2χ1+2χ2", "27": "χ1+χ2+χ3+χ4", "75": "2χ1+χ3+χ4",
        "103": "χ1+χ2+χ5", "143": "2χ1+χ2+χ3", "158": "χ1+χ2+χ3",
        "168": "2χ1+χ5+χ6", "184": "χ1+χ2+χ6",
    }
    for family, decomposition in expected.items():
        mults, rendered = holonomy.character_of_record(catalog.find(family))
        assert rendered == decomposition
        # the representation is 4-dimensional
        table = holonomy.matrix_group_closure(catalog.find(family)).table
        assert sum(m * d for m, d in zip(mults, table.degrees)) == 4


def test_trace_character_values(catalog):
    # trivial holonomy: character is (4) on the single class
    assert holonomy.trace_character(catalog.find("1")) == (4,)
    # C4 (family 75): the identity, a quarter turn, a half turn and the
    # inverse quarter turn, each the identity on the other plane
    assert holonomy.trace_character(catalog.find("75")) == (4, 2, 0, 2)



def matrix_order(M) -> int:
    k, P = 1, M
    while P != I4:
        k, P = k + 1, intmat.int_mat_mul(P, M)
    return k


def test_holonomy_table_is_matrix_arithmetic(catalog):
    # every product, inverse and element order of F's table, against the matrices
    for r in catalog.records:
        F = r.holonomy_group
        G, mats = F.group, F.matrices
        gens = [r.matrix_of(g) for g in r.presentation.holonomy_generators()] or [I4]
        assert mats == tuple(groups.closure(gens, intmat.int_mat_mul, I4)), r.family
        for a in G.elements:
            for b in G.elements:
                assert mats[G.mul(a, b)] == intmat.int_mat_mul(mats[a], mats[b]), r.family
            assert mats[G.inverse(a)] == intmat.int_mat_inverse(mats[a]), r.family
            assert G.element_order(a) == matrix_order(mats[a]), r.family


def generator_map_by_matrix_search(record):
    """The generating tuple that the search over the matrices themselves
    finds: the first tuple, in closure order, of matrices with the table
    generators' orders that satisfies the table's relators and generates F."""
    table = chartables.get_table(record.holonomy_name)
    gens = [record.matrix_of(g) for g in record.presentation.holonomy_generators()] or [I4]
    elements = groups.closure(gens, intmat.int_mat_mul, I4)
    pos = {g: i for i, g in enumerate(table.generators)}
    power_of = {base[0][0]: power for base, power in table.relators if len(base) == 1}
    relators = [groups.word_to_letters(base, pos) * power for base, power in table.relators]

    def evaluate(word, combo):
        out = I4
        for letter in word:
            M = combo[abs(letter) - 1]
            out = intmat.int_mat_mul(out, M if letter > 0 else intmat.int_mat_inverse(M))
        return out

    pools = [[M for M in elements if matrix_order(M) == power_of[g]] for g in table.generators]
    for combo in product(*pools):
        if all(evaluate(w, combo) == I4 for w in relators) and len(
                groups.closure(combo, intmat.int_mat_mul, I4)) == len(elements):
            return combo
    return None


def test_generator_map_is_the_matrix_search(catalog):
    for r in catalog.records:
        F = r.holonomy_group
        assert tuple(F.matrices[x] for x in F.generators) == generator_map_by_matrix_search(r), r.family
