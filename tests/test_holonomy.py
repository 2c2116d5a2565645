import pytest

from spinaf import catalog as cat
from spinaf import holonomy


@pytest.fixture(scope="module")
def catalog():
    return cat.load_catalog(cat.bundled_path("catalog.json"))


def test_orientability_all_records(catalog):
    for r in catalog.records:
        assert holonomy.orientability(r)


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
    chi = holonomy.trace_character(catalog.find("1"))
    assert [c.rational_part() for c in chi] == [4]

