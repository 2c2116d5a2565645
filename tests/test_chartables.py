import pytest

from spinaf import chartables, groups, oracles
from spinaf.chartables import TABLES, decompose, get_table, render_decomposition
from spinaf.cyclotomic import Cyc12
from spinaf.errors import InconsistentRecord, UnknownGroup


def test_all_tables_pass_exact_orthogonality():
    assert set(TABLES) == {"C1", "C2", "C2xC2", "C3", "C4", "C6", "S3", "D8", "D12"}
    for table in TABLES.values():
        table.verify()


def test_table_presentations_present_groups_of_the_table_order():
    # fp._lift_group_abstract builds the preimage group from these relators
    for name, table in TABLES.items():
        pos = {g: i for i, g in enumerate(table.generators)}
        relators = [groups.word_to_letters(base, pos) * power for base, power in table.relators]
        assert oracles.todd_coxeter(len(table.generators), relators).index == table.order, name


def test_degree_sums():
    for name, table in TABLES.items():
        assert sum(d * d for d in table.degrees) == table.order, name


def test_get_table_unknown():
    with pytest.raises(UnknownGroup):
        get_table("Q8")


def test_decompose_regular_character():
    # the regular character decomposes with multiplicity = degree
    for name, table in TABLES.items():
        reg = [Cyc12(table.order)] + [Cyc12(0)] * (len(table.class_sizes) - 1)
        mults = decompose(tuple(reg), table)
        assert mults == tuple(table.degrees), name


def test_decompose_rejects_non_character():
    table = get_table("C2")
    with pytest.raises(InconsistentRecord):
        decompose((Cyc12(1), Cyc12(0)), table)  # not a virtual character combo


def test_render_decomposition():
    assert render_decomposition((4,)) == "4χ1"
    assert render_decomposition((2, 0, 1, 1)) == "2χ1+χ3+χ4"
    assert render_decomposition((1, 1, 1, 1)) == "χ1+χ2+χ3+χ4"


def test_trivial_character_decomposes_trivially():
    for table in TABLES.values():
        triv = tuple(Cyc12(1) for _ in table.class_sizes)
        mults = decompose(triv, table)
        assert mults[0] == 1 and sum(mults) == 1
