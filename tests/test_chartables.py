import cmath

import pytest

from spinaf import chartables, groups, oracles
from spinaf.chartables import (
    TABLES, CharacterTable, Zeta, decompose, get_table, render_decomposition, zeta_sum,
)
from spinaf.errors import InconsistentRecord, UnknownGroup

# zeta_12^k on the power basis 1, z, z^2, z^3, as docs/character_tables.md
# writes the table values: zeta^4 = -1 + z^2, zeta^8 = -z^2, zeta^10 = 1 - z^2
ZETA_POWERS = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0),
    (0, 0, -1, 0), (0, 0, 0, -1), (1, 0, -1, 0), (0, 1, 0, -1),
)


def as_complex(coeffs) -> complex:
    z = cmath.exp(2j * cmath.pi / 12)
    return sum(c * z ** p for p, c in enumerate(coeffs))


def test_zeta_powers_reduce_to_the_power_basis():
    for k, expected in enumerate(ZETA_POWERS):
        assert zeta_sum([(1, k)]) == expected, k
        assert zeta_sum([(1, k + 12)]) == zeta_sum([(1, k - 12)]) == expected, k
        assert zeta_sum([(3, k)]) == tuple(3 * c for c in expected), k
        assert abs(as_complex(expected) - cmath.exp(2j * cmath.pi * k / 12)) < 1e-12, k
    assert zeta_sum([(1, 12)]) == (1, 0, 0, 0)
    assert zeta_sum([(1, 6)]) == (-1, 0, 0, 0)
    assert zeta_sum([]) == (0, 0, 0, 0)


def test_zeta_sums_cancel():
    assert zeta_sum([(1, 0), (1, 4), (1, 8)]) == (0, 0, 0, 0)
    assert zeta_sum([(1, k) for k in range(12)]) == (0, 0, 0, 0)
    assert zeta_sum([(2, 3), (-1, 3), (1, 9)]) == (0, 0, 0, 0)


def test_conjugation_negates_the_exponent():
    for k in range(12):
        conj = zeta_sum([(1, -k)])
        assert abs(as_complex(conj) - as_complex(ZETA_POWERS[k]).conjugate()) < 1e-12, k
        assert conj == ZETA_POWERS[(12 - k) % 12]


def test_all_tables_pass_exact_orthogonality():
    assert set(TABLES) == {"C1", "C2", "C2xC2", "C3", "C4", "C6", "S3", "D8", "D12"}
    for table in TABLES.values():
        table.verify()


def test_table_presentations_present_groups_of_the_table_order():
    # fp.lifted_holonomy builds the preimage group from these relators
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
        reg = (table.order,) + (0,) * (len(table.class_sizes) - 1)
        mults = decompose(reg, table)
        assert mults == tuple(table.degrees), name


def test_decompose_rejects_non_character():
    table = get_table("C2")
    with pytest.raises(InconsistentRecord) as info:
        decompose((1, 0), table)  # not a virtual character combo
    assert str(info.value) == "C2: multiplicity of chi1 is 1/2, not a non-negative integer"


@pytest.mark.parametrize("name, values, message", [
    # its inner product with chi3 = (1, i, -1, -i) is 2 - 2i
    pytest.param("C4", (2, 2, 0, 0), "C4: non-rational multiplicity of chi3", id="non-rational"),
    pytest.param("C4", (0, 1, 0, 0),
                 "C4: multiplicity of chi1 is 1/4, not a non-negative integer", id="quarter"),
    pytest.param("C4", (1, 1, 0, 0),
                 "C4: multiplicity of chi1 is 1/2, not a non-negative integer", id="reduced"),
    pytest.param("C2", (0, 2),
                 "C2: multiplicity of chi2 is -1, not a non-negative integer", id="negative"),
    pytest.param("C2", (1,), "C2: class function has 1 values, table has 2 classes",
                 id="length"),
])
def test_decompose_failure_messages(name, values, message):
    with pytest.raises(InconsistentRecord) as info:
        decompose(values, get_table(name))
    assert str(info.value) == message


C4 = get_table("C4")


@pytest.mark.parametrize("table, message", [
    # chi3 with its values at a and a^3 swapped is chi4
    pytest.param(C4._replace(character_values=C4.character_values[:2]
                             + ((1, Zeta(9), -1, Zeta(3)),) + C4.character_values[3:]),
                 "C4: row orthogonality fails for chi3, chi4", id="rows"),
    # one character of degree 2 on classes of sizes 1, 1, 2: its row is
    # orthonormal and the degrees sum to the order, but the columns are not
    pytest.param(CharacterTable("X", (), (), ((), (), ()), (1, 1, 2), ((2, 0, 0),)),
                 "X: column orthogonality fails at classes 1, 1", id="columns"),
    pytest.param(C4._replace(character_values=C4.character_values[:3] + ((1, 1, 1),)),
                 "C4: ragged character table", id="ragged"),
    pytest.param(C4._replace(character_values=C4.character_values[:3] + ((2, 1, 1, 1),)),
                 "C4: degrees do not sum to the order", id="degrees"),
])
def test_verify_failure_messages(table, message):
    with pytest.raises(InconsistentRecord) as info:
        table.verify()
    assert str(info.value) == message


def test_render_decomposition():
    assert render_decomposition((4,)) == "4χ1"
    assert render_decomposition((2, 0, 1, 1)) == "2χ1+χ3+χ4"
    assert render_decomposition((1, 1, 1, 1)) == "χ1+χ2+χ3+χ4"


def test_trivial_character_decomposes_trivially():
    for table in TABLES.values():
        triv = (1,) * len(table.class_sizes)
        mults = decompose(triv, table)
        assert mults[0] == 1 and sum(mults) == 1
