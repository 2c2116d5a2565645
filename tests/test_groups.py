import pytest

from spinaf import groups, oracles
from spinaf.clifford import CliffordElement
from spinaf.spin import subgroup_closure


def mk_group(elements, mul, identity):
    # every element a generator: with the identity first, the table keeps their order
    _, right = groups.cayley_graph(elements, mul, identity)
    return groups.FiniteGroup.from_right_action(right)


def cyclic(n):
    return mk_group(list(range(n)), lambda a, b: (a + b) % n, 0)


def test_cyclic_identification():
    for n, name in [(1, "C1"), (2, "C2"), (3, "C3"), (4, "C4"), (6, "C6"),
                    (8, "C8"), (12, "C12")]:
        assert groups.identify_group(cyclic(n)) == name


def test_klein_four_identification():
    elems = [(a, b) for a in range(2) for b in range(2)]
    G = mk_group(elems, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0))
    assert groups.identify_group(G) == "C2xC2"


def q8_elements():
    e12 = CliffordElement.blade(4, [1, 2])
    e23 = CliffordElement.blade(4, [2, 3])
    return subgroup_closure([e12, e23])


def test_q8_vs_d8():
    elems = q8_elements()
    G = mk_group(elems, lambda a, b: a * b, CliffordElement.scalar(4, 1))
    assert groups.identify_group(G) == "Q8"
    # D8 as signed permutations of a square
    import itertools
    r = ((0, -1), (1, 0))
    s = ((1, 0), (0, -1))

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    elems = groups.closure([r, s], mul, ((1, 0), (0, 1)))
    D = mk_group(elems, mul, ((1, 0), (0, 1)))
    assert groups.identify_group(D) == "D8"


def test_abelian_invariants():
    assert groups.abelian_invariants(cyclic(12)) == (12,)
    elems = [(a, b) for a in range(2) for b in range(4)]
    G = mk_group(elems, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4), (0, 0))
    assert groups.abelian_invariants(G) == (2, 4)


# Todd-Coxeter: words are sequences of signed 1-based generator letters.


def test_todd_coxeter_s3():
    # <a, b | a^3, b^2, (ab)^2>, trivial subgroup -> 6 cosets
    relators = [(1, 1, 1), (2, 2), (1, 2, 1, 2)]
    ct = oracles.todd_coxeter(2, relators, [])
    assert ct.index == 6


def test_todd_coxeter_with_subgroup():
    # same S3, subgroup <a> of order 3 -> index 2
    relators = [(1, 1, 1), (2, 2), (1, 2, 1, 2)]
    ct = oracles.todd_coxeter(2, relators, [(1,)])
    assert ct.index == 2


def test_regular_representation_q8():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    relators = [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)]
    G, words = oracles.regular_representation(2, relators)
    assert len(G) == 8
    assert groups.identify_group(G) == "Q8"
    # breadth-first words in the generators: distinct, prefix-closed, no inverses
    assert words[0] == () and len(set(words)) == 8
    assert all(w[:-1] in words and min(w) > 0 for w in words[1:])


def test_reidemeister_schreier_index_two():
    # free group of rank 2 modulo nothing, subgroup of index 2 via parity
    # of b: use C4 = <a | a^4>, subgroup <a^2> of index 2
    relators = [(1, 1, 1, 1)]
    ct = oracles.todd_coxeter(1, relators, [(1, 1)])
    assert ct.index == 2
    subgens, subrels, transversal = oracles.reidemeister_schreier(1, relators, ct)
    # the subgroup C2 needs one generator
    G, _ = oracles.regular_representation(
        len(subgens), [r for r in subrels if r]
    )
    assert len(G) == 2


def test_element_order_and_profile():
    G = cyclic(6)
    assert G.element_order(1) == 6
    assert G.element_order(3) == 2
    assert G.order_profile()[6] == 2  # two generators of C6


def test_conjugacy_classes_s3():
    relators = [(1, 1, 1), (2, 2), (1, 2, 1, 2)]
    G, _ = oracles.regular_representation(2, relators)
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]
