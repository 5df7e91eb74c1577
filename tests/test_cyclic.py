from collections import Counter

import pytest

from powergraphs.cyclic import (
    elements_of_dividing_order,
    elements_of_exact_order,
    external_overlap,
    gamma_set,
    min_order_maximal_cyclic,
    nongenerators,
    sylow_complement_product,
    sylow_product,
)
from powergraphs.groups import (
    UnsupportedStructureError,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
)
from powergraphs.harness import corpus_groups
from powergraphs.numtheory import divisors, euler_phi
from powergraphs.predictions import gamma_cardinality
from test_groups import naive_closure
from test_powergraph import MEMBERSHIP_GROUPS


NONCYCLIC_CORPUS = [G for G in corpus_groups(64) if not G.is_cyclic]


def brute_force_maximal(G):
    """Oracle: maximality checked pairwise over all cyclic closures, each
    walked by multiplication."""
    closures = {frozenset(naive_closure(G, g)) for g in range(G.size)}
    return {c for c in closures if not any(c < d for d in closures)}


@pytest.mark.parametrize("G", MEMBERSHIP_GROUPS)
def test_maximal_cyclic_against_oracle(G):
    got = {m.elements for m in G.maximal_cyclics}
    maximal = brute_force_maximal(G)
    assert got == maximal
    for m in G.maximal_cyclics:
        assert m.elements == G.cyclic_subgroup(m.generator).elements
        assert m.order == len(m.elements)
    # every element is covered
    covered = set().union(*got)
    assert covered == set(range(G.size))
    closures = [frozenset(naive_closure(G, g)) for g in range(G.size)]
    for g, c in enumerate(closures):
        sub = G.cyclic_subgroup(g)
        assert sub.elements == c and sub.order == len(c)
        assert sub.generator == min(h for h, d in enumerate(closures) if d == c)
        assert (sub in G.maximal_cyclics) == (c in maximal)


def test_cyclic_group_single_maximal():
    G = make_cyclic(12)
    subgroups = G.maximal_cyclics
    assert len(subgroups) == 1
    assert subgroups[0].elements == frozenset(range(12))


def test_klein_three_maximal_of_order_2():
    G = make_abelian([(2, 1), (2, 1)])
    assert sorted(m.order for m in G.maximal_cyclics) == [2, 2, 2]


def test_all_order_15_in_two_prime_square():
    G = make_abelian([(3, 1), (3, 1), (5, 1), (5, 1)])
    orders = {m.order for m in G.maximal_cyclics}
    assert orders == {15}


def test_quaternion_16_maximal_cyclic_counts():
    # enumeration: one subgroup of order 8, four of order 4
    G = make_generalized_quaternion(16)
    counts = Counter(m.order for m in G.maximal_cyclics)
    assert counts == {8: 1, 4: 4}


def test_cyclic_subgroup_flags():
    G = make_generalized_quaternion(8)
    involution = next(g for g, o in enumerate(G.element_orders) if o == 2)
    sub = G.cyclic_subgroup(involution)
    assert sub.order == 2 and sub not in G.maximal_cyclics
    assert sub.elements not in brute_force_maximal(G)


def test_nongenerators_sizes():
    G = make_cyclic(15)
    M = G.maximal_cyclics[0]
    tilde = nongenerators(G, M)
    assert len(tilde) == 15 - euler_phi(15) == 7
    Gp = make_cyclic(7)
    assert nongenerators(Gp, Gp.maximal_cyclics[0]) == {0}
    G6 = make_cyclic(6)
    assert len(nongenerators(G6, G6.maximal_cyclics[0])) == 4


def test_external_overlap_examples():
    klein = make_abelian([(2, 1), (2, 1)])
    assert external_overlap(klein) == ({0}, {0}, {0})

    both_noncyclic = make_abelian([(2, 1), (2, 1), (3, 1), (3, 1)])
    for m, bar in zip(both_noncyclic.maximal_cyclics, external_overlap(both_noncyclic)):
        assert bar == nongenerators(both_noncyclic, m)

    cyclic_sylow = make_abelian([(2, 1), (2, 1), (3, 1)])
    i, m6 = next((i, m) for i, m in enumerate(cyclic_sylow.maximal_cyclics) if m.order == 6)
    assert external_overlap(cyclic_sylow)[i] < nongenerators(cyclic_sylow, m6)

    # one set per maximal M, in maximal_cyclics order, each by definition:
    # the union over y outside M of <y> & M
    for G in NONCYCLIC_CORPUS:
        overlaps = external_overlap(G)
        assert len(overlaps) == len(G.maximal_cyclics), G.name
        closures = [set(naive_closure(G, y)) for y in range(G.size)]
        for m, bar in zip(G.maximal_cyclics, overlaps):
            expected = set()
            for y in range(G.size):
                if y not in m.elements:
                    expected |= closures[y] & m.elements
            assert bar == expected, (G.name, m.generator)


def test_external_overlap_rejects_cyclic_group():
    with pytest.raises(ValueError):
        external_overlap(make_cyclic(12))


def test_sylow_complement_product():
    G = make_abelian([(3, 1), (3, 1), (5, 1)])
    q = sylow_complement_product(G, 3)
    assert len(q) == 5
    assert all(G.element_order(g) in (1, 5) for g in q)

    G2 = make_abelian([(2, 1), (2, 1), (3, 1), (5, 1)])
    q2 = sylow_complement_product(G2, 2)
    assert len(q2) == 15

    G3 = make_cyclic(12)
    q3 = sylow_complement_product(G3, 3)
    assert len(q3) == 4

    with pytest.raises(ValueError):
        sylow_complement_product(G3, 7)


def test_sylow_product_is_subgroup():
    G = make_abelian([(2, 1), (3, 1), (3, 1), (5, 1)])
    s = sylow_product(G, (2, 5))
    assert len(s) == 10
    for a in s:
        for b in s:
            assert G.mul(a, b) in s


def test_exact_and_dividing_order_shells():
    G = make_cyclic(30)
    M = G.maximal_cyclics[0]
    assert elements_of_exact_order(G, M, 1) == {0}
    assert len(elements_of_exact_order(G, M, 30)) == euler_phi(30) == 8
    assert len(elements_of_exact_order(G, M, 5)) == 4
    assert len(elements_of_dividing_order(G, M, 15)) == 15
    assert elements_of_dividing_order(G, M, 1) == {0}
    # dividing-order set is the union of exact-order shells over divisors
    for d in divisors(30):
        union = set()
        for e in divisors(d):
            union |= elements_of_exact_order(G, M, e)
        assert union == elements_of_dividing_order(G, M, d)
    with pytest.raises(ValueError):
        elements_of_exact_order(G, M, 7)
    with pytest.raises(ValueError):
        elements_of_dividing_order(G, M, 4)


def test_gamma_set_small_instance():
    G = make_abelian([(2, 1), (2, 1), (3, 1), (5, 1)])
    M = min_order_maximal_cyclic(G)
    assert M.order == 30
    gamma = gamma_set(G, M)
    assert len(gamma) == gamma_cardinality(1, 3, 1, 5, 1) == 12
    shell = elements_of_exact_order(G, M, 6)
    assert not (gamma & shell)


def test_gamma_set_structure_errors():
    with pytest.raises(UnsupportedStructureError):
        G = make_abelian([(2, 1), (3, 1), (5, 1)])  # cyclic 2-Sylow
        gamma_set(G, min_order_maximal_cyclic(G))
    with pytest.raises(UnsupportedStructureError):
        G = make_abelian([(3, 1), (3, 1), (5, 1)])  # two primes only
        gamma_set(G, min_order_maximal_cyclic(G))
    G = make_abelian([(2, 1), (2, 2), (3, 1), (5, 1)])
    # <(0, 2, 1, 1)>, of order 30 = 2 * 3 * 5, lies in <(0, 1, 1, 1)> of order 60
    inner = G.cyclic_subgroup(G.encode((0, 2, 1, 1)))
    assert inner.order == 30
    with pytest.raises(UnsupportedStructureError, match="defined for maximal"):
        gamma_set(G, inner)


def test_min_order_maximal_cyclic():
    G = make_abelian([(3, 1), (3, 1), (5, 1), (5, 1)])
    assert min_order_maximal_cyclic(G).order == 15
    G2 = make_abelian([(2, 2), (2, 1), (3, 1), (5, 1)])
    assert min_order_maximal_cyclic(G2).order == 30
    G3 = make_cyclic(20)
    assert min_order_maximal_cyclic(G3).order == 20
