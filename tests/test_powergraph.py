import random
from functools import cached_property

import pytest

from powergraphs.groups import (
    direct_product,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from powergraphs.bitsets import bits, iter_bits, mask_of
from powergraphs.connectivity import all_minimum_cutsets, minimum_cutset
from powergraphs.harness import corpus_groups, exceptional_groups
from powergraphs.powergraph import PowerGraph, Separation, build_power_graph
from powergraphs.suites import _sample_non_adjacent
from test_groups import CLOSED_GROUPS, naive_classes, naive_closure, walked_by_multiplication


def membership_groups():
    """Every group representation on the corpus up to 64, C1-C120, D6-D60,
    Q8-Q64 and Q8xC3, each once, as params; a name shared by two
    representations is qualified by its class after the first."""
    groups = [
        make_cyclic(8),
        make_cyclic(12),
        make_abelian([(2, 1), (2, 1)]),
        make_abelian([(2, 1), (2, 1), (3, 1)]),
        make_dihedral(10),
        make_generalized_quaternion(8),
        *corpus_groups(64),
        *(make_cyclic(n) for n in range(1, 121)),
        *(make_dihedral(n) for n in range(6, 61, 2)),
        *(make_generalized_quaternion(2**m) for m in range(3, 7)),
        direct_product(make_generalized_quaternion(8), make_cyclic(3)),
    ]
    kinds: dict[str, set[str]] = {}
    params = []
    for G in groups:
        seen = kinds.setdefault(G.name, set())
        kind = type(G).__name__
        if kind not in seen:
            params.append(pytest.param(G, id=f"{G.name}-{kind}" if seen else G.name))
            seen.add(kind)
    return params


MEMBERSHIP_GROUPS = membership_groups()


class RowGraph(PowerGraph):
    """A graph given by its rows (``adj[v]`` masks the neighbours of v),
    for tests that need graphs no group has. Its twin quotient is merged row
    by row, the reference for the poset quotient of a group's graph."""

    def __init__(self, vertex_count, adj):
        self.vertex_count = vertex_count
        self.adj = adj

    def __repr__(self):
        return f"RowGraph(vertex_count={self.vertex_count})"

    @cached_property
    def twin_quotient(self):
        # one class per closed neighbourhood, in first-vertex order, from one
        # pass over the rows (the engine tests count passes); two classes are
        # adjacent when one's neighbourhood holds the other's least vertex
        classes = {}  # closed neighbourhood -> the class's vertex mask
        for v, row in enumerate(self.adj):
            key = row | 1 << v
            classes[key] = classes.get(key, 0) | 1 << v
        least = [members & -members for members in classes.values()]
        q_adj = tuple(
            sum(1 << j for j, low in enumerate(least) if key & low and i != j)
            for i, key in enumerate(classes)
        )
        universal = next((i for i, key in enumerate(classes) if key == self.full_mask), None)
        return tuple(classes.values()), q_adj, universal


def adjacency_by_definition(closures, x, y):
    return x != y and (x in closures[y] or y in closures[x])


def twin_quotient_by_definition(graph):
    """(members, q_adj, universal) pair by pair: the classes of vertices with
    equal closed neighbourhoods, ordered by least vertex, two classes adjacent
    when their least vertices are, and the class adjacent to all others."""
    n = graph.vertex_count
    closed = [graph.neighbors(v) | {v} for v in range(n)]
    least = [v for v in range(n) if closed[v] not in closed[:v]]
    members = tuple(sum(1 << u for u in range(n) if closed[u] == closed[a]) for a in least)
    q_adj = tuple(sum(1 << j for j, b in enumerate(least) if graph.adjacent(a, b)) for a in least)
    universal = next((i for i, a in enumerate(least) if len(closed[a]) == n), None)
    return members, q_adj, universal


@pytest.mark.parametrize("G", MEMBERSHIP_GROUPS)
def test_adjacency_matches_membership_definition(G):
    graph = build_power_graph(G)
    closures = [set(naive_closure(G, g)) for g in range(G.size)]
    for x in range(G.size):
        assert not graph.adjacent(x, x)
        for y in range(G.size):
            assert graph.adjacent(x, y) == adjacency_by_definition(closures, x, y)
    assert graph.twin_quotient == twin_quotient_by_definition(graph)


def non_abelian_coprime_products():
    """Products with a coprime cut and a non-abelian part."""
    return [
        direct_product(make_dihedral(8), make_cyclic(15)),
        direct_product(make_generalized_quaternion(8), make_cyclic(105)),
        direct_product(make_cyclic(9), make_dihedral(20)),
    ]


def poset_oracle_groups():
    """The groups on which the poset quotient is checked against the rows:
    the corpus to 120, C1-C400, the dihedral and quaternion groups, and
    the non-abelian coprime products."""
    return [
        *corpus_groups(120),
        *(make_cyclic(n) for n in range(1, 401)),
        *exceptional_groups(),
        *non_abelian_coprime_products(),
    ]


def rows_by_definition(closures):
    """Row x is <x> together with every y with x in <y>, minus x: the
    closures ORed with their transpose, the y with one closure added at once."""
    sharing = {}  # closure -> the elements y with that closure
    for y, closure in enumerate(closures):
        sharing[closure] = sharing.get(closure, 0) | 1 << y
    rows = list(closures)
    for closure, ys in sharing.items():
        for x in bits(closure):
            rows[x] |= ys
    return tuple(row & ~(1 << x) for x, row in enumerate(rows))


def test_poset_quotient_matches_the_row_quotient():
    for G in poset_oracle_groups():
        graph = build_power_graph(G)
        closures = walked_by_multiplication(G).closure_masks
        reference = RowGraph(G.size, rows_by_definition(closures))
        assert graph.twin_quotient == reference.twin_quotient, G.name
        if G.size >= 2 and not reference.is_complete:
            assert minimum_cutset(graph) == minimum_cutset(reference), G.name
            assert all_minimum_cutsets(graph) == all_minimum_cutsets(reference), G.name
        assert "adj" not in vars(graph), G.name


@pytest.mark.parametrize("G", CLOSED_GROUPS)
def test_poset_quotient_matches_the_naive_rows_on_closed_groups(G):
    # the base walk, and a product with a table part, against rows from
    # closures walked by multiplication, merged row by row
    closures = [mask_of(naive_closure(G, g)) for g in range(G.size)]
    reference = RowGraph(G.size, rows_by_definition(closures))
    assert build_power_graph(G).twin_quotient == reference.twin_quotient


def test_cyclic_poset_matches_the_naive_closures():
    # one node per cyclic subgroup, by least generator, each element's
    # closure walked by multiplication; Z' is below Z iff it lies in Z
    for G in [*corpus_groups(64), *(make_cyclic(n) for n in range(1, 121)), *non_abelian_coprime_products()]:
        poset = G.cyclic_poset
        classes = naive_classes(G)
        assert poset.least_generators == tuple(map(min, classes.values())), G.name
        assert poset.generators == tuple(map(mask_of, classes.values())), G.name
        for i, sub in enumerate(classes):
            assert poset.down[i] == sum(1 << j for j, z in enumerate(classes) if z <= sub), G.name
            assert poset.up[i] == sum(1 << j for j, z in enumerate(classes) if sub <= z), G.name


def test_bits_lists_the_set_bits_in_order():
    rng = random.Random(7)
    masks = [0, 1, 2, 1 << 200, (1 << 1000) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(200)]
    masks += [sum(1 << v for v in rng.sample(range(100_000), 50)) for _ in range(20)]
    for m in masks:
        assert bits(m) == sorted(iter_bits(m))


def non_adjacent_pairs(graph):
    """Every non-adjacent pair (s, t), s < t, in lexicographic order."""
    n = graph.vertex_count
    return [(s, t) for s in range(n) for t in range(s + 1, n) if not graph.adjacent(s, t)]


class InOrder:
    """Stands in for a random.Random whose sample draws every position in order."""

    def sample(self, population, k):
        return list(population)[:k]


def test_non_adjacent_pairs_in_lexicographic_order():
    # drawing every position in order maps each position to its pair
    for G in (param.values[0] for param in MEMBERSHIP_GROUPS):
        graph = build_power_graph(G)
        expected = non_adjacent_pairs(graph)
        assert _sample_non_adjacent(graph, InOrder(), G.size**2) == expected, G.name


@pytest.mark.parametrize("suite, k", [("class-union", 10), ("menger", 12)])
def test_sampled_pairs_match_sampling_the_full_list(suite, k):
    for G in corpus_groups(40):
        graph = build_power_graph(G)
        pairs = non_adjacent_pairs(graph)
        seed = f"{suite}:{G.name}"
        expected = random.Random(seed).sample(pairs, min(k, len(pairs)))
        assert _sample_non_adjacent(graph, random.Random(seed), k) == expected, G.name


def test_cyclic_prime_power_graph_complete():
    graph = build_power_graph(make_cyclic(8))
    assert graph.is_complete


def test_klein_four_graph_is_star():
    graph = build_power_graph(make_abelian([(2, 1), (2, 1)]))
    assert graph.degree(0) == 3
    assert all(graph.neighbors(v) == {0} for v in range(1, 4))


def test_identity_and_generators_dominate_cyclic_6():
    graph = build_power_graph(make_cyclic(6))
    for v in (0, 1, 5):  # identity and both generators
        assert graph.degree(v) == 5


def test_identity_degree_always_full():
    for G in (make_dihedral(16), make_generalized_quaternion(32), make_cyclic(30)):
        graph = build_power_graph(G)
        assert graph.degree(0) == G.size - 1
        assert graph.is_connected()


def test_components_after_removal():
    graph = build_power_graph(make_cyclic(6))
    assert graph.components_after_removal([]) == [frozenset(range(6))]
    # removing all but one vertex leaves a singleton
    assert graph.components_after_removal([0, 1, 2, 3, 4]) == [frozenset({5})]
    with pytest.raises(ValueError):
        graph.components_after_removal([9])


def test_components_ordering_deterministic():
    graph = build_power_graph(make_dihedral(6))
    comps = graph.components_after_removal([0])
    assert comps == sorted(comps, key=min)
    assert len(comps) == 4  # rotations + three lone reflections


def test_is_cut_set_examples():
    d6 = build_power_graph(make_dihedral(6))
    assert d6.is_cut_set({0})
    c6 = build_power_graph(make_cyclic(6))
    assert not c6.is_cut_set(set())
    q8 = build_power_graph(make_generalized_quaternion(8))
    involution = next(
        g for g, o in enumerate(make_generalized_quaternion(8).element_orders) if o == 2
    )
    assert q8.is_cut_set({0, involution})


def test_is_cut_set_rejects_oversized_removal():
    graph = build_power_graph(make_cyclic(6))
    with pytest.raises(ValueError):
        graph.is_cut_set({0, 1, 2, 3, 4})


def test_is_minimal_cut_set():
    d6 = build_power_graph(make_dihedral(6))
    assert d6.is_minimal_cut_set({0})
    assert not d6.is_minimal_cut_set({0, 3})  # the reflection is removable
    with pytest.raises(ValueError):
        d6.is_minimal_cut_set({3})  # not a cut-set at all


def test_separation_of_nongenerators():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    graph = build_power_graph(G)
    # M = <x> of order 6 for an order-6 element x; nongenerators cut it off
    x = next(g for g, o in enumerate(G.element_orders) if o == 6)
    M = G.cyclic_subgroup(x).elements
    gens = G.generator_class(x)
    tilde = M - gens
    outside = frozenset(range(12)) - M
    assert graph.is_separation(tilde, Separation(outside, gens))


def test_example_separation_singleton_side():
    # removing {1, ax, ax^2} isolates a
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    graph = build_power_graph(G)
    a = G.encode((1, 0, 0))
    ax = G.encode((1, 0, 1))
    cut = frozenset({0} | G.generator_class(ax))
    rest = frozenset(range(12)) - cut - {a}
    assert graph.is_separation(cut, Separation(frozenset({a}), rest))


def test_separation_rejects_malformed():
    graph = build_power_graph(make_cyclic(6))
    with pytest.raises(ValueError):
        graph.is_separation({0}, Separation(frozenset(), frozenset({1, 2, 3, 4, 5})))
    with pytest.raises(ValueError):
        graph.is_separation({0}, Separation(frozenset({1}), frozenset({1, 2, 3, 4, 5})))


def test_proper_power_graph():
    def proper_connected(G):
        return len(build_power_graph(G).components_after_removal({0})) == 1

    assert proper_connected(make_generalized_quaternion(8))
    assert proper_connected(make_cyclic(8))
    assert not proper_connected(make_abelian([(2, 1), (2, 1)]))
    assert not proper_connected(make_dihedral(6))
