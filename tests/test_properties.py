"""Structural invariants over the group corpus, plus randomized properties."""

from functools import reduce
from itertools import product
from math import gcd, lcm
from operator import and_, or_
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from powergraphs import suites
from powergraphs.bitsets import bits, iter_bits, mask_of
from powergraphs.connectivity import vertex_connectivity
from powergraphs.cyclic import (
    external_overlap,
    min_order_maximal_cyclic,
    nongenerators,
    sylow_product,
)
from powergraphs.groups import (
    AbelianSpec,
    direct_product,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
)
from powergraphs.harness import corpus_groups, run_property_suite
from powergraphs.numtheory import euler_phi
from powergraphs.powergraph import build_power_graph
from powergraphs.suites import check_graph_basics
from test_powergraph import RowGraph

CORPUS = corpus_groups(60)
NILPOTENT_EXTRAS = [
    direct_product(make_generalized_quaternion(8), make_abelian([(3, 1), (3, 1)])),
    direct_product(make_generalized_quaternion(8), make_cyclic(9)),
]


small_factor = st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2))
small_spec = st.lists(small_factor, min_size=1, max_size=3).filter(
    lambda fs: AbelianSpec(tuple(fs)).order <= 64
)


@given(small_spec)
@settings(max_examples=60, deadline=None)
def test_abelian_spec_order_independent(factors):
    assert AbelianSpec(tuple(factors)) == AbelianSpec(tuple(reversed(factors)))


@given(small_spec)
@settings(max_examples=40, deadline=None)
def test_random_abelian_group_axioms(factors):
    G = make_abelian(factors)
    assert G.mul(0, 0) == 0
    # mixed radix, most significant factor first, against coordinate sums
    coords = list(product(*(range(g.size) for g in G.factors)))
    assert [G.encode(x) for x in coords] == list(range(G.size))
    for x in coords:
        for y in coords:
            assert G.mul(G.encode(x), G.encode(y)) == G.encode(tuple(map(sum, zip(x, y))))
        # the order of x is the lcm of its coordinates' orders
        order = lcm(*(f.size // gcd(a, f.size) for a, f in zip(x, G.factors)))
        assert G.element_order(G.encode(x)) == order
        assert len(G.generator_class(G.encode(x))) == euler_phi(order)
    classes = {G.generator_class(g) for g in range(G.size)}
    assert sum(map(len, classes)) == G.size


def _suite_over(suite_id, groups):
    summary = run_property_suite(suite_id, groups)
    failure = summary.first_failure()
    assert failure is None, f"{suite_id}: {failure.group_label}: {failure.detail}"
    return summary


def test_graph_basics_suite():
    _suite_over("graph-basics", CORPUS)


@pytest.mark.parametrize(
    "vertex, bit, detail",
    [
        (2, 2, "self-loop at 2"),
        (1, 2, "asymmetric adjacency at (1, 2)"),
        (2, 1, "asymmetric adjacency at (1, 2)"),
    ],
    ids=["self-loop", "one-way-up", "one-way-down"],
)
def test_graph_basics_rejects_broken_adjacency(vertex, bit, detail):
    # C2xC2: the three involutions are pairwise non-adjacent
    G = make_abelian([(2, 1), (2, 1)])
    rows = list(build_power_graph(G).adj)
    assert check_graph_basics(G, RowGraph(G.size, tuple(rows))) == (True, "")
    rows[vertex] |= 1 << bit
    assert check_graph_basics(G, RowGraph(G.size, tuple(rows))) == (False, detail)


def test_nongenerator_cutset_suite():
    _suite_over("mtilde-cutset", CORPUS)


def test_external_overlap_cutset_suite():
    _suite_over("mbar-cutset", CORPUS)


def test_overlap_equals_nongenerators_suite():
    _suite_over("mbar-eq-mtilde", CORPUS)


def test_nongenerators_minimal_suite():
    _suite_over("mtilde-minimal", CORPUS)


def test_overlap_minimal_suite():
    summary = _suite_over("mbar-minimal", list(CORPUS) + NILPOTENT_EXTRAS)
    ran = [r for r in summary.results if r.status == "pass"]
    assert any(r.group_label.startswith("Q8x") for r in ran)


def test_size_compare_suite():
    summary = _suite_over("size-compare", list(CORPUS) + NILPOTENT_EXTRAS)
    assert sum(1 for r in summary.results if r.status == "pass") >= 20


def test_sylow_complement_minimal_suite():
    _suite_over("sylow-complement-minimal", list(CORPUS) + NILPOTENT_EXTRAS)


def test_cyclic_factorization_suite():
    _suite_over("cyclic-factorization", list(CORPUS) + NILPOTENT_EXTRAS)


def test_cyclic_factorization_rejects_bad_parts():
    # no nilpotent group breaks the theorem, so the maximal subgroups are
    # swapped out: every cyclic subgroup of C2xC4, and the Klein four group
    # of C2xC2xC3
    G = make_abelian([(2, 1), (2, 2)])
    graph = build_power_graph(G)
    vars(G)["maximal_cyclics"] = tuple(map(G.cyclic_subgroup, G.cyclic_poset.least_generators))
    assert suites.check_maximal_cyclic_product_form(G, graph) == (
        False,
        "<0>: Sylow 2 part is not maximal in its Sylow subgroup",
    )
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    klein = SimpleNamespace(closure=mask_of(sylow_product(G, (2,))), generator=0, order=4)
    vars(G)["maximal_cyclics"] = (klein,)
    assert suites.check_maximal_cyclic_product_form(G, build_power_graph(G)) == (
        False,
        "<0>: Sylow 2 part is not cyclic",
    )


def test_element_coverage_suite():
    _suite_over("element-coverage", CORPUS)


def test_witness_equivalence_suite():
    _suite_over("witness-equivalence", CORPUS)


def test_proper_pgroup_suite():
    summary = _suite_over("proper-pgroup", CORPUS)
    ran = [r for r in summary.results if r.status == "pass"]
    assert len(ran) >= 15  # plenty of p-groups of order <= 60 in the corpus


def test_class_union_suite():
    _suite_over("class-union", CORPUS)


def test_menger_suite():
    _suite_over("menger", CORPUS)


def test_menger_rejects_a_cut_that_does_not_separate(monkeypatch):
    # one path and its cut vertex are dropped, so the counts still agree and
    # the paths are still disjoint, but the dropped path joins s to t
    real = suites.min_vertex_cut_between
    pairs = []

    def short_cut(graph, s, t):
        cut, paths = real(graph, s, t)
        pairs.append((s, t))
        last = paths.pop()
        return cut - set(last), paths

    monkeypatch.setattr(suites, "min_vertex_cut_between", short_cut)
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    verdict = suites.check_menger_consistency(G, build_power_graph(G))
    s, t = pairs[0]
    assert verdict == (False, f"pair ({s},{t}): removing the cut does not separate them")


def test_cyclic_bound_suite():
    _suite_over("cyclic-bound", [make_cyclic(n) for n in range(2, 121)])


def test_nongenerator_floor_explicit():
    # the non-generator count of a minimum-order maximal cyclic subgroup is a
    # floor across all maximal cyclic subgroups
    for G in NILPOTENT_EXTRAS:
        best = min_order_maximal_cyclic(G)
        floor = len(nongenerators(G, best))
        for m in G.maximal_cyclics:
            assert len(nongenerators(G, m)) >= floor


def test_overlap_within_nongenerators_everywhere():
    for G in CORPUS:
        if G.is_cyclic:
            continue
        for m, bar in zip(G.maximal_cyclics, external_overlap(G)):
            tilde = nongenerators(G, m)
            assert bar <= tilde < m.elements


def test_cyclic_two_prime_cut_exceeds_nongenerators():
    # for cyclic groups on two odd primes, every cut-set is strictly larger
    # than the non-generator set; kappa gives the bound over all cut-sets
    for n in (45, 75, 225):
        G = make_cyclic(n)
        kappa = vertex_connectivity(build_power_graph(G))
        assert kappa > n - euler_phi(n)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_quaternion_two_cut(order):
    G = make_generalized_quaternion(order)
    graph = build_power_graph(G)
    assert vertex_connectivity(graph) == 2
    involution = next(g for g, o in enumerate(G.element_orders) if o == 2)
    assert graph.is_cut_set({0, involution})


@st.composite
def masks_of_any_density(draw):
    """A random mask of up to 3000 binary digits, each set with chance
    2**-k (k random masks met) or 1 - 2**-k (k joined), k from 1 to 10."""
    length = draw(st.integers(0, 3000))
    rng = Random(draw(st.integers(0, 2**64)))
    masks = [rng.getrandbits(length) for _ in range(draw(st.integers(1, 10)))]
    return reduce(and_ if draw(st.booleans()) else or_, masks)


# bits lists a mask with a set bit in every 5 binary digits or more in one
# pass and searches a sparser one: these 20 set bits in 100 digits sit on the
# cut, and the 19 left without bit 0 fall below it
AT_THE_CUT = sum(1 << 5 * i for i in range(19)) | 1 << 99


@given(masks_of_any_density())
@example(0)
@example(1)
@example(1 << 5000)
@example(1 << 5000 | 1)
@example((1 << 4000) - 1)
@example(AT_THE_CUT)
@example(AT_THE_CUT & ~1)
@example(AT_THE_CUT | 2)
@settings(max_examples=200, deadline=None)
def test_bits_matches_iter_bits(mask):
    assert bits(mask) == list(iter_bits(mask))
    assert mask_of(bits(mask)) == mask
    # mask_of takes the vertices in any order, repeats included
    vertices = bits(mask) * 2
    Random(mask).shuffle(vertices)
    assert mask_of(vertices) == reduce(or_, (1 << v for v in vertices), 0)
