"""The cut-set enumeration against F, an oracle read off the poset of
cyclic subgroups with no flow.

For a node set A of the poset, N(A) is the set of generators of the
subgroups comparable to some member of A and not in it. F holds the sets
N(A) that leave some vertex outside A and N(A), where A is an interval
[X, Y] with 1 < X <= Y or a principal up-set of some X > 1. As node masks,
the union of the up-sets over [X, Y] is up[X] and of the down-sets down[Y],
so N([X, Y]) = (up[X] | down[Y]) & ~(up[X] & down[Y]), and N(up-set of X)
is the OR of down[Z] over Z >= X, less up[X]. A set weighs its vertices,
the generators of its nodes. Every member of F is a separator; the claim pinned here is that kappa is F's least weight and the
minimum cut-sets are exactly F's members of that weight.
"""

import pytest

from powergraphs.bitsets import bits, iter_bits
from powergraphs.connectivity import all_minimum_cutsets
from powergraphs.groups import (
    direct_product,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from powergraphs.harness import corpus_groups
from powergraphs.powergraph import build_power_graph
from test_groups import CLOSED_GROUPS


def poset_minimum_cutsets(group, *, upsets=True, intervals=True):
    """(kappa, the minimum cut-sets sorted by ``sorted``) from F, or from
    one of its two shapes; no member gives (order - 1, []), as a complete
    power graph has no cut-set."""
    poset = group.cyclic_poset
    up, down = poset.up, poset.down
    everything = (1 << len(up)) - 1
    weight = [mask.bit_count() for mask in poset.generators]
    candidates = set()
    for x, least in enumerate(poset.least_generators):
        if not least:  # the identity
            continue
        reach = 0
        for z in iter_bits(up[x]):
            reach |= down[z]
        if upsets and reach != everything:
            candidates.add(reach & ~up[x])
        for y in iter_bits(up[x]):
            if intervals and up[x] | down[y] != everything:
                candidates.add((up[x] | down[y]) & ~(up[x] & down[y]))
    if not candidates:
        return group.size - 1, []
    weighed = {c: sum(weight[i] for i in iter_bits(c)) for c in candidates}
    kappa = min(weighed.values())
    sets = (
        frozenset(bits(sum(poset.generators[i] for i in iter_bits(c))))
        for c, w in weighed.items()
        if w == kappa
    )
    return kappa, sorted(sets, key=sorted)


def assert_poset_oracle_agrees(group):
    assert poset_minimum_cutsets(group) == all_minimum_cutsets(build_power_graph(group)), group.name


def test_poset_oracle_matches_the_enumeration_on_the_corpus():
    for G in [*corpus_groups(200), *(make_cyclic(n) for n in range(2, 401))]:
        assert_poset_oracle_agrees(G)


@pytest.mark.parametrize("G", CLOSED_GROUPS)
def test_poset_oracle_matches_the_enumeration_on_closed_groups(G):
    assert_poset_oracle_agrees(G)


D, Q, C = make_dihedral, make_generalized_quaternion, make_cyclic
PRODUCTS = {
    "D8xC15": lambda: direct_product(D(8), C(15)),
    "Q8xC105": lambda: direct_product(Q(8), C(105)),
    "D8xD8": lambda: direct_product(D(8), D(8)),
    "Q8xQ8": lambda: direct_product(Q(8), Q(8)),
    "D24xC35": lambda: direct_product(D(24), C(35)),
    "Q32xC9": lambda: direct_product(Q(32), C(9)),
    "C2^6xC3^2": lambda: make_abelian([(2, 1)] * 6 + [(3, 1)] * 2),
}


@pytest.mark.parametrize("name", PRODUCTS)
def test_poset_oracle_matches_the_enumeration_on_products(name):
    assert_poset_oracle_agrees(PRODUCTS[name]())


def test_poset_oracle_needs_both_shapes():
    # C2xC3 (that is, C6) has kappa 3, the identity and the two generators,
    # yet no up-set leaves a vertex outside; on C4xC4, which has kappa 1,
    # the intervals alone find nothing lighter than 2
    for spec, shape, kappa, alone in [
        ([(2, 1), (3, 1)], "intervals", 3, 5),
        ([(2, 2), (2, 2)], "upsets", 1, 2),
    ]:
        G = make_abelian(spec)
        assert all_minimum_cutsets(build_power_graph(G))[0] == poset_minimum_cutsets(G)[0] == kappa
        assert poset_minimum_cutsets(G, **{shape: False})[0] == alone, G.name
