"""Property suites: structural invariants checked per group over a corpus.

Each suite is a callable taking a Group and its power graph, built once per
group by the caller and shared by every suite, and returning None when the
suite does not apply to that group, or (passed, detail) where detail
describes the first counterexample on failure. Suites are registered in
SUITES by id. Sylow facts come from the group's cached Sylow decomposition.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable

from .bitsets import iter_bits, mask_of
from .connectivity import (
    min_vertex_cut_between,
    minimalize_cutset,
    vertex_connectivity,
)
from .cyclic import (
    external_overlap,
    min_order_maximal_cyclic,
    nongenerators,
    sylow_complement_product,
    sylow_product,
)
from .groups import Group
from .numtheory import euler_phi, factorize, prime_power_base
from .powergraph import PowerGraph, Separation
from .predictions import kappa_cyclic_lower_bound

_CLASS_UNION_VERTEX_LIMIT = 40
_MENGER_PAIRS_PER_GROUP = 12

CheckResult = tuple[bool, str] | None
SuiteCheck = Callable[[Group, PowerGraph], CheckResult]

SUITES: dict[str, SuiteCheck] = {}


def _suite(suite_id: str) -> Callable[[SuiteCheck], SuiteCheck]:
    def register(fn: SuiteCheck) -> SuiteCheck:
        SUITES[suite_id] = fn
        return fn

    return register


def _sample_non_adjacent(graph: PowerGraph, rng: random.Random, k: int) -> list[tuple[int, int]]:
    """Up to k non-adjacent pairs (s, t), s < t, drawn by ``rng.sample`` from
    their lexicographic order with no list of them: the sample picks
    positions from the count alone, and position i is the (i - starts[s])-th
    t above s outside adj[s], s the row whose count run holds i."""
    full = graph.full_mask
    above = [(full & ~row) >> (s + 1) << (s + 1) for s, row in enumerate(graph.adj)]
    starts = list(accumulate((m.bit_count() for m in above), initial=0))
    pairs = []
    for i in rng.sample(range(starts[-1]), min(k, starts[-1])):
        s = bisect_right(starts, i) - 1
        m = above[s]
        for _ in range(i - starts[s]):
            m &= m - 1
        pairs.append((s, (m & -m).bit_length() - 1))
    return pairs


@_suite("graph-basics")
def check_graph_basics(group: Group, graph: PowerGraph) -> CheckResult:
    """Connectedness, universal identity, symmetry, completeness criterion."""
    if group.size < 2:
        return None
    n = graph.vertex_count
    if not graph.is_connected():
        return False, "power graph is disconnected"
    if graph.degree(0) != n - 1:
        return False, "identity is not adjacent to every other vertex"
    adj = graph.adj
    # transpose the rows' bit strings, last row first: into[u] masks the v with u in adj[v]
    columns = zip(*(f"{row:0{n}b}" for row in reversed(adj)))
    into = [int("".join(col), 2) for col in columns][::-1]
    for v, row in enumerate(adj):
        if (row >> v) & 1:
            return False, f"self-loop at {v}"
        one_way = row & ~into[v]
        if one_way:
            u = (one_way & -one_way).bit_length() - 1
            return False, f"asymmetric adjacency at ({min(u, v)}, {max(u, v)})"
    expect_complete = group.is_cyclic and prime_power_base(group.size) is not None
    if graph.is_complete != expect_complete:
        return False, (
            f"complete={graph.is_complete} but cyclic-prime-power={expect_complete}"
        )
    return True, ""


@_suite("mtilde-cutset")
def check_nongenerators_cut(group: Group, graph: PowerGraph) -> CheckResult:
    """Non-generators of every maximal cyclic subgroup cut the power graph,
    with (outside, generators) as a witnessing separation."""
    if group.is_cyclic:
        return None
    everything = frozenset(range(group.size))
    for m in group.maximal_cyclics:
        tilde = nongenerators(group, m)
        if len(tilde) != m.order - euler_phi(m.order):
            return False, f"{m.generator}: wrong non-generator count"
        if not graph.is_cut_set(tilde):
            return False, f"non-generators of <{m.generator}> are not a cut-set"
        sep = Separation(everything - m.elements, m.elements - tilde)
        if not graph.is_separation(tilde, sep):
            return False, f"(outside, generators) fails as a separation for <{m.generator}>"
    return True, ""


@_suite("mbar-cutset")
def check_external_overlap_cut(group: Group, graph: PowerGraph) -> CheckResult:
    """The external overlap of every maximal cyclic subgroup is a cut-set
    sitting inside the non-generators, which are a proper subset."""
    if group.is_cyclic:
        return None
    for m, bar in zip(group.maximal_cyclics, external_overlap(group)):
        tilde = nongenerators(group, m)
        if not (bar <= tilde and tilde < m.elements):
            return False, f"<{m.generator}>: overlap/non-generator inclusions fail"
        if not graph.is_cut_set(bar):
            return False, f"external overlap of <{m.generator}> is not a cut-set"
    return True, ""


@_suite("mbar-eq-mtilde")
def check_overlap_equals_nongenerators(group: Group, graph: PowerGraph) -> CheckResult:
    """For abelian groups: overlap equals the non-generators exactly when
    every Sylow subgroup is non-cyclic."""
    if group.is_cyclic or not group.is_abelian:
        return None
    dec = group.sylow_decomposition()
    expected = dec.noncyclic == dec.primes
    for m, bar in zip(group.maximal_cyclics, external_overlap(group)):
        equal = bar == nongenerators(group, m)
        if equal != expected:
            return False, (
                f"<{m.generator}>: overlap==nongenerators is {equal}, "
                f"all-Sylow-non-cyclic is {expected}"
            )
    return True, ""


@_suite("mtilde-minimal")
def check_nongenerators_minimal(group: Group, graph: PowerGraph) -> CheckResult:
    """For abelian groups with >= 2 prime divisors: the non-generator cut-set
    is minimal exactly when every Sylow subgroup is non-cyclic."""
    if group.is_cyclic or not group.is_abelian:
        return None
    dec = group.sylow_decomposition()
    if len(dec.primes) < 2:
        return None
    expected = dec.noncyclic == dec.primes
    for m in group.maximal_cyclics:
        tilde = nongenerators(group, m)
        if not graph.is_cut_set(tilde):
            return False, f"non-generators of <{m.generator}> are not a cut-set"
        minimal = graph.is_minimal_cut_set(tilde)
        if minimal != expected:
            return False, (
                f"<{m.generator}>: minimal={minimal}, all-Sylow-non-cyclic={expected}"
            )
    return True, ""


@_suite("mbar-minimal")
def check_overlap_minimal(group: Group, graph: PowerGraph) -> CheckResult:
    """For nilpotent groups with >= 2 non-cyclic Sylow subgroups: the overlap
    cut-set is minimal, the graph minus a maximal cyclic subgroup stays
    connected, and removing the non-generators leaves exactly two components."""
    if group.is_cyclic or not group.is_nilpotent:
        return None
    if len(group.sylow_decomposition().noncyclic) < 2:
        return None
    everything = frozenset(range(group.size))
    for m, bar in zip(group.maximal_cyclics, external_overlap(group)):
        comps = graph.components_after_removal(m.elements)
        if len(comps) != 1:
            return False, f"graph minus <{m.generator}> is disconnected"
        if not graph.is_minimal_cut_set(bar):
            return False, f"external overlap of <{m.generator}> is not minimal"
        tilde = nongenerators(group, m)
        two = graph.components_after_removal(tilde)
        want = {everything - m.elements, m.elements - tilde}
        if set(two) != want:
            return False, (
                f"removing non-generators of <{m.generator}> does not leave "
                "exactly (outside, generators)"
            )
    return True, ""


@_suite("size-compare")
def check_nongenerator_size_minimum(group: Group, graph: PowerGraph) -> CheckResult:
    """For nilpotent groups: a minimum-order maximal cyclic subgroup has the
    fewest non-generators."""
    if group.is_cyclic or not group.is_nilpotent:
        return None
    best = min_order_maximal_cyclic(group)
    floor = len(nongenerators(group, best))
    for m in group.maximal_cyclics:
        if len(nongenerators(group, m)) < floor:
            return False, f"<{m.generator}> has fewer non-generators than the minimum"
    return True, ""


@_suite("sylow-complement-minimal")
def check_sylow_complement_minimal(group: Group, graph: PowerGraph) -> CheckResult:
    """For nilpotent groups with >= 2 prime divisors: the product of all
    Sylow subgroups except a non-cyclic, non-quaternion one is a minimal
    cut-set."""
    if group.is_cyclic or not group.is_nilpotent:
        return None
    dec = group.sylow_decomposition()
    if len(dec.primes) < 2:
        return None
    checked = False
    for p in dec.noncyclic:
        if p == 2 and dec.quaternion:
            continue
        complement = sylow_complement_product(group, p)
        if not graph.is_cut_set(complement):
            return False, f"Sylow complement at {p} is not a cut-set"
        if not graph.is_minimal_cut_set(complement):
            return False, f"Sylow complement at {p} is not a minimal cut-set"
        checked = True
    if not checked:
        return None
    return True, ""


@_suite("cyclic-factorization")
def check_maximal_cyclic_product_form(group: Group, graph: PowerGraph) -> CheckResult:
    """For nilpotent groups: every maximal cyclic subgroup is the product of
    maximal cyclic subgroups of the Sylow subgroups."""
    if group.is_cyclic or not group.is_nilpotent:
        return None
    closures = group.closure_masks
    orders = group.element_orders
    sylows = [
        (p, mask_of(sylow_product(group, (p,))))
        for p in group.sylow_decomposition().primes
    ]
    for m in group.maximal_cyclics:
        total = 1
        for p, members in sylows:
            part = m.closure & members
            total *= part.bit_count()
            gen = max(iter_bits(part), key=orders.__getitem__)
            if closures[gen] != part:
                return False, f"<{m.generator}>: Sylow {p} part is not cyclic"
            # <gen> is the part, so a neighbour h of gen in the Sylow subgroup
            # but outside the part has gen in <h>, a larger cyclic p-subgroup
            if graph.adj[gen] & members & ~part:
                return False, (
                    f"<{m.generator}>: Sylow {p} part is not maximal in its Sylow subgroup"
                )
        if total != m.order:
            return False, f"<{m.generator}>: Sylow parts do not multiply to the order"
    return True, ""


@_suite("element-coverage")
def check_element_coverage(group: Group, graph: PowerGraph) -> CheckResult:
    """Every element lies in a maximal cyclic subgroup; with every Sylow
    subgroup non-cyclic (abelian case), elements generating a non-maximal
    subgroup lie in at least two."""
    maximal = group.maximal_cyclics
    for g in range(group.size):
        if not any(m.closure >> g & 1 for m in maximal):
            return False, f"element {g} lies in no maximal cyclic subgroup"
    if group.is_abelian and not group.is_cyclic:
        dec = group.sylow_decomposition()
        if dec.noncyclic == dec.primes:
            maximal_masks = {m.closure for m in maximal}
            for g in range(group.size):
                if group.closure_masks[g] in maximal_masks:
                    continue
                hits = sum(1 for m in maximal if m.closure >> g & 1)
                if hits < 2:
                    return False, f"non-maximal generator {g} lies in only {hits} subgroup"
    return True, ""


@_suite("witness-equivalence")
def check_witness_equivalence(group: Group, graph: PowerGraph) -> CheckResult:
    """For abelian groups: every non-generator of every maximal cyclic
    subgroup M lies in the closure of some element outside M exactly when
    all Sylow subgroups are non-cyclic. Read from the closures of the
    outside elements, so this checks ``external_overlap`` independently."""
    if group.is_cyclic or not group.is_abelian:
        return None
    dec = group.sylow_decomposition()
    expected = dec.noncyclic == dec.primes
    closures = group.closure_masks
    for m in group.maximal_cyclics:
        reached = 0
        for y in iter_bits(graph.full_mask & ~m.closure):
            reached |= closures[y]
        covered = not m.closure & ~m.generators & ~reached
        if covered != expected:
            return False, (
                f"<{m.generator}>: witness coverage {covered}, "
                f"all-Sylow-non-cyclic {expected}"
            )
    return True, ""


@_suite("proper-pgroup")
def check_proper_graph_p_group(group: Group, graph: PowerGraph) -> CheckResult:
    """For p-groups: the identity-deleted power graph is connected exactly
    for cyclic and generalized quaternion groups."""
    if group.size < 3 or prime_power_base(group.size) is None:
        return None
    expected = group.is_cyclic or group.sylow_decomposition().quaternion
    connected = len(graph.components_after_removal({0})) == 1
    if connected != expected:
        return False, f"proper graph connected={connected}, expected {expected}"
    return True, ""


@_suite("class-union")
def check_minimal_cutsets_are_class_unions(group: Group, graph: PowerGraph) -> CheckResult:
    """Minimal cut-sets found by pure graph search contain the identity and
    are unions of generator classes.

    Cut-sets come from greedily minimalizing vertex neighborhoods and the
    complements of sampled non-adjacent pairs. Neither the seeds nor
    ``minimalize_cutset`` use the class structure, so they check the
    class-quotient enumeration independently.
    """
    if group.size > _CLASS_UNION_VERTEX_LIMIT:
        return None
    if graph.is_complete:
        return None
    n = graph.vertex_count
    # removing N(v) isolates v, so it is a cut-set once some other vertex survives
    seeds = {nb for nb in map(graph.neighbors, range(n)) if len(nb) < n - 1}
    rng = random.Random(f"class-union:{group.name}")
    # removing all but s and t leaves the two apart
    seeds.update(frozenset(range(n)) - {s, t} for s, t in _sample_non_adjacent(graph, rng, 10))
    minimal_sets = {minimalize_cutset(graph, seed) for seed in seeds}
    for cut in sorted(minimal_sets, key=sorted):
        if not graph.is_minimal_cut_set(cut):
            return False, f"minimalization produced a non-minimal cut {sorted(cut)}"
        if 0 not in cut:
            return False, f"minimal cut-set {sorted(cut)} misses the identity"
        for w in cut:
            if not group.generator_class(w) <= cut:
                return False, (
                    f"minimal cut-set {sorted(cut)} splits the class of {w}"
                )
    return True, ""


@_suite("menger")
def check_menger_consistency(group: Group, graph: PowerGraph) -> CheckResult:
    """Sampled non-adjacent pairs: max disjoint paths = min cut size, the cut
    separates the pair, and the paths are internally disjoint."""
    if group.size < 2:
        return None
    if graph.is_complete:
        return None
    rng = random.Random(f"menger:{group.name}")
    for s, t in _sample_non_adjacent(graph, rng, _MENGER_PAIRS_PER_GROUP):
        cut, paths = min_vertex_cut_between(graph, s, t)
        if len(paths) != len(cut):
            return False, f"pair ({s},{t}): path count and cut size disagree"
        if s in cut or t in cut:
            return False, f"pair ({s},{t}): cut touches an endpoint"
        seen: set[int] = set()
        for path in paths:
            if path[0] != s or path[-1] != t:
                return False, f"pair ({s},{t}): path endpoints wrong"
            inner = set(path[1:-1])
            if inner & seen:
                return False, f"pair ({s},{t}): paths share an internal vertex"
            seen |= inner
            if any(not graph.adjacent(a, b) for a, b in zip(path, path[1:])):
                return False, f"pair ({s},{t}): path uses a non-edge"
        if graph._flood(graph.full_mask & ~mask_of(cut), s) >> t & 1:
            return False, f"pair ({s},{t}): removing the cut does not separate them"
    return True, ""


@_suite("cyclic-bound")
def check_cyclic_lower_bound(group: Group, graph: PowerGraph) -> CheckResult:
    """For cyclic groups: connectivity is at least phi(n)+1, with equality
    exactly for primes and products of two distinct primes."""
    if not group.is_cyclic or group.size < 2:
        return None
    if len(factorize(group.size)) == 1:
        return None  # complete graph; bound is about cut-sets
    bound, equality = kappa_cyclic_lower_bound(group.size)
    kappa = vertex_connectivity(graph)
    if kappa < bound:
        return False, f"kappa {kappa} below the bound {bound}"
    if (kappa == bound) != equality:
        return False, f"equality case wrong: kappa={kappa}, bound={bound}"
    return True, ""
