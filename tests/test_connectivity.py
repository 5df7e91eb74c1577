import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from powergraphs import cli, connectivity, powergraph
from powergraphs.bitsets import iter_bits
from powergraphs.cli import parse_group_spec
from powergraphs.connectivity import (
    ResourceLimitError,
    all_minimum_cutsets,
    min_vertex_cut_between,
    minimalize_cutset,
    minimum_cutset,
    vertex_connectivity,
)
from powergraphs.cyclic import (
    gamma_set,
    min_order_maximal_cyclic,
    nongenerators,
    sylow_complement_product,
)
from powergraphs.groups import (
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from powergraphs.powergraph import PowerGraph, Separation, build_power_graph
from test_powergraph import RowGraph, twin_quotient_by_definition


def test_complete_graph_connectivity():
    graph = build_power_graph(make_cyclic(8))
    assert vertex_connectivity(graph) == 7
    with pytest.raises(ValueError):
        minimum_cutset(graph)


def test_quaternion_connectivity():
    graph = build_power_graph(make_generalized_quaternion(8))
    assert vertex_connectivity(graph) == 2


def test_cyclic_12_connectivity():
    graph = build_power_graph(make_cyclic(12))
    assert vertex_connectivity(graph) == 6


def test_minimum_cutset_report():
    graph = build_power_graph(make_cyclic(12))
    cut = minimum_cutset(graph)
    assert isinstance(cut, frozenset)
    assert len(cut) == 6 == vertex_connectivity(graph)
    assert graph.is_minimal_cut_set(cut)
    comps = graph.components_after_removal(cut)
    assert graph.is_separation(cut, Separation(comps[0], frozenset().union(*comps[1:])))


def test_connectivity_rejects_tiny_graphs():
    graph = build_power_graph(make_cyclic(1))
    with pytest.raises(ValueError):
        vertex_connectivity(graph)


def test_min_cut_between_star_center():
    graph = build_power_graph(make_abelian([(2, 1), (2, 1)]))
    cut, paths = min_vertex_cut_between(graph, 1, 2)
    assert cut == {0}
    assert paths == [[1, 0, 2]]


def test_min_cut_between_quaternion_involution_free_pair():
    Q8 = make_generalized_quaternion(8)
    graph = build_power_graph(Q8)
    # two order-4 elements generating different subgroups
    a, b = 1, 4
    assert Q8.cyclic_subgroup(a).elements != Q8.cyclic_subgroup(b).elements
    cut, paths = min_vertex_cut_between(graph, a, b)
    assert len(cut) == len(paths) == 2


def test_min_cut_between_consistency():
    graph = build_power_graph(make_cyclic(20))
    cut, _ = min_vertex_cut_between(graph, 2, 5)
    comps = graph.components_after_removal(cut)
    side_with_2 = next(c for c in comps if 2 in c)
    assert 5 not in side_with_2


def test_min_cut_between_rejects_adjacent():
    graph = build_power_graph(make_cyclic(12))
    with pytest.raises(ValueError):
        min_vertex_cut_between(graph, 0, 1)
    with pytest.raises(ValueError):
        min_vertex_cut_between(graph, 3, 3)


def test_max_disjoint_paths_rejects_bad_endpoints():
    graph = build_power_graph(make_abelian([(2, 1), (2, 1), (3, 1)]))
    for s, t in ((1, 1), (-1, 1), (1, graph.vertex_count), (0, 1)):
        with pytest.raises(ValueError):
            min_vertex_cut_between(graph, s, t)


@pytest.mark.parametrize(
    "spec,cut",
    [
        ("cyclic:30", [0, 1, 7, 10, 11, 13, 15, 17, 19, 20, 23, 29]),
        ("abelian:2,2,3", [0, 4, 5]),
        ("quaternion:16", [0, 4]),
        ("dihedral:12", [0]),
        ("abelian:2,2,3,3", [0, 9, 18, 27]),
    ],
)
def test_minimum_cutset_pinned(spec, cut):
    # the minimum cut closest to the source of the first improving pair is
    # unique, so the reported cut is fixed by the pair order
    graph = build_power_graph(parse_group_spec(spec))
    assert sorted(minimum_cutset(graph)) == cut
    assert vertex_connectivity(graph) == len(cut)


@pytest.mark.parametrize(
    "spec,most",
    [
        ("abelian:2,2,2,2,2,5", 0),
        ("abelian:2,2,2,3,5", 14),
        ("dihedral:100", 0),
        ("quaternion:64", 1),
    ],
)
def test_kappa_flow_count(monkeypatch, spec, most):
    # flows run only from the heaviest classes, none once the cut is the
    # universal class, and none for a pair whose common neighbours weigh the
    # best cut; every non-adjacent pair would be 1891 on C2^5xC5
    graph = build_power_graph(parse_group_spec(spec))
    flows = []
    real = connectivity._max_flow

    def counting(*args, **kwargs):
        flows.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_max_flow", counting)
    vertex_connectivity(graph)
    assert len(flows) <= most


@pytest.mark.parametrize(
    "spec,most,nodes",
    [
        ("abelian:2,2,2,2,2,5", 0, 61),
        ("abelian:2,2,2,3,5", 14, 26),
        ("abelian:2,2,2,3,7", 14, 26),
        ("abelian:2,2,2,2,2,2,3,3", 69, 320),
    ],
)
def test_enumeration_flow_count(monkeypatch, spec, most, nodes):
    # one sweep finds kappa and every minimum cut-set: each is listed at its
    # first pair, and the universal class and the pair's common neighbours
    # start in the cut; a search node whose forced classes already weigh the
    # best so far floods instead of running a flow, and every node counts
    # against the cap. The unreduced pairs take 303 and 97 flows on the
    # first two
    graph = build_power_graph(parse_group_spec(spec))
    kappa = vertex_connectivity(graph)
    flows = []
    real = connectivity._max_flow

    def counting(*args, **kwargs):
        flows.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_max_flow", counting)
    full = all_minimum_cutsets(graph)
    assert full[0] == kappa
    assert len(flows) <= most
    assert all_minimum_cutsets(graph, max_combinations=nodes) == full
    with pytest.raises(ResourceLimitError):
        all_minimum_cutsets(graph, max_combinations=nodes - 1)


def test_enumeration_root_of_weight_kappa_that_joins_its_pair_lists_nothing(monkeypatch):
    # C4xC4 has kappa 1 and least degree 3, where the search starts: a root
    # that weighs 3 is settled by one flood. Each such root parts its pair
    # in the graph, but not always once the source is joined to its
    # finished targets; a pair it does not part then lists nothing
    graph = build_power_graph(make_abelian([(2, 2), (2, 2)]))
    least = min(len(graph.neighbors(v)) for v in range(graph.vertex_count))
    assert (vertex_connectivity(graph), least) == (1, 3)
    members, q_adj, u = graph.twin_quotient
    weight = [m.bit_count() for m in members]

    def parts(adj, root, s, t):
        seen, todo = {s}, [s]
        while todo:
            reached = set(iter_bits(adj[todo.pop()] & ~root)) - seen
            seen |= reached
            todo += reached
        return t not in seen

    joined = []
    for s, t, adj, into, forced in connectivity._menger_pairs(q_adj, weight, u):
        # the sweep carries the weight of its forced classes
        assert forced == sum(weight[c] for c in iter_bits(into))
        if forced > least:
            break
        root = into | adj[s] & adj[t]
        if sum(weight[c] for c in iter_bits(root)) != least:
            continue
        assert parts(q_adj, root, s, t)
        if not parts(adj, root, s, t):
            joined.append((s, t, list(adj), into, forced))
    assert joined
    for pair in joined:
        monkeypatch.setattr(connectivity, "_menger_pairs", lambda *args: iter([pair]))
        assert all_minimum_cutsets(graph) == (least, [])
    monkeypatch.undo()
    full = all_minimum_cutsets(graph)
    assert full == (1, unreduced_all_minimum_cutsets(graph, 1)) == (1, [frozenset({0})])


def test_minimum_cutset_is_listed_by_the_enumeration():
    from powergraphs.harness import corpus_groups

    groups = list(corpus_groups(64)) + [make_cyclic(n) for n in range(2, 121)]
    for G in groups:
        graph = build_power_graph(G)
        if graph.is_complete:
            continue
        cut = minimum_cutset(graph)
        kappa, sets = all_minimum_cutsets(graph)
        assert kappa == vertex_connectivity(graph) == len(cut) and cut in sets, G.name


def unreduced_pairs(q_adj, weight, universal, bound):
    """Oracle: the Menger pairs with no class forced into the cut and no
    target joined to its source. Every separator of weight at most bound
    misses one of the heaviest non-universal classes whose weight exceeds
    bound - |U|, and parts it from a class it is not adjacent to."""
    rest = bound - (0 if universal is None else weight[universal])
    everything = (1 << len(q_adj)) - 1
    covered = done = 0
    for s in sorted(range(len(q_adj)), key=lambda c: (-weight[c], c)):
        if covered > rest:
            return
        if s != universal:
            covered += weight[s]
            done |= 1 << s
            for t in iter_bits(everything & ~(q_adj[s] | done)):
                yield s, t


def unreduced_minimum_cut(graph):
    """Oracle: the reported minimum cut from the unreduced pairs, each flow
    stopping at the best cut so far; None for a complete graph."""
    members, q_adj, u = graph.twin_quotient
    if len(members) == 1:
        return None
    weight = [m.bit_count() for m in members]

    def vertices(classes):
        return sum(members[c] for c in iter_bits(classes))

    closed = [vertices(q_adj[i] | 1 << i) for i in range(len(members))]
    first = min(range(len(members)), key=lambda i: closed[i].bit_count())
    best = closed[first].bit_count() - 1
    best_cut = closed[first] & ~(members[first] & -members[first])
    for s, t in unreduced_pairs(q_adj, weight, u, best):
        if best == (0 if u is None else weight[u]):
            break
        flow, cut, _ = connectivity._max_flow(q_adj, weight, s, t, limit=best)
        if cut is not None:
            best, best_cut = flow, vertices(cut)
    return frozenset(iter_bits(best_cut))


def unreduced_all_minimum_cutsets(graph, kappa):
    """Oracle: every minimum cut of every unreduced pair, listed by Lawler
    partition from an empty root."""
    if graph.is_complete:
        return []
    members, q_adj, u = graph.twin_quotient
    weight = [m.bit_count() for m in members]
    blocked = sum(weight) + 1
    found = set()
    for s, t in unreduced_pairs(q_adj, weight, u, kappa):
        stack = [(0, 0)]
        while stack:
            into, out = stack.pop()
            w = [0 if into >> c & 1 else blocked if out >> c & 1 else m for c, m in enumerate(weight)]
            need = kappa - sum(weight[c] for c in iter_bits(into))
            flow, cut, _ = connectivity._max_flow(q_adj, w, s, t, limit=need + 1)
            if cut is None:
                continue
            if flow < need:
                raise ValueError(f"kappa {kappa} exceeds the vertex connectivity")
            found.add(cut | into)
            for c in iter_bits(cut & ~into):
                stack.append((into, out | 1 << c))
                into |= 1 << c
    sets = (frozenset(iter_bits(sum(members[c] for c in iter_bits(m)))) for m in found)
    return sorted(sets, key=sorted)


def assert_sweep_matches_unreduced_rule(graph):
    cut = unreduced_minimum_cut(graph)
    if cut is None:
        assert graph.is_complete and vertex_connectivity(graph) == graph.vertex_count - 1
        assert all_minimum_cutsets(graph) == (graph.vertex_count - 1, [])
        return
    assert minimum_cutset(graph) == cut
    kappa = len(cut)
    assert all_minimum_cutsets(graph) == (kappa, unreduced_all_minimum_cutsets(graph, kappa))
    # nothing lighter is a cut
    assert unreduced_all_minimum_cutsets(graph, kappa - 1) == []


def test_sweep_matches_unreduced_rule_on_groups():
    from powergraphs.harness import corpus_groups

    groups = list(corpus_groups(64)) + [make_cyclic(n) for n in range(2, 201)]
    for G in groups:
        assert_sweep_matches_unreduced_rule(build_power_graph(G))


def test_max_disjoint_paths_match_cut():
    graph = build_power_graph(make_cyclic(18))
    for s, t in ((2, 3), (6, 9), (2, 9)):
        if graph.adjacent(s, t):
            continue
        cut, paths = min_vertex_cut_between(graph, s, t)
        assert len(paths) == len(cut)
        inner_seen = set()
        for path in paths:
            assert path[0] == s and path[-1] == t
            for a, b in zip(path, path[1:]):
                assert graph.adjacent(a, b)
            inner = set(path[1:-1])
            assert not (inner & inner_seen)
            inner_seen |= inner


def test_all_minimum_cutsets_example_group():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    graph = build_power_graph(G)
    kappa, sets = all_minimum_cutsets(graph)
    assert kappa == vertex_connectivity(graph) == 3
    x = G.encode((0, 0, 1))
    expected = {G.cyclic_subgroup(x).elements}
    for v in (G.encode((1, 0, 0)), G.encode((0, 1, 0)), G.encode((1, 1, 0))):
        vx = G.mul(v, x)
        expected.add(frozenset({0} | G.generator_class(vx)))
    assert set(sets) == expected


@pytest.mark.parametrize("n,count", [(12, 1), (18, 2), (15, 1)])
def test_all_minimum_cutsets_counts_cyclic(n, count):
    G = make_cyclic(n)
    graph = build_power_graph(G)
    kappa, sets = all_minimum_cutsets(graph)
    assert kappa == vertex_connectivity(graph)
    assert len(sets) == count
    for s in sets:
        assert len(s) == kappa and 0 in s
        assert graph.is_cut_set(s)


def test_all_minimum_cutsets_dihedral_identity_only():
    G = make_dihedral(6)
    graph = build_power_graph(G)
    assert all_minimum_cutsets(graph) == (vertex_connectivity(graph), [frozenset({0})])


def test_all_minimum_cutsets_quaternion():
    G = make_generalized_quaternion(8)
    graph = build_power_graph(G)
    involution = next(g for g, o in enumerate(G.element_orders) if o == 2)
    kappa, sets = all_minimum_cutsets(graph)
    assert kappa == vertex_connectivity(graph) == 2
    assert sets == [frozenset({0, involution})]


def all_minimum_cutsets_by_subsets(graph, kappa):
    """Oracle: every size-kappa cut-set, by scanning all vertex subsets."""
    n = graph.vertex_count
    found = []
    for removed in combinations(range(n), kappa):
        if n - kappa >= 2 and len(graph.components_after_removal(removed)) >= 2:
            found.append(frozenset(removed))
    return sorted(found, key=sorted)


@pytest.mark.parametrize(
    "G",
    [
        make_cyclic(12),
        make_cyclic(15),
        make_cyclic(18),
        make_abelian([(2, 1), (2, 1), (3, 1)]),
        make_abelian([(2, 1), (2, 1)]),
        make_generalized_quaternion(16),
        make_dihedral(12),
        # many small twin classes, so many class unions of the size kappa
        make_abelian([(2, 1), (2, 1), (2, 1), (3, 1)]),
        make_abelian([(2, 1), (2, 1), (2, 1), (2, 1), (3, 1)]),
        make_abelian([(2, 1), (2, 1), (3, 1), (3, 1)]),
    ],
    ids=lambda g: g.name,
)
def test_class_union_enumeration_matches_subset_oracle(G):
    graph = build_power_graph(G)
    kappa = vertex_connectivity(graph)
    assert all_minimum_cutsets(graph) == (kappa, all_minimum_cutsets_by_subsets(graph, kappa))


class CountingRows(tuple):
    """Adjacency rows that count whole passes and single-row lookups."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_engine_reads_adjacency_once_through_the_cached_quotient():
    plain = build_power_graph(make_abelian([(2, 1), (2, 1), (3, 1), (5, 1)]))
    rows = CountingRows(plain.adj)
    rows.passes = rows.lookups = 0
    graph = RowGraph(plain.vertex_count, rows)
    kappa = vertex_connectivity(graph)
    quotient = graph.twin_quotient
    full = all_minimum_cutsets(graph)
    cut = minimum_cutset(graph)
    assert graph.twin_quotient is quotient
    assert (rows.passes, rows.lookups) == (1, 0)
    assert kappa == vertex_connectivity(plain) == len(cut)
    assert full == all_minimum_cutsets(plain) and full[0] == kappa and cut in full[1]


def count_calls(monkeypatch, name: str) -> list:
    """Log each group that ``powergraph.<name>`` is called on, from now on."""
    called = []
    real = getattr(powergraph, name)

    def logged(group):
        called.append(group)
        return real(group)

    monkeypatch.setattr(powergraph, name, logged)
    return called


NO_ROW_COMMANDS = [
    ("kappa", "--group", "abelian:2,2,3,5", "--json"),
    ("cutsets", "--group", "abelian:2,2,3,5", "--all", "--json"),
    ("kappa", "--group", "cyclic:8", "--json"),
    ("cutsets", "--group", "cyclic:8", "--all", "--json"),
    ("kappa", "--group", "dihedral:12", "--json"),
    ("cutsets", "--group", "dihedral:12", "--all", "--json"),
    ("cutsets", "--group", "dihedral:12", "--json"),
    *(
        ("verify", "--theorem", theorem, "--group", spec, "--json")
        for spec in ("abelian:2,2,3,5", "cyclic:8", "dihedral:12")
        for theorem in ("thm11", "thm12", "thm13", "thm14")
    ),
    # forecasts that claim cut-sets, so verify enumerates them
    ("verify", "--theorem", "thm13", "--group", "abelian:2,2,3", "--json"),
    ("verify", "--theorem", "thm11", "--group", "cyclic:12", "--json"),
]


@pytest.mark.parametrize("argv", NO_ROW_COMMANDS)
def test_cli_builds_no_adjacency_rows(monkeypatch, capsys, argv):
    # the engines read the twin quotient off the poset of cyclic subgroups
    assert cli.main(list(argv)) == 0
    plain_out = capsys.readouterr().out
    built = count_calls(monkeypatch, "_rows")
    merged = count_calls(monkeypatch, "poset_twin_quotient")
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == plain_out
    assert built == [] and len(merged) == 1


def test_group_graph_prints_and_compares_without_rows(monkeypatch):
    built = count_calls(monkeypatch, "_rows")
    graph = build_power_graph(parse_group_spec("dihedral:12"))
    assert repr(graph) == "PowerGraph(DihedralLikeGroup('D12', size=12))"
    assert graph == graph and graph != build_power_graph(parse_group_spec("dihedral:12"))
    assert len({graph}) == 1 and built == []


def test_export_dot_builds_the_rows_once(monkeypatch, capsys):
    built = count_calls(monkeypatch, "_rows")
    assert cli.main(["export-dot", "--group", "dihedral:12"]) == 0
    assert "  0 -- 1;" in capsys.readouterr().out
    assert [G.name for G in built] == ["D12"]


def test_all_minimum_cutsets_resource_limit():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    graph = build_power_graph(G)
    with pytest.raises(ResourceLimitError) as info:
        all_minimum_cutsets(graph, max_combinations=3)
    assert isinstance(info.value.partial, tuple)


def test_all_minimum_cutsets_partial_is_a_sorted_subset():
    graph = build_power_graph(parse_group_spec("abelian:2,2,2,2,2,5"))
    kappa, full = all_minimum_cutsets(graph)
    assert kappa == vertex_connectivity(graph) and len(full) == 32
    with pytest.raises(ResourceLimitError) as info:
        all_minimum_cutsets(graph, max_combinations=20)
    partial = list(info.value.partial)
    assert 0 < len(partial) < len(full)
    assert partial == sorted(partial, key=sorted)
    assert set(partial) <= set(full)


@pytest.mark.parametrize(
    "spec,kappa,count",
    [("abelian:2,2,2,2,3,5", 12, 15), ("abelian:2,2,2,2,2,3^2", 9, 63)],
)
def test_all_minimum_cutsets_many_small_classes(spec, kappa, count):
    # 64 and 96 twin classes: the cost follows the cut-sets, not the class subsets
    graph = build_power_graph(parse_group_spec(spec))
    found, sets = all_minimum_cutsets(graph)
    assert found == vertex_connectivity(graph) == kappa
    assert len(sets) == count
    for s in sets:
        assert len(s) == kappa and 0 in s
        assert graph.is_minimal_cut_set(s)


def test_all_minimum_cutsets_complete_graph_empty():
    G = make_cyclic(9)
    graph = build_power_graph(G)
    assert all_minimum_cutsets(graph) == (vertex_connectivity(graph), []) == (8, [])
    with pytest.raises(ValueError, match="at least 2 vertices"):
        all_minimum_cutsets(build_power_graph(make_cyclic(1)))


def test_certify_minimal_quotient_cut():
    G = make_abelian([(3, 1), (3, 1), (5, 1)])
    graph = build_power_graph(G)
    q = sylow_complement_product(G, 3)
    assert graph.is_minimal_cut_set(q)
    comps = graph.components_after_removal(q)
    assert graph.is_separation(q, Separation(comps[0], frozenset().union(*comps[1:])))


def test_certify_minimal_gamma_cut():
    G = make_abelian([(2, 1), (2, 1), (3, 1), (5, 1)])
    graph = build_power_graph(G)
    M = min_order_maximal_cyclic(G)
    assert graph.is_minimal_cut_set(gamma_set(G, M))


def test_certify_not_minimal_with_cyclic_sylow():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    graph = build_power_graph(G)
    M = next(m for m in G.maximal_cyclics if m.order == 6)
    cut = nongenerators(G, M)
    assert graph.is_cut_set(cut)
    assert graph.is_minimal_cut_set(cut) is False


def test_certify_minimal_rejects_non_cut():
    graph = build_power_graph(make_cyclic(12))
    with pytest.raises(ValueError):
        graph.is_minimal_cut_set({3})


def test_minimalize_cutset():
    graph = build_power_graph(make_dihedral(6))
    cut = minimalize_cutset(graph, {0, 1, 3})
    assert cut == {0}
    assert graph.is_minimal_cut_set(cut)


def naive_minimalize(graph, vertices):
    cut = set(vertices)
    if not graph.is_cut_set(cut):
        raise ValueError("minimalize_cutset requires a cut-set")
    changed = True
    while changed:
        changed = False
        for x in sorted(cut):
            if graph.is_cut_set(cut - {x}):
                cut -= {x}
                changed = True
                break
    return frozenset(cut)


def test_minimalize_cutset_matches_set_based_scan():
    from powergraphs.harness import corpus_groups

    checked = 0
    for G in corpus_groups(24):
        graph = build_power_graph(G)
        n = graph.vertex_count
        if graph.is_complete:
            continue
        seeds = [graph.neighbors(v) for v in range(n)]
        # all but two non-adjacent vertices: the longest shrinking scans
        seeds += [
            frozenset(range(n)) - {s, t}
            for s in range(n)
            for t in range(s)
            if not graph.adjacent(s, t)
        ]
        for seed in seeds:
            if len(seed) <= n - 2 and graph.is_cut_set(seed):
                expected = naive_minimalize(graph, seed)
                assert minimalize_cutset(graph, seed) == expected, (G.name, sorted(seed))
                checked += 1
            else:
                with pytest.raises(ValueError):
                    minimalize_cutset(graph, seed)
    assert checked > 1000
    with pytest.raises(ValueError):
        minimalize_cutset(build_power_graph(make_dihedral(6)), {0, 6})


def is_minimal_by_definition(graph, cut):
    """Oracle: no member can be dropped while the rest stays a cut-set."""
    return not any(graph.is_cut_set(cut - {x}) for x in cut)


def all_but_two_seeds(graph):
    """Every vertex but a non-adjacent pair: the longest shrinking scans."""
    n = graph.vertex_count
    return [
        frozenset(range(n)) - {s, t}
        for s in range(n)
        for t in range(s)
        if not graph.adjacent(s, t)
    ]


def test_is_minimal_cut_set_matches_definition_on_power_graphs():
    from powergraphs.harness import corpus_groups

    verdicts = []
    for G in corpus_groups(24):
        graph = build_power_graph(G)
        n = graph.vertex_count
        if graph.is_complete:
            continue
        seeds = [graph.neighbors(v) for v in range(n)] + all_but_two_seeds(graph)
        cuts = {seed for seed in seeds if len(seed) < n - 1}
        cuts |= {minimalize_cutset(graph, seed) for seed in cuts}
        for cut in cuts:
            minimal = graph.is_minimal_cut_set(cut)
            assert minimal == is_minimal_by_definition(graph, cut), (G.name, sorted(cut))
            verdicts.append(minimal)
    assert len(verdicts) > 1000 and 0 < sum(verdicts) < len(verdicts)


def test_cut_minimality_matches_definition_on_random_graphs():
    rng = random.Random(0xC075E7)
    disconnected = 0
    for _ in range(150):
        n = rng.randint(3, 10)
        p = rng.choice((0.15, 0.4, 0.7))
        edge_bits = sum(1 << k for k in range(n * (n - 1) // 2) if rng.random() < p)
        graph = random_graph(n, edge_bits)
        disconnected += not graph.is_connected()
        for size in range(n + 1):
            for cut in map(frozenset, combinations(range(n), size)):
                if size < n - 1 and graph.is_cut_set(cut):
                    assert graph.is_minimal_cut_set(cut) == is_minimal_by_definition(graph, cut)
                    assert minimalize_cutset(graph, cut) == naive_minimalize(graph, cut)
                else:
                    with pytest.raises(ValueError):
                        graph.is_minimal_cut_set(cut)
                    with pytest.raises(ValueError):
                        minimalize_cutset(graph, cut)
    assert disconnected > 10


def test_minimality_flood_count(monkeypatch):
    # one component split per call, with no flood per member
    graph = build_power_graph(parse_group_spec("abelian:2,2,3,3"))
    seeds = all_but_two_seeds(graph)
    seeds += [minimalize_cutset(graph, seed) for seed in seeds]
    components = [len(graph.components_after_removal(seed)) for seed in seeds]
    floods = []
    real = PowerGraph._flood

    def counting(self, alive, start):
        floods.append(start)
        return real(self, alive, start)

    monkeypatch.setattr(PowerGraph, "_flood", counting)
    for seed, most in zip(seeds, components):
        for check in (graph.is_minimal_cut_set, lambda s: minimalize_cutset(graph, s)):
            floods.clear()
            check(seed)
            assert len(floods) <= most, (sorted(seed), len(floods), most)


def test_dihedral_connectivity_is_one():
    for order in range(6, 21, 2):
        graph = build_power_graph(make_dihedral(order))
        assert vertex_connectivity(graph) == 1


def random_graph(n, edge_bits):
    adj = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (edge_bits >> k) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return RowGraph(n, tuple(adj))


def brute_st_separator_size(graph, s, t):
    """Oracle: smallest vertex set (avoiding s, t) whose removal parts them."""
    n = graph.vertex_count
    others = [v for v in range(n) if v not in (s, t)]
    for k in range(len(others) + 1):
        for removed in combinations(others, k):
            comps = graph.components_after_removal(removed)
            side_s = next(c for c in comps if s in c)
            if t not in side_s:
                return k
    raise AssertionError("adjacent pair passed in")


@given(st.integers(4, 9), st.integers(0, 2**36 - 1))
@settings(max_examples=120, deadline=None)
def test_flow_cut_matches_subset_oracle_on_random_graphs(n, edge_bits):
    graph = random_graph(n, edge_bits)
    pair = next(
        ((s, t) for s in range(n) for t in range(s + 1, n) if not graph.adjacent(s, t)),
        None,
    )
    if pair is None:
        return
    s, t = pair
    cut, paths = min_vertex_cut_between(graph, s, t)
    want = brute_st_separator_size(graph, s, t)
    assert len(cut) == len(paths) == want
    comps = graph.components_after_removal(cut)
    assert t not in next(c for c in comps if s in c)


def reached_from(adj, s, removed):
    """Oracle: the vertices joined to s by a path avoiding ``removed``."""
    seen = {s}
    todo = [s]
    while todo:
        u = todo.pop()
        for v in range(len(adj)):
            if adj[u] >> v & 1 and v not in removed and v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


@given(
    st.integers(2, 8),
    st.integers(0, 2**28 - 1),
    st.lists(st.integers(0, 3), min_size=8, max_size=8),
    st.integers(0, 63),
    st.one_of(st.none(), st.integers(1, 12)),
)
@settings(max_examples=200, deadline=None)
def test_max_flow_matches_weighted_separator_oracle(n, edge_bits, weight, pick, limit):
    adj = random_graph(n, edge_bits).adj
    weight = weight[:n]
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t and not adj[s] >> t & 1]
    if not pairs:
        return
    s, t = pairs[pick % len(pairs)]
    others = [v for v in range(n) if v not in (s, t)]
    separators = [
        set(removed)
        for size in range(len(others) + 1)
        for removed in combinations(others, size)
        if t not in reached_from(adj, s, set(removed))
    ]
    least = min(sum(weight[v] for v in c) for c in separators)
    minimum = [c for c in separators if sum(weight[v] for v in c) == least]

    flow, cut_mask, edge_flow = connectivity._max_flow(adj, weight, s, t, limit)
    if limit is not None and least >= limit:
        assert cut_mask is None and flow >= limit
        return
    assert flow == least
    cut = set(iter_bits(cut_mask))
    assert cut in minimum
    # closest to s: its side of s lies inside that of every minimum separator
    near = reached_from(adj, s, cut)
    assert all(near <= reached_from(adj, s, c) for c in minimum)
    # edge_flow is an s-t flow of that value along edges, within the weights
    net = [0] * n
    through = [0] * n
    for (u, v), units in edge_flow.items():
        assert adj[u] >> v & 1 and units >= 0
        net[u] += units
        net[v] -= units
        through[v] += units
    assert net[s] == flow == -net[t]
    assert all(net[v] == 0 and through[v] <= weight[v] for v in others)


def kappa_by_subset_enumeration(graph):
    """Oracle: smallest removal size that disconnects, by exhaustive search."""
    n = graph.vertex_count
    if graph.is_complete:
        return n - 1
    for k in range(n - 1):
        for removed in combinations(range(n), k):
            if n - k >= 2 and len(graph.components_after_removal(removed)) >= 2:
                return k
    return n - 1


def test_flow_kappa_matches_subset_enumeration():
    from powergraphs.harness import corpus_groups

    for G in corpus_groups(16):
        graph = build_power_graph(G)
        assert vertex_connectivity(graph) == kappa_by_subset_enumeration(graph), G.name


def blown_up_graph(n, edge_bits, twins):
    """Each vertex v of a random graph on n vertices becomes a clique of
    twins[v] closed twins."""
    base = random_graph(n, edge_bits)
    owner = [v for v in range(n) for _ in range(twins[v])]
    adj = [0] * len(owner)
    for a, u in enumerate(owner):
        for b, v in enumerate(owner):
            if a != b and (u == v or base.adjacent(u, v)):
                adj[a] |= 1 << b
    return RowGraph(len(owner), tuple(adj))


@given(
    st.integers(1, 9),
    st.integers(0, 2**36 - 1),
    st.lists(st.integers(1, 3), min_size=9, max_size=9),
)
@settings(max_examples=100, deadline=None)
def test_row_quotient_matches_the_definition(n, edge_bits, twins):
    # the quotient under the subset oracles and the unit-flow checks above
    for graph in (random_graph(n, edge_bits), blown_up_graph(n, edge_bits, twins)):
        assert graph.twin_quotient == twin_quotient_by_definition(graph)


@given(
    st.integers(3, 6),
    st.integers(0, 2**15 - 1),
    st.lists(st.integers(1, 3), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_flow_kappa_matches_subset_oracle_on_planted_twins(n, edge_bits, twins):
    graph = blown_up_graph(n, edge_bits, twins)
    kappa = vertex_connectivity(graph)
    assert kappa == kappa_by_subset_enumeration(graph)
    if not graph.is_complete:
        cut = minimum_cutset(graph)
        assert len(cut) == kappa
        assert graph.is_cut_set(cut)
        assert all_minimum_cutsets(graph) == (kappa, all_minimum_cutsets_by_subsets(graph, kappa))
    assert_sweep_matches_unreduced_rule(graph)


def assert_st_query_matches_unit_flow(graph, s, t):
    """The s-t query on the twin quotient against one unit-weight flow on the
    graph itself: the same cut, as many simple, internally disjoint paths
    along edges as that flow's value."""
    flow, cut_mask, _ = connectivity._max_flow(graph.adj, [1] * graph.vertex_count, s, t)
    cut, paths = min_vertex_cut_between(graph, s, t)
    assert cut == frozenset(iter_bits(cut_mask)), (s, t)
    assert len(paths) == len(cut) == flow, (s, t)
    inner_seen = set()
    for path in paths:
        assert path[0] == s and path[-1] == t
        assert len(set(path)) == len(path), path
        assert all(graph.adjacent(a, b) for a, b in zip(path, path[1:])), path
        inner = set(path[1:-1])
        assert not inner & inner_seen, path
        inner_seen |= inner


def test_st_query_matches_unit_flow_on_groups():
    from powergraphs.harness import corpus_groups
    from powergraphs.suites import _sample_non_adjacent

    rng = random.Random(0)
    for G in corpus_groups(60):
        graph = build_power_graph(G)
        for s, t in _sample_non_adjacent(graph, rng, 8):
            assert_st_query_matches_unit_flow(graph, s, t)


@given(
    st.integers(3, 6),
    st.integers(0, 2**15 - 1),
    st.lists(st.integers(1, 3), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_st_query_matches_unit_flow_on_planted_twins(n, edge_bits, twins):
    # every non-adjacent pair, so s and t and their neighbours often have twins
    graph = blown_up_graph(n, edge_bits, twins)
    for s in range(graph.vertex_count):
        for t in iter_bits(graph.full_mask & ~graph.adj[s] & ~(1 << s)):
            assert_st_query_matches_unit_flow(graph, s, t)


def test_st_query_with_twins_of_s_and_t():
    # a-b-c-d and a-e-d, with a, b, c and d each blown up into two twins: s
    # and t have twins, two paths run through the classes of b and c, and
    # the cut closest to s is all of b's class and e
    graph = blown_up_graph(5, 0b1010011001, [2, 2, 2, 2, 1])
    s, t = 0, 6
    cut, paths = min_vertex_cut_between(graph, s, t)
    assert cut == {2, 3, 8}
    assert sorted(v for path in paths for v in path[1:-1]) == [2, 3, 4, 5, 8]
    assert_st_query_matches_unit_flow(graph, s, t)


def test_enumeration_skips_the_flood_at_a_root_already_found(monkeypatch):
    # on C2^5xC5 every one of the 61 search nodes is a root of weight kappa,
    # and 29 of them are a set already listed: only 32 flood
    graph = build_power_graph(parse_group_spec("abelian:2,2,2,2,2,5"))
    kappa = vertex_connectivity(graph)
    floods = []
    real = connectivity.flood

    def counting(*args):
        floods.append(args[2])
        return real(*args)

    monkeypatch.setattr(connectivity, "flood", counting)
    found, sets = all_minimum_cutsets(graph)
    assert found == kappa and len(sets) == len(floods) == 32
