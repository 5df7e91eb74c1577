"""Exact vertex connectivity and minimum cut-set enumeration.

Both read only the power graph's closed-twin quotient
(``PowerGraph.twin_quotient``, computed once per graph from the group's
poset of cyclic subgroups, with no adjacency row): vertices with equal
closed neighbourhoods form a class (elements generating one cyclic
subgroup do), and no minimal separator
splits a class or meets the classes of the vertices it separates. So a
minimum s-t vertex cut is a minimum cut of the quotient with nodes weighted by
class size: one integer-capacity vertex-split max-flow (Even & Tarjan, 1975).
Every separator contains the universal class, the vertices adjacent to all
others (in a power graph the identity, plus the generators when the group is
cyclic), if there is one. Both engines run their flows on the one sweep of
``_menger_pairs``: a few heavy sources and their non-neighbours (Esfahanian &
Hakimi, 1984), with the universal class and the earlier sources counted into
the cut and each finished target joined to its source (Hao & Orlin, 1994),
so each minimum separator is listed at its first pair (Kanevsky, 1993);
later pairs may find it again, and the enumeration drops the repeats. A
common neighbour of a pair lies in every separator of it, so it is counted
into the pair's cut too, before any search; a pair whose counted classes
already weigh too much runs no flow. The flow is a plain node-capacitated
one: a class is forced only by its capacity, 0 into the cut and more than
every cut out of it. Connectivity starts from the smallest neighbourhood;
each flow aborts once it reaches the best cut so far, and the search stops
once the classes counted into every later cut weigh that much.
``minimum_cutset`` returns the cut that search ends on, and
``vertex_connectivity`` its size. The s-t query runs the same flow on the
quotient between the classes of s and t and expands its cut and its flow to
vertices: the cut and the disjoint paths. Minimum cut-set enumeration finds
kappa in the same sweep: it lists each pair's cuts at the best weight so
far, at first the smallest neighbourhood, by partitioning on classes forced
into or kept out of the cut (Picard & Queyranne, 1980; Provan & Shier,
1996), from a root holding the classes counted into it, one flow per part
or one flood once the forced classes weigh the best, so the work follows
the number of cuts rather than of class subsets. Constraints only raise a
cut, so only a root can come in lighter: it lowers the best. Weights are
carried, not re-summed: the sweep adds each source's weight to the forced
weight once, a pair adds its common neighbours' to that, and each search
node holds the weight of its forced classes, to which a child adds each
class it forces.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .bitsets import bits, flood, iter_bits
from .powergraph import PowerGraph


class ResourceLimitError(RuntimeError):
    """Search exceeded its configured bound; partial results are attached:
    for the cut-set enumeration, the lightest sets found so far."""

    def __init__(self, message: str, partial: tuple[frozenset[int], ...] = ()):
        super().__init__(message)
        self.partial = partial


def _expand(members: Sequence[int], classes: int) -> int:
    """The vertex mask of the classes whose bits are set in ``classes``."""
    return sum(members[c] for c in iter_bits(classes))  # classes are disjoint


def _max_flow(
    adj: Sequence[int], weight: Sequence[int], s: int, t: int, limit: int | None = None
) -> tuple[int, int | None, dict[tuple[int, int], int]]:
    """Max flow from vertex s to vertex t when every other vertex v carries
    at most weight[v] units and edges are uncapacitated; s and t must be
    distinct and non-adjacent. Callers force vertices into or out of the cut
    by capacity alone: weight 0 lets a vertex in at no cost (a common
    neighbour of s and t is reached from s, so it is in the cut), and a
    weight above every cut keeps it out.

    Shortest augmenting paths in the vertex-split network, node v being the
    in-copy of v and node k + v its out-copy, in increasing node order.
    Returns (flow, cut, edge_flow): cut is None if the flow reached
    ``limit``, else the vertex mask of the minimum s-t cut closest to s;
    edge_flow[u, v] is the flow on the edge arc k + u -> v, keyed in the
    order the arcs were first used.
    """
    edge_flow: dict[tuple[int, int], int] = {}
    flow = 0
    k = len(adj)
    # residual arcs by tail; a vertex of weight 0 has no arc through it
    res = [1 << (k + v) if weight[v] else 0 for v in range(k)]
    res += adj
    through = [0] * k  # flow on the vertex arc v -> k + v
    src, snk = k + s, t
    while limit is None or flow < limit:
        parent = [-1] * (2 * k)
        visited = 1 << src
        frontier = [src]
        while frontier and parent[snk] < 0:
            nxt = []
            for u in frontier:
                m = res[u] & ~visited
                visited |= m
                while m and parent[snk] < 0:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    parent[v] = u
                    nxt.append(v)
            frontier = nxt
        if parent[snk] < 0:
            # edge arcs stay open, so the reachable set is left only
            # through full vertex arcs: exactly the vertices of a min cut
            return flow, visited & ~(visited >> k) & ((1 << k) - 1), edge_flow
        nodes = [snk]
        while nodes[-1] != src:
            nodes.append(parent[nodes[-1]])
        # nodes run from the sink back to the source, and so do the arcs;
        # forward edge arcs never fill up
        arcs = list(zip(nodes[1:], nodes))
        delta = None
        for a, b in arcs:
            if b == a + k:
                room = weight[a] - through[a]
            elif a == b + k:
                room = through[b]
            elif a < k:
                room = edge_flow[b - k, a]
            else:
                continue
            if delta is None or room < delta:
                delta = room
        for a, b in arcs:
            res[b] |= 1 << a
            if b == a + k:
                through[a] += delta
                full = through[a] == weight[a]
            elif a == b + k:
                through[b] -= delta
                full = not through[b]
            elif a < k:
                edge_flow[b - k, a] -= delta
                full = not edge_flow[b - k, a]
            else:
                edge_flow[a - k, b] = edge_flow.get((a - k, b), 0) + delta
                full = False
            if full:
                res[a] &= ~(1 << b)
        flow += delta
    return flow, None, edge_flow


def _menger_pairs(
    q_adj: Sequence[int], weight: Sequence[int], universal: int | None
) -> Iterator[tuple[int, int, list[int], int, int]]:
    """The one sweep both engines run: class pairs (s, t), each with the
    adjacency ``adj``, the classes ``into`` forced into its cut and their
    weight ``forced``, carried from source to source, not re-summed.

    The sources are the classes but the universal class U, if any, in
    (-weight, index) order, each paired with its non-neighbours but the
    earlier sources, by index. ``into`` is U and the earlier sources: a
    flow weighs them 0 and ORs them into its cut. ``adj`` is ``q_adj`` with
    s joined to each target it has finished. A separator holds U and misses
    a source, one before ``into`` outweighs it. So the sweep has no end of
    its own: each caller, holding its best b so far, stops it once ``into``
    weighs more than any cut it still looks for. Neither loses a cut that
    counts, and both engines also count the pair's common neighbours in
    ``adj`` into its cut:

    - Kappa. Say a minimum cut C of the pair beats the best b before it. If
      C missed an earlier source, the first one s' and a class outside C and
      the component of s' would be an earlier pair, so w(C) >= b; if C
      parted s from an earlier target t', so would (s, t'). So C holds
      ``into`` and has each earlier target in it or on s's side: the pair's
      minimum cuts, and the one closest to s, are the plain quotient's.
    - Enumeration. A minimum separator C holds U and misses a source; b
      never falls below w(C), so the sweep reaches the first one s, where C
      holds ``into``, and lists C at the first target t outside C and the
      component of s: the targets before t lie in C or on s's side.
    - Common neighbours. In both cases C parts s from t in ``adj`` too, and
      a common neighbour outside C would join them, so C holds every common
      neighbour: the minimum cuts, the cut closest to s and the cuts listed
      are the same sets with them counted in.
    """
    into, forced = (0, 0) if universal is None else (1 << universal, weight[universal])
    everything = (1 << len(q_adj)) - 1
    for s in sorted(range(len(q_adj)), key=lambda c: (-weight[c], c)):
        if s != universal:
            adj = list(q_adj)
            for t in iter_bits(everything & ~(q_adj[s] | into | 1 << s)):
                yield s, t, adj, into, forced
                adj[s] |= 1 << t
                adj[t] |= 1 << s
            into |= 1 << s
            forced += weight[s]


def _minimum_cut(graph: PowerGraph) -> frozenset[int] | None:
    """A minimum vertex cut read off the twin quotient; None if the graph is complete."""
    if graph.vertex_count < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    members, q_adj, u = graph.twin_quotient
    k = len(members)
    if k == 1:
        return None
    weight = [m.bit_count() for m in members]
    # twins share a closed neighbourhood: their own class and every adjacent one
    degree = [weight[i] - 1 + sum(weight[j] for j in iter_bits(q_adj[i])) for i in range(k)]
    first = min(range(k), key=degree.__getitem__)
    best = degree[first]
    best_cut = _expand(members, q_adj[first] | 1 << first) & ~(members[first] & -members[first])
    for s, t, adj, into, forced in _menger_pairs(q_adj, weight, u):
        if best <= forced:  # every later cut holds these classes too
            break
        # and this pair's cuts hold its common neighbours
        common = adj[s] & adj[t] & ~into
        forced += sum(weight[c] for c in iter_bits(common))
        if forced >= best:
            continue
        into |= common
        w = [0 if into >> c & 1 else m for c, m in enumerate(weight)]
        flow, cut, _ = _max_flow(adj, w, s, t, limit=best - forced)
        if cut is not None:
            best = flow + forced
            best_cut = _expand(members, cut | into)
    return frozenset(bits(best_cut))


def vertex_connectivity(graph: PowerGraph) -> int:
    """Minimum number of vertices whose removal disconnects the graph.

    Complete graphs yield vertex_count - 1 (removal down to a single vertex).
    """
    cut = _minimum_cut(graph)
    return graph.vertex_count - 1 if cut is None else len(cut)


def minimum_cutset(graph: PowerGraph) -> frozenset[int]:
    """One minimum cut-set; its size is the vertex connectivity. The graph
    must have at least 2 vertices and not be complete."""
    cut = _minimum_cut(graph)
    if cut is None:
        raise ValueError("a complete graph has no cut-set")
    return cut


def min_vertex_cut_between(
    graph: PowerGraph, s: int, t: int
) -> tuple[frozenset[int], list[list[int]]]:
    """A minimum s-t vertex cut and a maximum family of internally
    vertex-disjoint s-t paths, from one flow on the closed-twin quotient
    between the classes of s and t, each other class carrying at most its
    size; s and t must be distinct and non-adjacent. The cut is the one
    closest to s, and by Menger's theorem there are exactly len(cut) paths.

    Adjacent classes are completely joined, so a union of classes that
    misses the classes of s and t parts s from t exactly when its classes
    part the two classes in the quotient, and its weight there is its size.
    Every minimum s-t cut C is such a union. Each x in C has a neighbour on
    s's side and one on t's, else C without x would still part them; a twin
    of x has the same neighbours, so outside C it would join the two sides.
    A twin of s has no neighbour on t's side, so it is not in C, nor is a
    twin of t. So the minimum s-t cuts are the expansions of the quotient's
    minimum cuts between the two classes, with s's side expanding to s's
    side, and the cut closest to s, whose side of s lies inside that of
    every other, is the expansion of the quotient's cut closest to the class
    of s, which ``_max_flow`` returns.

    The paths walk the quotient's flow one unit at a time, from the class of
    s to the class of t, and each step into a class takes a member not taken
    before; s and t stand for their own classes. A step joins two adjacent
    classes, hence two adjacent vertices, and a class carries at most its
    size, so there are members enough and no vertex is taken twice: each
    path is simple and no two share an inner vertex.
    """
    n = graph.vertex_count
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError(f"need two distinct vertices, got {s}, {t}")
    if graph.adjacent(s, t):
        raise ValueError(f"vertices {s} and {t} are adjacent; no vertex cut separates them")
    members, q_adj, _ = graph.twin_quotient
    source = next(c for c, m in enumerate(members) if m >> s & 1)
    sink = next(c for c, m in enumerate(members) if m >> t & 1)
    flow, cut, edge_flow = _max_flow(q_adj, [m.bit_count() for m in members], source, sink)
    succ: dict[int, list[int]] = {}
    for (a, b), units in edge_flow.items():
        succ.setdefault(a, []).extend([b] * units)
    free = list(members)
    paths = []
    for _ in range(flow):
        path, c = [s], succ[source].pop()
        while c != sink:
            low = free[c] & -free[c]
            free[c] ^= low
            path.append(low.bit_length() - 1)
            c = succ[c].pop()
        paths.append(path + [t])
    return frozenset(bits(_expand(members, cut))), paths


def minimalize_cutset(graph: PowerGraph, vertices: Iterable[int]) -> frozenset[int]:
    """Greedily shrink a cut-set to a minimal one: drop the least vertex
    whose removal leaves a cut-set, and rescan from the least, until none does.

    Dropping a member x leaves a cut-set exactly when x misses some component
    of the rest, so the rest is split into components once and each member is
    tested against them. A dropped x merges with the components it touches.
    Members kept before x touch every component, so they touch the merged one
    too, and the scan goes on past x; it restarts from the least member only
    when x touched no component and so became a component of its own.
    """
    cut, comps = graph._cut_components(vertices, "minimalize_cutset")
    adj = graph.adj
    scan = cut
    while scan:
        low = scan & -scan
        scan ^= low
        row = adj[low.bit_length() - 1]
        missed = [c for c in comps if not row & c]
        if not missed:
            continue
        merged = low
        for c in comps:
            if row & c:
                merged |= c
        cut ^= low
        if merged == low:
            scan = cut
        comps = missed + [merged]
    return frozenset(iter_bits(cut))


def all_minimum_cutsets(
    graph: PowerGraph, *, max_combinations: int = 10_000_000
) -> tuple[int, list[frozenset[int]]]:
    """The vertex connectivity kappa and every minimum cut-set, from one
    sweep of max-flows on the closed-twin quotient. The graph must have at
    least 2 vertices; a complete one on n vertices gives (n - 1, []).

    The search keeps a best weight, at first the least degree, and the sets
    of that weight found so far. Each pair ``_menger_pairs`` yields, until
    its forced classes weigh more than best, lists its s-t cuts of weight
    best by partition (Lawler), from a root that forces those classes and
    the pair's common neighbours into the cut (an s-t separator holds every
    common neighbour); a root weighing more than best runs no flow. A node
    forces classes into the cut (weight 0) and out of it (weight above
    every cut), and one flow finds a minimum cut under them. If it weighs
    best, the node records it and splits the remaining cuts by the first of
    its new classes they leave out, each child carrying its parent's forced
    weight plus that of the classes it forces; above best, the node ends;
    below best, best drops to its weight and the sets found, now too
    heavy, are dropped. Only a root can come in below: a child's cuts are among its
    parent's, whose least weighs best. So a minimum cut-set C is listed: it
    holds the root of its first pair, whose cut weighs at most w(C), and
    from there on best is kappa. A node whose forced classes already weigh
    best runs no flow: they are its only cut of weight best, so one flood
    from s over the other classes decides whether they part s from t,
    unless they are listed already; only a root can be such a node, as a
    child forces a proper part of its parent's cut. Raises
    ResourceLimitError once the search would visit more than
    ``max_combinations`` nodes (at most one flow or flood each, those that
    find kappa among them), with the lightest sets found so far attached:
    they may weigh more than kappa.
    """
    if graph.vertex_count < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    if graph.is_complete:
        return graph.vertex_count - 1, []
    members, q_adj, universal = graph.twin_quotient
    weight = [m.bit_count() for m in members]
    everything = (1 << len(members)) - 1
    blocked = sum(weight) + 1
    best = min(m - 1 + sum(weight[j] for j in iter_bits(q_adj[i])) for i, m in enumerate(weight))
    found: set[int] = set()
    nodes = 0

    def listed() -> list[frozenset[int]]:
        sets = (frozenset(bits(_expand(members, m))) for m in found)
        return sorted(sets, key=sorted)

    for s, t, adj, into, forced in _menger_pairs(q_adj, weight, universal):
        if forced > best:
            break
        common = adj[s] & adj[t] & ~into
        forced += sum(weight[c] for c in iter_bits(common))
        if forced > best:
            continue
        stack = [(into | common, 0, forced)]
        while stack:
            into, out, forced = stack.pop()
            if nodes == max_combinations:
                raise ResourceLimitError(
                    f"minimum cut enumeration exceeded {max_combinations} search nodes",
                    partial=tuple(listed()),
                )
            nodes += 1
            need = best - forced
            if not need:
                if into not in found and not flood(adj, everything & ~into, s) >> t & 1:
                    found.add(into)
                continue
            w = [
                0 if into >> c & 1 else blocked if out >> c & 1 else m
                for c, m in enumerate(weight)
            ]
            flow, cut, _ = _max_flow(adj, w, s, t, limit=need + 1)
            if cut is None:
                continue
            if flow < need:
                best -= need - flow
                found.clear()
            found.add(cut | into)
            for c in iter_bits(cut & ~into):
                stack.append((into, out | 1 << c, forced))
                into |= 1 << c
                forced += weight[c]
    return best, listed()
