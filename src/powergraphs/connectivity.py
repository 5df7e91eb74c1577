"""Exact vertex connectivity and minimum cut-set enumeration.

Both read only the graph's closed-twin quotient (``PowerGraph.twin_quotient``,
computed once per graph): vertices with equal closed neighbourhoods form a
class (elements generating one cyclic subgroup do), and no minimal separator
splits a class or meets the classes of the vertices it separates. So a
minimum s-t vertex cut is a minimum cut of the quotient with nodes weighted by
class size: one integer-capacity vertex-split max-flow (Even & Tarjan, 1975).
Every separator contains the universal class, the vertices adjacent to all
others (in a power graph the identity, plus the generators when the group is
cyclic), if there is one. By Menger's theorem connectivity is the minimum
flow over non-adjacent class pairs, taken by increasing degree sum of the two
classes (twins share a degree); each flow aborts once it reaches the best cut
so far, and the search stops once that equals the size of the universal
class. ``minimum_cutset`` returns the cut that search ends on, and
``vertex_connectivity`` its size. The s-t query runs the same flow on the
graph itself with unit weights and reads both the cut and the disjoint paths
off it. Minimum cut-set enumeration forces the universal class in and runs a
depth-first exact-sum search over unions of the other classes, checking
candidates on the quotient.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bitsets import iter_bits, mask_of
from .powergraph import PowerGraph


class ResourceLimitError(RuntimeError):
    """Search exceeded its configured bound; partial results are attached."""

    def __init__(self, message: str, partial: tuple[frozenset[int], ...] = ()):
        super().__init__(message)
        self.partial = partial


def _max_flow(
    adj: Sequence[int], weight: Sequence[int], s: int, t: int, limit: int | None = None
) -> tuple[int, int | None, dict[tuple[int, int], int]]:
    """Max flow from vertex s to vertex t when every other vertex v carries
    at most weight[v] units and edges are uncapacitated.

    In the split network node v is the in-copy of v and node k + v its
    out-copy. Paths through one common neighbour go first, then shortest
    augmenting paths in increasing node order. Returns (flow, cut, arc_flow):
    cut is None if the flow reached ``limit``, else the vertex mask of the
    minimum s-t cut closest to s; arc_flow[a, b] is the flow on arc a -> b.
    """
    k = len(adj)
    res = [1 << (k + v) for v in range(k)] + list(adj)  # residual arcs by tail
    arc_flow: dict[tuple[int, int], int] = {}
    unbounded = sum(weight) + 1

    def room(a: int, b: int) -> int:
        if a % k == b % k:
            cap = weight[a] if b >= k else 0
        else:
            cap = unbounded if a >= k else 0
        return cap - arc_flow.get((a, b), 0)

    src, snk = k + s, t
    paths = [[(k + w, snk), (w, k + w), (src, w)] for w in iter_bits(adj[s] & adj[t])]
    flow = 0
    while limit is None or flow < limit:
        if paths:
            arcs = paths.pop()
        else:
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
                return flow, visited & ~(visited >> k) & ((1 << k) - 1), arc_flow
            arcs = []
            v = snk
            while v != src:
                arcs.append((parent[v], v))
                v = parent[v]
        delta = min(room(a, b) for a, b in arcs)
        for a, b in arcs:
            arc_flow[a, b] = arc_flow.get((a, b), 0) + delta
            arc_flow[b, a] = -arc_flow[a, b]
            res[b] |= 1 << a
            if not room(a, b):
                res[a] &= ~(1 << b)
        flow += delta
    return flow, None, arc_flow


def _minimum_cut(graph: PowerGraph) -> frozenset[int] | None:
    """A minimum vertex cut read off the twin quotient; None if the graph is complete."""
    if graph.vertex_count < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    members, q_adj, u = graph.twin_quotient
    k = len(members)
    if k == 1:
        return None
    weight = [m.bit_count() for m in members]

    def vertices(classes: int) -> int:
        out = 0
        for c in iter_bits(classes):
            out |= members[c]
        return out

    # twins share a closed neighbourhood: each vertex of class i has degree |closed[i]| - 1
    closed = [vertices(q_adj[i] | 1 << i) for i in range(k)]
    degree = [m.bit_count() - 1 for m in closed]
    first = min(range(k), key=degree.__getitem__)
    best = degree[first]
    best_cut = closed[first] & ~(members[first] & -members[first])
    # every separator contains every universal vertex: nothing beats this
    universal = 0 if u is None else weight[u]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if not (q_adj[i] >> j) & 1]
    # class order is least-vertex order, so (i, j) orders pairs as their least vertices do
    pairs.sort(key=lambda p: (degree[p[0]] + degree[p[1]], p))
    for i, j in pairs:
        if best == universal:
            break
        flow, cut, _ = _max_flow(q_adj, weight, i, j, limit=best)
        if cut is not None and flow < best:
            best = flow
            best_cut = vertices(cut)
    return frozenset(iter_bits(best_cut))


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
    vertex-disjoint s-t paths, from one flow; s and t must be distinct and
    non-adjacent. The cut is the one closest to s, and by Menger's theorem
    there are exactly len(cut) paths.
    """
    n = graph.vertex_count
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError(f"need two distinct vertices, got {s}, {t}")
    if graph.adjacent(s, t):
        raise ValueError(f"vertices {s} and {t} are adjacent; no vertex cut separates them")
    flow, cut_mask, arc_flow = _max_flow(graph.adj, [1] * n, s, t)
    # unit vertex capacities: an edge arc out_u -> in_v carries one unit or none
    succ: dict[int, list[int]] = {}
    for (a, b), units in arc_flow.items():
        if units > 0 and a >= n:
            succ.setdefault(a - n, []).append(b)
    paths = []
    for _ in range(flow):
        path = [s]
        while path[-1] != t:
            path.append(succ[path[-1]].pop())
        paths.append(path)
    return frozenset(iter_bits(cut_mask)), paths


def minimalize_cutset(graph: PowerGraph, vertices: Iterable[int]) -> frozenset[int]:
    """Greedily shrink a cut-set to a minimal one (deterministic scan order)."""
    cut = set(vertices)
    if not graph.is_cut_set(cut):
        raise ValueError("minimalize_cutset requires a cut-set")
    changed = True
    while changed:
        changed = False
        for x in sorted(cut):
            smaller = cut - {x}
            if graph.is_cut_set(smaller):
                cut = smaller
                changed = True
                break
    return frozenset(cut)


def all_minimum_cutsets(
    graph: PowerGraph, kappa: int, *, max_combinations: int = 10_000_000
) -> list[frozenset[int]]:
    """Every minimum cut-set, by exhaustive search over closed-twin class unions.

    Every minimum cut-set is minimal, hence a union of closed-twin classes,
    and contains the universal class (in a power graph the identity, plus the
    generators when the group is cyclic), if the graph has one. The search
    forces that class in and walks unions of the other classes of total size
    ``kappa`` (classes sorted by size descending, then least vertex, pruned on
    exact remaining sum), keeping those whose removal disconnects the
    quotient; a class is a clique, so that is exactly when the removal
    disconnects the graph. Raises ResourceLimitError past
    ``max_combinations`` steps, with the sets found so far attached.
    """
    if kappa >= graph.vertex_count - 1:
        return []
    members, q_adj, universal = graph.twin_quotient
    target = kappa - (0 if universal is None else members[universal].bit_count())
    if target < 0:
        return []
    others = sorted(
        (i for i in range(len(members)) if i != universal),
        key=lambda i: (-members[i].bit_count(), i),
    )
    # quotient node p is nodes[p]: the search order, then the universal class,
    # so each flood starts from the largest class left
    nodes = others + ([] if universal is None else [universal])
    slot = {c: p for p, c in enumerate(nodes)}
    quotient = PowerGraph(
        vertex_count=len(nodes),
        adj=tuple(mask_of(slot[j] for j in iter_bits(q_adj[c])) for c in nodes),
    )
    masks = [members[c] for c in nodes]
    sizes = [m.bit_count() for m in masks[: len(others)]]
    suffix = [0] * (len(others) + 1)
    for i in range(len(others) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    full = quotient.full_mask
    found: list[frozenset[int]] = []
    steps = 0

    def walk(i: int, acc: int, need: int) -> None:
        nonlocal steps
        steps += 1
        if steps > max_combinations:
            raise ResourceLimitError(
                f"class-union search exceeded {max_combinations} combinations",
                partial=tuple(found),
            )
        if need == 0:
            alive = full & ~acc
            start = (alive & -alive).bit_length() - 1
            if quotient._flood(alive, start) != alive:
                found.append(frozenset(v for j in iter_bits(acc) for v in iter_bits(masks[j])))
            return
        if i == len(others) or suffix[i] < need:
            return
        if sizes[i] <= need:
            walk(i + 1, acc | 1 << i, need - sizes[i])
        walk(i + 1, acc, need)

    walk(0, 0 if universal is None else 1 << len(others), target)
    return sorted(found, key=sorted)
