"""Power graphs of finite groups and the cut-set predicates on them.

Two distinct elements are adjacent exactly when one lies in the cyclic
subgroup generated by the other, so the graph depends only on which cyclic
subgroups contain which. Each row is built from that containment: the
closure <x> joined with the roots of x (the y with x in <y>), two masks the
group computes once per cyclic subgroup and shares among its generators.
Adjacency is stored densely as one integer bitmask per vertex: power graphs
are dense and the desk-scale sizes here (at most ~1000 vertices) make O(1)
edge queries and whole-row operations the dominant win. Each graph computes
its closed-twin quotient once, on first use; the connectivity engine reads
only that quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .bitsets import flood, iter_bits, mask_of
from .groups import Group


@dataclass(frozen=True)
class Separation:
    """A bipartition of the surviving vertices with no crossing edge."""

    side_a: frozenset[int]
    side_b: frozenset[int]


@dataclass(frozen=True)
class PowerGraph:
    """Simple undirected graph on group element indices; vertex 0 is the identity."""

    vertex_count: int
    adj: tuple[int, ...]

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self.adj[v]))

    def adjacent(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    @cached_property
    def twin_quotient(self) -> tuple[tuple[int, ...], tuple[int, ...], int | None]:
        """The closed-twin quotient: (members, q_adj, universal).

        Vertices with equal closed neighbourhoods are twins, and twins form a
        class (in a power graph the generators of one cyclic subgroup are
        twins, so each class is a union of generator classes).
        members[i] is the vertex mask of class i, classes ordered by least
        vertex; q_adj[i] is the mask of classes adjacent to class i; universal
        is the index of the class of vertices adjacent to all others, or None.
        """
        classes: dict[int, int] = {}
        for v, row in enumerate(self.adj):
            key = row | 1 << v
            classes[key] = classes.get(key, 0) | 1 << v
        members = tuple(classes.values())
        # twins share a closed neighbourhood, so it is each class's key, and
        # it meets a class exactly when it holds the class's least vertex
        class_bit = {m & -m: 1 << j for j, m in enumerate(members)}
        reps = sum(class_bit)
        q_adj = []
        for i, key in enumerate(classes):
            row, q = key & reps, 0
            while row:
                low = row & -row
                row ^= low
                q |= class_bit[low]
            q_adj.append(q & ~(1 << i))
        universal = next((i for i, key in enumerate(classes) if key == self.full_mask), None)
        return members, tuple(q_adj), universal

    @property
    def is_complete(self) -> bool:
        # complete exactly when all vertices are closed twins
        return len(self.twin_quotient[0]) <= 1

    def _vertex_mask(self, vertices: Iterable[int]) -> int:
        m = mask_of(vertices)
        if m & ~self.full_mask:
            raise ValueError("vertex set contains indices outside the graph")
        return m

    def _flood(self, alive: int, start: int) -> int:
        return flood(self.adj, alive, start)

    def _is_split(self, alive: int) -> bool:
        """True iff the vertices of the non-empty mask alive induce a disconnected subgraph."""
        start = (alive & -alive).bit_length() - 1
        return self._flood(alive, start) != alive

    def _component_masks(self, alive: int) -> list[int]:
        comps = []
        rest = alive
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self._flood(rest, start)
            comps.append(comp)
            rest &= ~comp
        return comps

    def components_after_removal(self, removed: Iterable[int]) -> list[frozenset[int]]:
        """Connected components of the induced subgraph, ordered by least vertex."""
        alive = self.full_mask & ~self._vertex_mask(removed)
        return [frozenset(iter_bits(c)) for c in self._component_masks(alive)]

    def is_connected(self) -> bool:
        return self.vertex_count == 0 or not self._is_split(self.full_mask)

    def _survivors(self, cut: int) -> int:
        alive = self.full_mask & ~cut
        if alive.bit_count() < 2:
            raise ValueError("a cut-set must leave at least two vertices")
        return alive

    def is_cut_set(self, vertices: Iterable[int]) -> bool:
        """True iff removing the set leaves >= 2 connected components.

        At least two vertices must survive the removal; smaller remainders are
        outside the definition and rejected.
        """
        return self._is_split(self._survivors(self._vertex_mask(vertices)))

    def _cut_components(self, vertices: Iterable[int], caller: str) -> tuple[int, list[int]]:
        """The mask of a cut-set and the component masks of the graph without it."""
        cut = self._vertex_mask(vertices)
        comps = self._component_masks(self._survivors(cut))
        if len(comps) < 2:
            raise ValueError(f"{caller} requires a cut-set")
        return cut, comps

    def is_minimal_cut_set(self, vertices: Iterable[int]) -> bool:
        """True iff no single element can be dropped while staying a cut-set.

        Putting a member x back leaves the graph split exactly when x misses
        some component of the rest, so the set is minimal iff every member
        touches every component: one component split decides every member.
        """
        cut, comps = self._cut_components(vertices, "is_minimal_cut_set")
        adj = self.adj
        return all(adj[x] & c for x in iter_bits(cut) for c in comps)

    def is_separation(self, removed: Iterable[int], sep: Separation) -> bool:
        """True iff sep partitions the surviving vertices with no crossing edge."""
        cut = self._vertex_mask(removed)
        alive = self.full_mask & ~cut
        a = self._vertex_mask(sep.side_a)
        b = self._vertex_mask(sep.side_b)
        if not a or not b:
            raise ValueError("both sides of a separation must be non-empty")
        if a & b or (a | b) != alive:
            raise ValueError("separation sides must partition the surviving vertices")
        return all(self.adj[u] & b == 0 for u in iter_bits(a))


def build_power_graph(group: Group) -> PowerGraph:
    """The power graph of a group: x ~ y iff x != y and x in <y> or y in <x>.

    Row x is the closure <x> together with the roots of x (every y with x in
    <y>), both read from the group's per-subgroup masks, minus x itself.
    """
    adj = tuple(
        (closure | roots) & ~(1 << x)
        for x, (closure, roots) in enumerate(zip(group.closure_masks, group.root_masks))
    )
    return PowerGraph(vertex_count=group.size, adj=adj)

