"""The power graph of a finite group and the cut-set predicates on it.

Two distinct elements are adjacent exactly when one lies in the cyclic
subgroup generated by the other, so the graph is the comparability graph of
the poset of cyclic subgroups, each subgroup blown up into a clique of its
generators. ``PowerGraph`` is built from a group (``build_power_graph``)
and reads everything off that poset (``Group.cyclic_poset``), which lists
one node per cyclic subgroup. The connectivity engines read only the twin
quotient (``PowerGraph.twin_quotient``): the poset's nodes as classes,
their comparabilities as class adjacency and the nodes comparable to every
node as a universal mask (``poset_twin_quotient``), with no n-vertex row.
The rows (``_rows``) are built only when something reads ``adj``, the
property suites and the DOT export: row x holds the generators of every
cyclic subgroup comparable to <x>. Adjacency is stored densely as one
integer bitmask per vertex: power graphs are dense, and whole-row
operations are the dominant win.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import or_
from typing import Iterable

from .bitsets import flood, iter_bits, mask_of
from .groups import Group


@dataclass(frozen=True)
class Separation:
    """A bipartition of the surviving vertices with no crossing edge."""

    side_a: frozenset[int]
    side_b: frozenset[int]


class PowerGraph:
    """The power graph of a group on its element indices; vertex 0 is the
    identity. ``adj[v]`` masks the neighbours of v. Graphs compare and hash
    by identity, so neither reads the rows."""

    def __init__(self, group: Group):
        self.group = group
        self.vertex_count = group.size

    def __repr__(self) -> str:
        return f"PowerGraph({self.group!r})"

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """The adjacency rows (``_rows``), built on the first read."""
        return _rows(self.group)

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
    def twin_quotient(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """A twin quotient: (members, q_adj, universal).

        Vertices with equal closed neighbourhoods are closed twins. members
        partitions the vertices into sets of closed twins, not necessarily
        maximal: members[i] is the vertex mask of class i. Classes are
        cliques, completely joined or not at all; q_adj[i] is the mask of
        classes adjacent to class i, and universal the mask of the classes
        of vertices adjacent to all others. A minimal separator never splits
        a set of closed twins, so the engines read only this. One class per
        node of the poset of cyclic subgroups (``poset_twin_quotient``),
        with no row.
        """
        return poset_twin_quotient(self.group)

    @property
    def is_complete(self) -> bool:
        members, _, universal = self.twin_quotient
        return universal == (1 << len(members)) - 1

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


def poset_twin_quotient(group: Group) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The twin quotient of the group's power graph, (members, q_adj,
    universal) as ``PowerGraph.twin_quotient`` defines it, read off the
    poset of cyclic subgroups (``Group.cyclic_poset``) with no row: one
    class per node, its generators, in the poset's node order.

    A generator x of a cyclic subgroup Z is adjacent to y exactly when <y>
    is comparable to Z, so its closed neighbourhood is the union of the
    generators of the nodes in ``up | down``: the generators of one node are
    closed twins, and two nodes are adjacent exactly when one's key
    ``up | down`` holds the other. A node is universal when its key holds
    every node.
    """
    poset = group.cyclic_poset
    keys = tuple(map(or_, poset.up, poset.down))
    everything = (1 << len(keys)) - 1
    universal = sum(1 << i for i, key in enumerate(keys) if key == everything)
    return poset.generators, tuple(key ^ 1 << i for i, key in enumerate(keys)), universal


def _rows(group: Group) -> tuple[int, ...]:
    """The adjacency rows, read off the poset of cyclic subgroups
    (``Group.cyclic_poset``): x is adjacent to y exactly when <y> is
    comparable to <x>, so row x is the sum of the (disjoint) generator masks
    of the nodes in ``up | down`` of x's node, minus x itself."""
    poset = group.cyclic_poset
    generators = poset.generators
    rows = [0] * group.size
    for key, members in zip(map(or_, poset.up, poset.down), generators):
        row = sum(map(generators.__getitem__, iter_bits(key)))
        for x in iter_bits(members):
            rows[x] = row ^ (1 << x)
    return tuple(rows)


def build_power_graph(group: Group) -> PowerGraph:
    """The power graph of a group: x ~ y iff x != y and x in <y> or y in <x>.

    Its classes come from the group's poset of cyclic subgroups
    (``poset_twin_quotient``), so the engines build no row; the rows
    (``_rows``) are built on the first read of ``adj``.
    """
    return PowerGraph(group)
