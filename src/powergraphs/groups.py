"""Finite group construction with 0-based element indices.

Every group lives on the index set 0..size-1 with the identity at index 0.
Cyclic groups use plain residue arithmetic so that element i times element j
is element (i + j) mod n; dihedral and generalized quaternion groups multiply
by the formula of their presentation. Direct products (``ProductGroup``)
encode elements in mixed radix, most significant factor first, and multiply
digit by digit; abelian groups are the products of prime-power cyclic
groups. No group here is given by a multiplication table: the table groups
that check these formulas live in the tests.

Structure is read off the poset of cyclic subgroups (``cyclic_poset``),
one node per cyclic subgroup with its generators' mask and the nodes above
and below it; it is the one structure a group keeps. Each class writes its
poset: ``CyclicGroup`` from its divisor lattice, each node's generators by
one formula (``_generators``), a product with a coprime cut from its parts'
posets multiplied out (``_kron``), ``DihedralLikeGroup`` from the divisor
lattice of <a> and one node per <x> outside it, and any other group walks
it, one power list (``_power_walk``) per cyclic subgroup: residues for
cyclic groups, the factors' lists for products, and one multiplication per
listed power otherwise. The maximal cyclic subgroups (``maximal_cyclics``)
are its maximal nodes, the elements of order dividing m the generators of
its nodes of such orders; the power graph's twin quotient and rows are read
from it too. ``CyclicGroup`` (the group itself) and a product with a
coprime cut (the tuples of its parts' ones) write their maximal cyclic
subgroups down with no poset, by the same two helpers.

The theorem gates read one number, ``count_of_order_dividing(m)``: the base
class counts the poset's generators, and ``CyclicGroup``,
``DihedralLikeGroup`` and ``ProductGroup`` count by arithmetic (the last as
the product of its factors' counts), so an oversized group's gates build
no poset and list no element. ``is_nilpotent``, ``sylow_decomposition()``
and ``is_cyclic`` are derived from those counts once, in ``Group``.

Per-element facts are indices into the poset: each element's node
(``_node_of``) and each node's closure mask (``_node_closures``) give
``closure_masks``, ``element_orders``, ``cyclic_subgroup(g)`` (a
``CyclicSubgroup``: the node's least generator, closure and generators),
``element_order`` and ``generator_class``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .bitsets import bits, iter_bits, mask_of
from .numtheory import divisors, factorize, is_prime


class UnsupportedStructureError(ValueError):
    """Raised when an operation needs group structure that is not present."""


@dataclass(frozen=True)
class AbelianSpec:
    """A direct product of prime-power cyclic factors, canonically ordered.

    Two specs with the same multiset of (prime, exponent) factors compare
    equal; factors are stored sorted by (prime, exponent).
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted((int(p), int(e)) for p, e in self.factors))
        if not factors:
            raise ValueError("abelian spec needs at least one factor")
        for p, e in factors:
            if not is_prime(p):
                raise ValueError(f"factor base {p} is not prime")
            if e < 1:
                raise ValueError(f"factor exponent must be >= 1, got {e}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return prod(p**e for p, e in self.factors)


@dataclass(frozen=True)
class SylowDecomposition:
    """The facts read from the Sylow subgroups of a nilpotent group.

    ``primes`` lists the prime divisors of the order, ascending; the Sylow
    p-subgroup is ``cyclic.sylow_product(group, (p,))``. ``noncyclic`` lists
    the primes whose Sylow subgroup has no element of its own order,
    ``elementary`` those whose Sylow subgroup has exponent p, and
    ``quaternion`` says whether the 2-Sylow subgroup is non-cyclic with a
    unique involution, i.e. generalized quaternion.
    """

    primes: tuple[int, ...]
    noncyclic: tuple[int, ...]
    elementary: tuple[int, ...]
    quaternion: bool


class CyclicSubgroup(NamedTuple):
    """One cyclic subgroup <h>: h, its least generator, and as masks its
    members (``closure``) and the elements that generate it (``generators``).
    """

    generator: int
    closure: int
    generators: int

    @property
    def order(self) -> int:
        return self.closure.bit_count()

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(bits(self.closure))


class CyclicPoset(NamedTuple):
    """The poset of cyclic subgroups under inclusion, one node per cyclic
    subgroup Z, ordered by least generator (``Group.cyclic_poset``). Node
    i's entries: Z's least generator, the vertex mask of its generators,
    and as masks over the nodes the cyclic subgroups that contain Z
    (``up``) and those inside Z (``down``), Z in both."""

    least_generators: tuple[int, ...]
    generators: tuple[int, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]


class Group:
    """Base class: a finite group on indices 0..size-1 with identity 0."""

    name: str
    size: int

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, size={self.size})"

    def _power_walk(self, h: int) -> list[int]:
        """h**0, ..., h**(o-1), o the order of h: one multiplication per
        power. The base ``cyclic_poset`` walks one per cyclic subgroup."""
        walk = []
        x = 0
        while True:
            walk.append(x)
            x = self.mul(x, h)
            if x == 0:
                return walk

    @cached_property
    def cyclic_poset(self) -> CyclicPoset:
        """The poset of cyclic subgroups, walked: the least element h not
        yet listed is the least generator of a new node, ``_power_walk(h)``
        lists <h>, and its generators are the h**j with j prime to the
        order of h. Once every element has its node, the nodes inside <h>
        are those of its members, and ``up`` is the transpose of ``down``."""
        node_of = [-1] * self.size
        least: list[int] = []
        generators: list[int] = []
        walks: list[list[int]] = []
        # order o -> the exponents j < o prime to o (j = 0 only for o = 1)
        units: dict[int, list[int]] = {}
        for h in range(self.size):
            if node_of[h] >= 0:
                continue
            walk = self._power_walk(h)
            o = len(walk)
            if o not in units:
                units[o] = [j for j in range(o) if gcd(j, o) == 1]
            gens = [walk[j] for j in units[o]]
            for x in gens:
                node_of[x] = len(least)
            least.append(h)
            generators.append(mask_of(gens))
            walks.append(walk)
        # distinct node bits: their sum is their OR
        down = [sum({1 << node_of[x] for x in walk}) for walk in walks]
        up = [0] * len(down)
        for i, below in enumerate(down):
            for j in iter_bits(below):
                up[j] |= 1 << i
        return CyclicPoset(tuple(least), tuple(generators), tuple(up), tuple(down))

    @cached_property
    def _node_of(self) -> tuple[int, ...]:
        """Per element, its node of ``cyclic_poset``: the one whose
        generators hold it."""
        node_of = [0] * self.size
        for i, mask in enumerate(self.cyclic_poset.generators):
            for x in bits(mask):
                node_of[x] = i
        return tuple(node_of)

    def _node(self, g: int) -> int:
        """The node of g, checked to be an element index."""
        if not 0 <= g < self.size:
            raise ValueError(f"element index {g} out of range [0, {self.size})")
        return self._node_of[g]

    def _closure(self, i: int) -> int:
        """The cyclic subgroup of node i of ``cyclic_poset`` as a vertex
        mask: the generators of the nodes below it, disjoint masks whose sum
        is their OR."""
        poset = self.cyclic_poset
        return sum(map(poset.generators.__getitem__, iter_bits(poset.down[i])))

    @cached_property
    def _node_closures(self) -> tuple[int, ...]:
        """Per node of ``cyclic_poset``, its ``_closure``."""
        return tuple(map(self._closure, range(len(self.cyclic_poset.down))))

    @cached_property
    def _node_orders(self) -> tuple[int, ...]:
        """Per node of ``cyclic_poset``, the order of its cyclic subgroup."""
        return tuple(closure.bit_count() for closure in self._node_closures)

    @cached_property
    def closure_masks(self) -> tuple[int, ...]:
        """Per element, the cyclic closure <g> as a vertex bitmask."""
        return tuple(map(self._node_closures.__getitem__, self._node_of))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(map(self._node_orders.__getitem__, self._node_of))

    def cyclic_subgroup(self, g: int) -> CyclicSubgroup:
        """<g>, read off its node of ``cyclic_poset``."""
        i = self._node(g)
        poset = self.cyclic_poset
        return CyclicSubgroup(poset.least_generators[i], self._node_closures[i], poset.generators[i])

    def element_order(self, g: int) -> int:
        return self._node_orders[self._node(g)]

    def generator_class(self, g: int) -> frozenset[int]:
        """All elements generating the same cyclic subgroup as g."""
        return frozenset(iter_bits(self.cyclic_poset.generators[self._node(g)]))

    @cached_property
    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in range(self.size)
            for b in range(a + 1, self.size)
        )

    @cached_property
    def is_cyclic(self) -> bool:
        """A cyclic group is abelian, hence nilpotent, and a nilpotent group
        is cyclic exactly when each of its Sylow subgroups is."""
        return self.is_nilpotent and not self.sylow_decomposition().noncyclic

    @cached_property
    def maximal_cyclics(self) -> tuple[CyclicSubgroup, ...]:
        """The maximal cyclic subgroups, the nodes of ``cyclic_poset`` below
        no other, in node (least-generator) order. Only their closures are
        summed: the other nodes need none. ``CyclicGroup`` and a
        ``ProductGroup`` with a coprime cut build no poset for them; a
        dihedral or quaternion group and a product with no coprime cut read
        them here."""
        poset = self.cyclic_poset
        return tuple(
            CyclicSubgroup(least, self._closure(i), mask)
            for i, (least, mask, up) in enumerate(zip(poset.least_generators, poset.generators, poset.up))
            if up == 1 << i
        )

    def elements_of_order_dividing(self, m: int) -> frozenset[int]:
        """The elements g with g**m the identity: the generators of the
        nodes of ``cyclic_poset`` whose order divides m."""
        masks = (mask for mask, o in zip(self.cyclic_poset.generators, self._node_orders) if m % o == 0)
        return frozenset(bits(sum(masks)))

    def count_of_order_dividing(self, m: int) -> int:
        """The number of elements g with g**m the identity: the generators
        of the nodes of ``cyclic_poset`` whose order divides m, counted off
        their masks."""
        return sum(mask.bit_count() for mask, o in zip(self.cyclic_poset.generators, self._node_orders) if m % o == 0)

    @cached_property
    def _p_elements(self) -> tuple[tuple[int, int, int], ...]:
        """Per prime power q = p**e exactly dividing the order, ascending:
        (p, q, the number of p-elements, those g with g**q the identity)."""
        return tuple((p, p**e, self.count_of_order_dividing(p**e)) for p, e in factorize(self.size))

    @cached_property
    def is_nilpotent(self) -> bool:
        """True iff for every prime p the p-elements number exactly |Sylow_p|.

        The p-elements of a group are the union of its Sylow p-subgroups, so
        this count criterion is equivalent to every Sylow subgroup being
        normal (unique), i.e. to nilpotency for finite groups. It costs one
        ``count_of_order_dividing`` per prime, abelian groups included.
        """
        return self._non_normal_sylow is None

    @cached_property
    def _non_normal_sylow(self) -> tuple[int, int, int] | None:
        """(p, the number of p-elements, |Sylow_p|) at the least prime p whose
        p-elements are not one subgroup, or None."""
        for p, q, count in self._p_elements:
            if count != q:
                return p, count, q
        return None

    def sylow_decomposition(self) -> SylowDecomposition:
        """The facts of the Sylow subgroups; the group must be nilpotent.

        Computed once per group; a non-nilpotent group raises on every call.
        """
        return self._sylow_decomposition

    @cached_property
    def _sylow_decomposition(self) -> SylowDecomposition:
        if self._non_normal_sylow is not None:
            p, count, q = self._non_normal_sylow
            raise UnsupportedStructureError(
                f"{self.name}: Sylow {p}-subgroup is not normal "
                f"({count} {p}-elements, expected {q})"
            )
        noncyclic = []
        elementary = []
        quaternion = False
        # the p-elements are the Sylow p-subgroup, of order q, and hold every
        # g with g**(p**k) the identity
        for p, q, _ in self._p_elements:
            count = [self.count_of_order_dividing(m) for m in (p, q // p)]
            if count[1] == q:  # no element of order q
                noncyclic.append(p)
                if p == 2:
                    quaternion = count[0] == 2  # a unique involution
            if count[0] == q:
                elementary.append(p)
        return SylowDecomposition(
            tuple(p for p, *_ in self._p_elements),
            tuple(noncyclic),
            tuple(elementary),
            quaternion,
        )


def _spread(mask: int, width: int) -> int:
    """The mask with bit i moved to bit i * width: times a mask of at most
    ``width`` bits, it places a copy of that mask at block i for each bit i
    of ``mask``, with no carry, a Kronecker product of the two."""
    return int(("0" * (width - 1)).join(bin(mask)[2:]), 2)


def _kron(outer: Iterable[tuple], inner: Sequence[tuple], size: int, widths: tuple[int, ...]) -> list[tuple]:
    """The rows (least generator, masks...) of a product of two parts of
    coprime orders, one per pair of rows of the outer and the inner part,
    of order ``size``, the outer varying slowest: least generator
    ``least * size + inner_least``, each mask ``_spread(mask, width) *
    inner_mask``, ``width`` the inner mask's width. Each cyclic subgroup is
    one pair of the parts' ones, its members and generators their pairs; a
    pair lies inside another exactly when each part does, so node masks
    multiply too and a pair is maximal exactly when each part is. Element
    indices compare as their digits do, most significant first, so the
    pairs are in least-generator order when each part's rows are."""
    rows = []
    for least, *masks in outer:
        spread = [_spread(mask, width) for mask, width in zip(masks, widths)]
        rows.extend((least * size + row[0], *map(mul, spread, row[1:])) for row in inner)
    return rows


def _multiples(k: int, n: int) -> int:
    """The mask of the multiples of k below n, k | n, by doubling: per
    binary digit of their number n/k, from the top, the run so far doubles
    by a shift and a digit 1 adds one more, so no bit needs masking off."""
    mask = span = 0
    for digit in bin(n // k)[2:]:
        mask |= mask << span
        span *= 2
        if digit == "1":
            mask = mask << k | 1
            span += k
    return mask


def _generators(n: int, d: int) -> int:
    """The generators of the subgroup of order d of C_n as a mask, d | n:
    the residues k with gcd(k, n) = n/d, the multiples of n/d less those of
    (n/d)*p for each prime p dividing d."""
    k = n // d
    dropped = 0
    for p, _ in factorize(d):
        dropped |= _multiples(k * p, n)
    return _multiples(k, n) ^ dropped


class CyclicGroup(Group):
    """C_n with residue arithmetic (element k is the k-th power of a
    generator); its generator masks all come from ``_generators``."""

    is_abelian = True
    is_cyclic = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        self.size = n
        self.name = f"C{n}"

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.size

    def _power_walk(self, h: int) -> list[int]:
        n = self.size
        return [j * h % n for j in range(n // gcd(h, n))]

    @cached_property
    def cyclic_poset(self) -> CyclicPoset:
        """The divisor lattice, with no walk: the subgroup of order d is
        <n/d>, the multiples of n/d, so its least generator is n/d (the
        identity 0 for d = 1) and its generators ``_generators(n, d)``. In
        least-generator order d = 1 comes first, then the other divisors
        descending."""
        n = self.size
        orders = divisors(n)
        orders = orders[:1] + orders[:0:-1]
        return CyclicPoset(
            tuple(n // d % n for d in orders),
            tuple(_generators(n, d) for d in orders),
            tuple(sum(1 << j for j, e in enumerate(orders) if e % d == 0) for d in orders),
            tuple(sum(1 << j for j, e in enumerate(orders) if d % e == 0) for d in orders),
        )

    @cached_property
    def maximal_cyclics(self) -> tuple[CyclicSubgroup, ...]:
        """The group itself, with no poset: least generator 1 (the identity
        0 in C1), every residue a member, and as generators the units,
        ``_generators(n, n)``. The closure comes first, so an order too
        large for memory fails on it at once."""
        n = self.size
        return (CyclicSubgroup(1 % n, (1 << n) - 1, _generators(n, n)),)

    def elements_of_order_dividing(self, m: int) -> frozenset[int]:
        n = self.size
        return frozenset(range(0, n, n // gcd(n, m)))

    def count_of_order_dividing(self, m: int) -> int:
        return gcd(self.size, m)


class DihedralLikeGroup(Group):
    """<a, b | b*a*b**-1 = a**-1, b*b = a**twist>, a of order ``half``.

    Element e*half + i is a**i * b**e. ``mirrored`` swaps the operands of
    ``mul``: the opposite group, on the same indices, where element
    e*half + i is b**e * a**i. ``make_dihedral`` and
    ``make_generalized_quaternion`` build it only with half >= 3 and twist
    0 or half/2, so a and b do not commute and no element has order 2*half.

    Its cyclic subgroups are read off the presentation, with no walk: those
    of <a>, the elements 0..half-1, and one <x> per x = half + i outside <a>.
    Such an x is a**i b or b a**i = a**-i b, and either way x*x = a**twist
    and x**3 = a**twist * x = half + (i + twist) % half. So <x> meets <a> in
    <a**twist>: when twist is 0 it has order 2, above the identity only;
    when twist is half/2 it has order 4 and the two generators half + i and
    half + (i + twist) % half, above the identity and <a**twist>.
    """

    # with half >= 3, b*a = a**-1 * b differs from a*b
    is_abelian = False

    def __init__(self, name: str, half: int, twist: int, mirrored: bool = False):
        self.name = name
        self.size = 2 * half
        self._half = half
        self._twist = twist
        self._mirrored = mirrored

    def mul(self, x: int, y: int) -> int:
        if self._mirrored:
            x, y = y, x
        h = self._half
        if x < h:  # a**i * a**j b**e = a**(i+j) b**e
            return y - y % h + (x + y) % h
        i = (x - y) % h  # a**i b * a**j b**e = a**(i-j) b**(1+e)
        return h + i if y < h else (i + self._twist) % h

    @cached_property
    def cyclic_poset(self) -> CyclicPoset:
        """The divisor lattice of <a> (``CyclicGroup(half).cyclic_poset``,
        whose element indices are already the rotations'), then one node per
        <x> outside <a>, by least generator x = half + i, i < half or
        i < twist, each above the identity and <a**twist> (one node when
        twist is 0) and below nothing else. Its generators are x and
        x**3 = x + twist."""
        half, twist = self._half, self._twist
        rotations = CyclicGroup(half).cyclic_poset
        k = len(rotations.up)
        outside = range(half, half + (twist or half))
        nodes = range(k, k + len(outside))
        below = 1 | 1 << rotations.least_generators.index(twist)
        above = sum(1 << c for c in nodes)
        return CyclicPoset(
            rotations.least_generators + tuple(outside),
            rotations.generators + tuple(1 << x | 1 << x + twist for x in outside),
            tuple(up | above if below >> j & 1 else up for j, up in enumerate(rotations.up))
            + tuple(1 << c for c in nodes),
            rotations.down + tuple(below | 1 << c for c in nodes),
        )

    def count_of_order_dividing(self, m: int) -> int:
        # the rotations as in C_half, and the half elements x outside <a>
        # once their order, 2 when twist is 0 and 4 otherwise, divides m
        half = self._half
        return gcd(half, m) + (0 if m % (4 if self._twist else 2) else half)


class ProductGroup(Group):
    """Direct product g_1 x ... x g_k of the factor groups, mixed-radix indexed.

    Factor i is the digit of radix |g_i| at place value w_i, the product of
    the later sizes, so (a, b) in g1 x g2 is a*|g2| + b. Products multiply
    digit by digit through each factor's ``mul``; powers are listed from the
    factors' power lists, and the product is abelian iff every factor is.
    Elements of order dividing m are listed digit by digit too, and
    counted as the product of the factors' counts; the poset of cyclic
    subgroups and the maximal cyclic subgroups come from a cut of the
    factors into parts of coprime orders, multiplied out by ``_kron``.
    """

    def __init__(self, factors: tuple[Group, ...]):
        self.factors = factors
        sizes = [g.size for g in factors]
        self._places = tuple((g, prod(sizes[i + 1 :])) for i, g in enumerate(factors))
        self.size = prod(sizes)
        self.name = "x".join(g.name for g in factors)

    def encode(self, coords: tuple[int, ...]) -> int:
        return sum(x % g.size * w for x, (g, w) in zip(coords, self._places))

    def mul(self, a: int, b: int) -> int:
        return sum(g.mul(a // w % g.size, b // w % g.size) * w for g, w in self._places)

    def _power_walk(self, h: int) -> list[int]:
        """The digit of h**j at factor g is d**j, d that of h: each nonzero
        digit's power list in g, scaled by its place value, is repeated out to
        the lcm of the lists' lengths, the order of h, and the lists are
        summed elementwise. A zero digit is 0 in every power, so it is skipped."""
        lists = []
        for g, w in self._places:
            d = h // w % g.size
            if d:
                lists.append([x * w for x in g._power_walk(d)])
        if not lists:
            return [0]
        o = lcm(*map(len, lists))
        powers = lists[0] * (o // len(lists[0]))
        for digits in lists[1:]:
            powers = list(map(add, powers, digits * (o // len(digits))))
        return powers

    @cached_property
    def is_abelian(self) -> bool:
        return all(g.is_abelian for g in self.factors)

    @cached_property
    def _coprime_parts(self) -> tuple[Group, ...] | None:
        """The factors, cut into parts wherever those before and after have
        coprime orders; None if there is no cut. The poset and the maximal
        cyclic subgroups are the parts' ones multiplied out (``_kron``)."""
        sizes = [g.size for g in self.factors]
        cuts = [k for k in range(1, len(sizes)) if gcd(prod(sizes[:k]), prod(sizes[k:])) == 1]
        if not cuts:
            return None
        bounds = [0, *cuts, len(sizes)]
        return tuple(
            self.factors[i] if j == i + 1 else ProductGroup(self.factors[i:j])
            for i, j in zip(bounds, bounds[1:])
        )

    @cached_property
    def cyclic_poset(self) -> CyclicPoset:
        """With a coprime cut (``_coprime_parts``), the product of the parts'
        posets (``_kron``), its generators spread by the part's order and its
        ``up`` and ``down`` by the part's node count. Otherwise walked as in
        ``Group.cyclic_poset``, one power list per cyclic subgroup."""
        parts = self._coprime_parts
        if parts is None:
            return Group.cyclic_poset.func(self)
        poset = parts[0].cyclic_poset
        for part in parts[1:]:
            inner = part.cyclic_poset
            k = len(inner.up)
            rows = _kron(zip(*poset), list(zip(*inner)), part.size, (part.size, k, k))
            poset = CyclicPoset(*zip(*rows))
        return poset

    @cached_property
    def maximal_cyclics(self) -> tuple[CyclicSubgroup, ...]:
        """With a coprime cut (``_coprime_parts``), the tuples of the parts'
        maximal cyclic subgroups (``_kron``), with no poset, in the node
        order of ``cyclic_poset``. Otherwise read off the poset as in
        ``Group.maximal_cyclics``."""
        parts = self._coprime_parts
        if parts is None:
            return Group.maximal_cyclics.func(self)
        maximal = parts[0].maximal_cyclics
        for part in parts[1:]:
            rows = _kron(maximal, part.maximal_cyclics, part.size, (part.size, part.size))
            maximal = tuple(map(CyclicSubgroup._make, rows))
        return maximal

    def elements_of_order_dividing(self, m: int) -> frozenset[int]:
        # g**m is the identity exactly when each digit's m-th power is
        elements = [0]
        for g, w in self._places:
            digits = g.elements_of_order_dividing(m)
            if len(digits) > 1:
                elements = [x + d * w for x in elements for d in digits]
        return frozenset(elements)

    def count_of_order_dividing(self, m: int) -> int:
        return prod(g.count_of_order_dividing(m) for g in self.factors)


def make_cyclic(n: int) -> Group:
    """The cyclic group of order n >= 1."""
    return CyclicGroup(n)


def make_abelian(spec: AbelianSpec | list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Group:
    """Abelian group as the direct product of the cyclic groups C_{p**e}
    over the spec's factors, in canonical order; named like C2xC4xC3."""
    if not isinstance(spec, AbelianSpec):
        spec = AbelianSpec(tuple(spec))
    return ProductGroup(tuple(CyclicGroup(p**e) for p, e in spec.factors))


def make_dihedral(order: int) -> Group:
    """Dihedral group of the given even order 2n, n >= 3.

    Elements 0..n-1 are the rotations r**i; elements n..2n-1 are the
    reflections s*r**i.
    """
    if order % 2 != 0 or order < 6:
        raise ValueError(f"dihedral order must be even and >= 6, got {order}")
    # s**e * r**i is the mirror image of a**i * b**e, so this layout is the
    # opposite group of <a, b | b*a*b**-1 = a**-1, b*b = 1>
    return DihedralLikeGroup(f"D{order}", order // 2, 0, mirrored=True)


def make_generalized_quaternion(order: int) -> Group:
    """Generalized quaternion group of order 2**m, m >= 3.

    Presentation with a of order 2**(m-1) and b satisfying b*b = a**(2**(m-2))
    and b*a*b**-1 = a**-1. Elements 0..N-1 are a**i (N = order/2); elements
    N..order-1 are a**i * b.
    """
    f = factorize(order) if order >= 2 else ()
    if len(f) != 1 or f[0][0] != 2 or order < 8:
        raise ValueError(f"generalized quaternion order must be 2**m with m >= 3, got {order}")
    return DihedralLikeGroup(f"Q{order}", order // 2, order // 4)


def direct_product(g1: Group, g2: Group) -> Group:
    """The two-factor product g1 x g2; the index of (a, b) is a*|g2| + b."""
    return ProductGroup((g1, g2))
