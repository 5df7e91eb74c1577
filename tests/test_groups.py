import copy
import json
import re
from collections import Counter
from functools import cache, cached_property, partial, reduce
from itertools import combinations
from math import gcd, prod

import pytest

from powergraphs.bitsets import bits, iter_bits, mask_of
from powergraphs.cli import main, parse_group_spec
from powergraphs.cyclic import (
    elements_of_dividing_order,
    elements_of_exact_order,
    external_overlap,
    sylow_product,
)
from powergraphs.groups import (
    AbelianSpec,
    CyclicGroup,
    CyclicSubgroup,
    DihedralLikeGroup,
    Group,
    ProductGroup,
    SylowDecomposition,
    UnsupportedStructureError,
    direct_product,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from powergraphs.harness import corpus_groups, generate_abelian_corpus
from powergraphs.numtheory import divisors, euler_phi, factorize, p_adic_valuation
from powergraphs.powergraph import build_power_graph


def check_group_axioms(G):
    n = G.size
    assert all(G.mul(0, a) == a and G.mul(a, 0) == a for a in range(n))
    for a in range(n):
        inv = naive_closure(G, a)[-1]  # a**(o-1), o the order of a
        assert G.mul(a, inv) == 0 and G.mul(inv, a) == 0
    if n <= 24:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_abelian_spec_canonical_order():
    a = AbelianSpec(((3, 1), (2, 2), (2, 1)))
    b = AbelianSpec(((2, 1), (2, 2), (3, 1)))
    assert a == b
    assert a.factors == ((2, 1), (2, 2), (3, 1))
    assert a.order == 24
    assert make_abelian(a).name == "C2xC4xC3"


def test_abelian_spec_rejects_bad_factors():
    with pytest.raises(ValueError):
        AbelianSpec(())
    with pytest.raises(ValueError):
        AbelianSpec(((4, 1),))
    with pytest.raises(ValueError):
        AbelianSpec(((3, 0),))


def test_make_cyclic_trivial_and_basic():
    G1 = make_cyclic(1)
    assert G1.size == 1 and G1.element_orders == (1,)
    G6 = make_cyclic(6)
    assert max(G6.element_orders) == 6
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_make_cyclic_residue_arithmetic():
    G = make_cyclic(12)
    for i in range(12):
        for j in range(12):
            assert G.mul(i, j) == (i + j) % 12


def test_cyclic_12_order_counts():
    G = make_cyclic(12)
    counts = Counter(G.element_orders)
    # one element per divisor class, phi(d) elements of order d
    assert counts == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    assert counts[12] == euler_phi(12)


def test_klein_four_orders():
    G = make_abelian([(2, 1), (2, 1)])
    assert sorted(G.element_orders) == [1, 2, 2, 2]
    check_group_axioms(G)


def test_example_group_of_order_12():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    assert G.size == 12
    check_group_axioms(G)


def test_abelian_order_225_element_orders():
    G = make_abelian([(3, 1), (3, 1), (5, 2)])
    assert G.size == 225
    assert set(G.element_orders) == {1, 3, 5, 15, 25, 75}


def test_mixed_radix_component_order():
    G = make_abelian([(2, 2), (3, 1)])  # C4 x C3
    g = G.encode((1, 1))
    assert G.element_order(g) == 12


def test_quaternion_8():
    Q8 = make_generalized_quaternion(8)
    check_group_axioms(Q8)
    counts = Counter(Q8.element_orders)
    assert counts == {1: 1, 2: 1, 4: 6}


def test_quaternion_rejects_bad_orders():
    for bad in (4, 6, 12, 24):
        with pytest.raises(ValueError):
            make_generalized_quaternion(bad)


def test_quaternion_16_single_involution():
    Q16 = make_generalized_quaternion(16)
    assert sum(1 for o in Q16.element_orders if o == 2) == 1


def test_dihedral_involutions():
    D6 = make_dihedral(6)
    check_group_axioms(D6)
    assert sum(1 for o in D6.element_orders if o == 2) == 3
    D8 = make_dihedral(8)
    assert sum(1 for o in D8.element_orders if o == 2) == 5
    with pytest.raises(ValueError):
        make_dihedral(7)
    with pytest.raises(ValueError):
        make_dihedral(4)


def test_element_order_examples():
    G = make_cyclic(12)
    assert G.element_order(0) == 1
    assert G.element_order(1) == 12


def test_orders_divide_group_order():
    for G in (
        make_cyclic(24),
        make_abelian([(2, 2), (3, 1), (5, 1)]),
        make_generalized_quaternion(16),
        make_dihedral(14),
    ):
        for g in range(G.size):
            assert G.size % G.element_order(g) == 0


def test_cyclic_closure():
    G = make_cyclic(8)
    assert G.cyclic_subgroup(0).elements == {0}
    assert G.cyclic_subgroup(2).elements == {0, 2, 4, 6}
    assert len(G.cyclic_subgroup(2).elements) == G.element_order(2)


def naive_classes(G):
    """Each cyclic subgroup's members mapped to its generators, by the
    multiplication walk of every element, in order of least generator."""
    classes = {}
    for g in range(G.size):
        classes.setdefault(frozenset(naive_closure(G, g)), set()).add(g)
    return {closure: frozenset(members) for closure, members in classes.items()}


def test_generator_classes_partition():
    for G in (make_cyclic(12), make_abelian([(2, 1), (2, 1), (3, 1)]), make_dihedral(10)):
        classes = naive_classes(G)
        assert [G.generator_class(min(c)) for c in classes.values()] == list(classes.values())
        assert sum(map(len, classes.values())) == G.size
        for closure, members in classes.items():
            assert len(members) == euler_phi(len(closure))
    # C12: one class per divisor of 12
    assert len({make_cyclic(12).generator_class(g) for g in range(12)}) == 6


def test_poset_nodes_one_per_cyclic_subgroup_by_least_generator():
    for G in (make_cyclic(12), make_abelian([(2, 1), (2, 1), (3, 1)]), make_dihedral(10)):
        classes = naive_classes(G)
        subs = [G.cyclic_subgroup(h) for h in G.cyclic_poset.least_generators]
        assert [m.elements for m in subs] == list(classes)
        for m in subs:
            assert m.generator == min(classes[m.elements])
            assert m.order == len(m.elements)
            assert frozenset(iter_bits(m.generators)) == classes[m.elements]
            outside = [c for c in classes if m.elements < c]
            assert (m in G.maximal_cyclics) == (not outside)


def test_cyclic_subgroup_is_the_record_of_each_generator():
    # corpus_groups(60) holds D6-D20 and Q8-Q32 besides the abelian groups
    groups = [*corpus_groups(60), direct_product(make_generalized_quaternion(8), make_cyclic(3))]
    for G in groups:
        for closure, members in naive_classes(G).items():
            sub = CyclicSubgroup(min(members), mask_of(closure), mask_of(members))
            for g in members:
                assert G.cyclic_subgroup(g) == sub, (G.name, g)
                assert G.element_order(g) == len(closure)
                assert G.generator_class(g) == members
        for bad in (-1, G.size):
            for read in (G.cyclic_subgroup, G.element_order, G.generator_class):
                with pytest.raises(ValueError, match=rf"element index {bad} out of range"):
                    read(bad)


def test_generator_class_of_order_6_element():
    G = make_cyclic(6)
    assert G.generator_class(1) == {1, 5}
    assert len(G.generator_class(1)) == euler_phi(6)
    assert G.generator_class(0) == {0}


def test_sylow_decomposition_cyclic_12():
    G = make_cyclic(12)
    dec = G.sylow_decomposition()
    assert dec.primes == (2, 3)
    assert len(sylow_product(G, (2,))) == 4
    assert len(sylow_product(G, (3,))) == 3


def test_sylow_decomposition_example_group():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    assert G.sylow_decomposition().primes == (2, 3)
    assert sorted(G.element_order(g) for g in sylow_product(G, (2,))) == [1, 2, 2, 2]
    assert len(sylow_product(G, (3,))) == 3


def test_sylow_rejects_dihedral_6():
    D6 = make_dihedral(6)
    assert not D6.is_nilpotent
    for _ in range(2):  # a failed decomposition is not cached
        with pytest.raises(UnsupportedStructureError):
            D6.sylow_decomposition()


def test_sylow_decomposition_facts_match_definitions():
    groups = list(corpus_groups(64)) + [
        direct_product(make_generalized_quaternion(8), make_cyclic(3)),
        make_dihedral(8),
        make_dihedral(16),
    ]
    quaternion_names = set()
    for G in groups:
        if not G.is_nilpotent:
            continue
        dec = G.sylow_decomposition()
        assert G.sylow_decomposition() is dec
        orders = G.element_orders
        sylows = {p: sylow_product(G, (p,)) for p in dec.primes}
        noncyclic = tuple(
            p for p, members in sylows.items() if all(orders[g] != len(members) for g in members)
        )
        elementary = tuple(
            p for p, members in sylows.items() if all(p % orders[g] == 0 for g in members)
        )
        quaternion = 2 in noncyclic and sum(1 for g in sylows[2] if orders[g] == 2) == 1
        assert dec.noncyclic == noncyclic, G.name
        assert dec.elementary == elementary, G.name
        assert dec.quaternion == quaternion, G.name
        if quaternion:
            quaternion_names.add(G.name)
    assert quaternion_names == {"Q8", "Q16", "Q32", "Q8xC3"}


def reference_p_elements(G):
    """Per prime divisor p of the order, ascending, the elements of p-power
    order, read off every element's order."""
    orders = G.element_orders
    return tuple(
        frozenset(g for g, o in enumerate(orders) if o == p ** p_adic_valuation(o, p))
        for p, _ in factorize(G.size)
    )


def reference_is_nilpotent(G):
    return all(
        len(members) == p**e
        for (p, e), members in zip(factorize(G.size), reference_p_elements(G))
    )


def reference_sylow_decomposition(G):
    orders = G.element_orders
    factors = factorize(G.size)
    noncyclic, elementary = [], []
    quaternion = False
    for (p, e), members in zip(factors, reference_p_elements(G)):
        if len(members) != p**e:
            raise UnsupportedStructureError(
                f"{G.name}: Sylow {p}-subgroup is not normal "
                f"({len(members)} {p}-elements, expected {p**e})"
            )
        if max(orders[g] for g in members) != len(members):
            noncyclic.append(p)
            if p == 2:
                quaternion = sum(1 for g in members if orders[g] == 2) == 1
        if all(orders[g] in (1, p) for g in members):
            elementary.append(p)
    return SylowDecomposition(
        tuple(p for p, _ in factors),
        tuple(noncyclic),
        tuple(elementary),
        quaternion,
    )


def reference_sylow_product(G, primes):
    m = prod(p ** p_adic_valuation(G.size, p) for p in primes)
    return frozenset(g for g, o in enumerate(G.element_orders) if m % o == 0)


# (theorem or None for maximal-cyclics, abelian spec) of each request of the
# predict-oversize benchmark workload: groups above the brute-force cap
PREDICT_OVERSIZE_REQUESTS = (
    ("thm12", ((2, 1), (3, 1), (3, 1), (5, 1), (7, 1))),
    ("thm12", ((2, 1), (2, 1), (2, 1), (3, 1), (5, 1), (7, 1))),
    ("thm12", ((2, 2), (2, 2), (3, 1), (5, 1), (7, 1))),
    ("thm13", ((2, 1), (2, 1), (3, 5))),
    ("thm14", ((2, 1), (2, 1), (3, 2), (5, 2))),
    (None, ((2, 1), (2, 1), (3, 2), (5, 2))),
    (None, ((2, 1), (2, 1), (2, 1), (3, 1), (5, 1), (7, 1))),
)


def sylow_factored_groups():
    """Products that answer their structure from their factors, with
    non-abelian and nested factors, a non-nilpotent factor (D20), factors
    sharing a prime on both sides of a coprime one (C3xC4xC3), and the
    predict-oversize groups."""
    C = make_cyclic
    Q8 = make_generalized_quaternion(8)
    return [
        ProductGroup((C(3), C(4), C(3), C(5))),
        direct_product(Q8, C(3)),
        direct_product(Q8, C(75)),
        direct_product(make_dihedral(8), C(5)),
        direct_product(make_dihedral(20), C(9)),
        direct_product(make_generalized_quaternion(16), make_abelian([(3, 1), (3, 1), (5, 1)])),
        *map(make_abelian, dict.fromkeys(spec for _, spec in PREDICT_OVERSIZE_REQUESTS)),
    ]


def sylow_oracle_groups():
    """The corpus, dihedral and quaternion groups, products with a
    non-abelian factor and no coprime cut (D8xC2, Q8xC4, D8xD8), whose
    poset comes from their records, and ``sylow_factored_groups``."""
    C3 = make_cyclic(3)
    D8 = make_dihedral(8)
    Q8 = make_generalized_quaternion(8)
    return (
        list(corpus_groups(120))
        + [make_dihedral(n) for n in range(6, 65, 2)]
        + [make_generalized_quaternion(n) for n in (8, 16, 32, 64)]
        + [
            direct_product(Q8, make_cyclic(5)),
            direct_product(make_generalized_quaternion(16), C3),
            direct_product(Q8, make_abelian([(3, 1), (3, 1)])),
            direct_product(D8, make_cyclic(2)),
            direct_product(Q8, make_cyclic(4)),
            direct_product(D8, D8),
        ]
        + sylow_factored_groups()
    )


def structure_facts(G):
    """is_cyclic, is_nilpotent, the Sylow decomposition or its error text,
    the Sylow subgroups' elements by prime, the maximal records, the Sylow
    products by prime set and the external overlaps, as the group answers
    them."""
    try:
        dec = G.sylow_decomposition()
    except UnsupportedStructureError as exc:
        dec = str(exc)
    sylows = None
    maximal = G.maximal_cyclics
    products = {}
    if not isinstance(dec, str):
        sylows = tuple(sylow_product(G, (p,)) for p in dec.primes)
        for r in range(1, len(dec.primes) + 1):
            for primes in combinations(dec.primes, r):
                products[primes] = sylow_product(G, primes)
    overlaps = None if G.is_cyclic else list(external_overlap(G))
    return G.is_cyclic, G.is_nilpotent, dec, sylows, maximal, products, overlaps


def maximal_closures(G):
    """The closure masks of the maximal cyclic subgroups, by definition: the
    distinct cyclic closures inside no other. Each member x of a closure
    <y> with <x> != <y> has its closure strictly inside <y>."""
    closures = G.closure_masks
    inside = {closures[x] for c in set(closures) for x in bits(c) if closures[x] != c}
    return set(closures) - inside


def overlap_by_definition(G, m):
    """The members of M that lie in <y> for some y outside M: the closures
    not inside M, joined and met with M."""
    reached = 0
    for c in set(G.closure_masks):
        if c & ~m.closure:
            reached |= c
    return frozenset(bits(m.closure & reached))


def walked_by_multiplication(G):
    """A fresh copy of G, none of its cached structure kept, whose poset and
    so its per-element lookups come from the base multiplication walk: a
    reference for the closed forms, residues and factor lists."""
    ref = copy.copy(G)
    for name in list(vars(ref)):
        if isinstance(getattr(type(ref), name, None), cached_property):
            del vars(ref)[name]
    ref._power_walk = partial(Group._power_walk, ref)
    ref.cyclic_poset = Group.cyclic_poset.func(ref)
    return ref


def reference_maximal_cyclics(G):
    """The maximal cyclic subgroups by definition (``maximal_closures``),
    each with its generators, in order of least generator."""
    tops = maximal_closures(G)
    generators = {}
    for g, c in enumerate(G.closure_masks):
        if c in tops:
            generators[c] = generators.get(c, 0) | 1 << g
    return tuple(CyclicSubgroup((m & -m).bit_length() - 1, c, m) for c, m in generators.items())


def reference_structure_facts(G):
    """The same facts read off every element's order and cyclic closure in
    G's multiplication walk (``walked_by_multiplication``)."""
    G = walked_by_multiplication(G)
    try:
        dec = reference_sylow_decomposition(G)
    except UnsupportedStructureError as exc:
        dec = str(exc)
    sylows = None if isinstance(dec, str) else reference_p_elements(G)
    maximal = reference_maximal_cyclics(G)
    products = {}
    if not isinstance(dec, str):
        for r in range(1, len(dec.primes) + 1):
            for primes in combinations(dec.primes, r):
                products[primes] = reference_sylow_product(G, primes)
    is_cyclic = max(G.element_orders) == G.size
    overlaps = None if is_cyclic else [overlap_by_definition(G, m) for m in maximal]
    return is_cyclic, reference_is_nilpotent(G), dec, sylows, maximal, products, overlaps


def test_sylow_data_and_order_shells_match_per_element_reference():
    quaternion = {}
    messages = {}
    for G in sylow_oracle_groups():
        looked_up_first = copy.copy(G)
        # the group's own answers first, before the reference walks every element
        facts = structure_facts(G)
        assert facts == reference_structure_facts(G), G.name
        # and the same once the per-element lookups have been read
        looked_up_first.closure_masks
        assert structure_facts(looked_up_first) == facts, G.name
        dec = facts[2]
        if isinstance(dec, str):
            messages[G.name] = dec
        else:
            quaternion[G.name] = dec.quaternion
        # the shells of order d in M (the node of order d below M's) by
        # definition: M's members h**k walked by multiplication, of order
        # o / gcd(k, o)
        for M in G.maximal_cyclics:
            members = naive_closure(G, M.generator)
            o = len(members)
            orders = {x: o // gcd(k, o) for k, x in enumerate(members)}
            for d in divisors(o):
                exact = frozenset(g for g in members if orders[g] == d)
                dividing = frozenset(g for g in members if d % orders[g] == 0)
                assert elements_of_exact_order(G, M, d) == exact, (G.name, M.generator, d)
                assert elements_of_dividing_order(G, M, d) == dividing, (G.name, M.generator, d)
    assert quaternion["Q8xC3"] and quaternion["Q16xC3xC3xC5"] and not quaternion["D8xC5"]
    assert messages["D20xC9"] == "D20xC9: Sylow 2-subgroup is not normal (12 2-elements, expected 4)"
    assert messages["D6"] == "D6: Sylow 2-subgroup is not normal (4 2-elements, expected 2)"
    assert messages["D10"] == "D10: Sylow 2-subgroup is not normal (6 2-elements, expected 2)"
    assert messages["D12"] == "D12: Sylow 2-subgroup is not normal (8 2-elements, expected 4)"


def test_abelian_is_nilpotent_without_closures():
    for G in (make_cyclic(12), make_abelian([(2, 1), (2, 1), (3, 1)])):
        assert G.is_nilpotent
        assert "closure_masks" not in vars(G)


def test_quaternion_is_nilpotent():
    assert make_generalized_quaternion(8).is_nilpotent


def test_direct_product_structure():
    G = direct_product(make_generalized_quaternion(8), make_cyclic(3))
    assert G.size == 24
    assert not G.is_abelian
    assert G.is_nilpotent
    assert max(G.element_orders) == 12


def test_is_cyclic_and_abelian_flags():
    assert make_cyclic(9).is_cyclic
    assert not make_abelian([(3, 1), (3, 1)]).is_cyclic
    assert make_abelian([(2, 1), (3, 1)]).is_cyclic  # C2 x C3 is C6
    assert not make_dihedral(8).is_abelian
    assert make_dihedral(8).is_nilpotent  # 2-group


def test_identity_row_and_column():
    for G in (make_dihedral(12), make_generalized_quaternion(16)):
        for a in range(G.size):
            assert G.mul(0, a) == a and G.mul(a, 0) == a


# The table group: the independent oracle for the formula groups, which no
# command builds.


class CayleyTableGroup(Group):
    """Group given by an explicit multiplication table.

    The table is validated on construction, exactly: identity row/column at
    index 0, two-sided inverses, and associativity by Light's test on a
    generating set.
    """

    def __init__(self, name: str, table: list[list[int]] | tuple[tuple[int, ...], ...]):
        n = len(table)
        if n < 1:
            raise ValueError("multiplication table must be non-empty")
        rows = tuple(tuple(int(x) for x in row) for row in table)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError(f"table entry {x} out of range [0, {n})")
        self.name = name
        self.size = n
        self._table = rows
        self._validate()

    def _validate(self) -> None:
        n = self.size
        tab = self._table
        if tab[0] != tuple(range(n)) or any(tab[a][0] != a for a in range(n)):
            raise ValueError(f"{self.name}: index 0 is not a two-sided identity")
        for a in range(n):
            try:
                inverse = tab[a].index(0)
            except ValueError:
                raise ValueError(f"{self.name}: element {a} has no right inverse") from None
            if tab[inverse][a] != 0:
                raise ValueError(f"{self.name}: element {a} has no two-sided inverse")
        # Light's test: the s with (x*s)*y == x*(s*y) for all x, y include 0
        # and are closed under products, so it suffices to check generators s
        # whose left-normed products (((0*s1)*s2)...) reach every element.
        gens: list[int] = []
        span = [0]
        inside = {0}
        for s in range(n):
            if s in inside:
                continue
            gens.append(s)
            for x in span:  # grows while iterated
                for g in gens:
                    y = tab[x][g]
                    if y not in inside:
                        inside.add(y)
                        span.append(y)
        for s in gens:
            for x in range(n):
                left = tab[tab[x][s]]
                right = tuple(map(tab[x].__getitem__, tab[s]))
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise ValueError(f"{self.name}: not associative at ({x}, {s}, {y})")

    def mul(self, a: int, b: int) -> int:
        return self._table[a][b]


def closed_group(name, identity, generators, mul):
    """The group the generators generate under mul, tabulated into a
    ``CayleyTableGroup``; elements are indexed as the closure reaches them,
    the identity first."""
    elements = [identity]
    index = {identity: 0}
    for x in elements:  # grows while iterated
        for g in generators:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    return CayleyTableGroup(name, [[index[mul(x, y)] for y in elements] for x in elements])


def permutation_group(name, *generators):
    # p*q maps i to p[q[i]]
    identity = tuple(range(len(generators[0])))
    return closed_group(name, identity, generators, lambda p, q: tuple(p[i] for i in q))


def matrix_group_mod_3(name, *generators):
    # (a, b, c, d) is the 2x2 matrix with rows (a, b) and (c, d)
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    return closed_group(name, (1, 0, 0, 1), generators, mul)


def metacyclic_group(name, m, s, t, r):
    """<a, b | a^m, b^s = a^t, b a b^-1 = a^r>, a^i b^j as (i, j)."""

    def mul(x, y):
        (i, j), (k, l) = x, y
        i, j = (i + k * pow(r, j, m)) % m, j + l  # b^j a^k = a^(k r^j) b^j
        return ((i + t) % m, j - s) if j >= s else (i, j)

    return closed_group(name, (0, 0), [(1, 0), (0, 1)], mul)


@cache
def closed_groups():
    """Non-abelian groups other than D and Q, and products of some of them
    with a cyclic part: symmetric, alternating and 2x2 matrix groups over
    F3, metacyclic groups, and direct products with a table part."""
    S3 = permutation_group("S3", (1, 0, 2), (1, 2, 0))
    A4 = permutation_group("A4", (1, 2, 0, 3), (0, 2, 3, 1))
    SL23 = matrix_group_mod_3("SL(2,3)", (1, 1, 0, 1), (1, 0, 1, 1))
    return (
        S3,
        A4,
        permutation_group("S4", (1, 0, 2, 3), (1, 2, 3, 0)),
        permutation_group("A5", (1, 2, 0, 3, 4), (1, 2, 3, 4, 0)),
        permutation_group("S5", (1, 0, 2, 3, 4), (1, 2, 3, 4, 0)),
        SL23,
        matrix_group_mod_3("GL(2,3)", (1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1)),
        metacyclic_group("C7:C3", 7, 3, 0, 2),
        metacyclic_group("C5:C4", 5, 4, 0, 2),
        metacyclic_group("C3:C4", 3, 4, 0, 2),
        metacyclic_group("C9:C3", 9, 3, 0, 4),
        metacyclic_group("SD16", 8, 2, 0, 3),
        metacyclic_group("M16", 8, 2, 0, 5),
        metacyclic_group("Dic5", 10, 2, 5, 9),
        direct_product(S3, make_cyclic(5)),
        direct_product(A4, make_cyclic(5)),
        direct_product(S3, make_cyclic(35)),
        direct_product(SL23, make_cyclic(5)),
    )


CLOSED_GROUPS = [pytest.param(G, id=G.name) for G in closed_groups()]


def test_closed_groups_have_their_orders():
    # each closure reached the whole group its generators name
    assert {G.name: G.size for G in closed_groups()} == {
        "S3": 6, "A4": 12, "S4": 24, "A5": 60, "S5": 120, "SL(2,3)": 24, "GL(2,3)": 48,
        "C7:C3": 21, "C5:C4": 20, "C3:C4": 12, "C9:C3": 27, "SD16": 16, "M16": 16, "Dic5": 20,
        "S3xC5": 30, "A4xC5": 60, "S3xC35": 210, "SL(2,3)xC5": 120,
    }
    assert not any(G.is_abelian for G in closed_groups())


# The smallest non-associative loop: a Latin square with identity 0 in which
# every element is its own inverse, which no group of order 5 allows.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def tabulate(G):
    """G's multiplication written out as a table."""
    return [[G.mul(a, b) for b in range(G.size)] for a in range(G.size)]


def _d100_with_swapped_row_2():
    # r**2 * r and r**2 * r**2 exchanged: row 2 stays a permutation, every
    # inverse stays two-sided, and only associativity fails
    table = tabulate(make_dihedral(100))
    table[2][1], table[2][2] = table[2][2], table[2][1]
    return table


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 2, 1], [1, 2, 0], [2, 0, 1]], "index 0 is not a two-sided identity"),
        ([[0, 1, 2], [1, 2, 2], [2, 2, 0]], "element 1 has no right inverse"),
        ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], "element 1 has no two-sided inverse"),
        (LOOP5, r"not associative at \(\d+, \d+, \d+\)"),
        (_d100_with_swapped_row_2(), r"not associative at \(\d+, \d+, \d+\)"),
    ],
    ids=["identity", "right-inverse", "two-sided-inverse", "loop5", "d100-swapped"],
)
def test_table_validation_rejects_non_groups(table, message):
    with pytest.raises(ValueError, match=message):
        CayleyTableGroup("bad", table)


@pytest.mark.parametrize("table", [LOOP5, _d100_with_swapped_row_2()], ids=["loop5", "d100-swapped"])
def test_table_validation_names_a_failing_triple(table):
    with pytest.raises(ValueError) as info:
        CayleyTableGroup("bad", table)
    x, s, y = map(int, info.value.args[0].split("at (")[1].rstrip(")").split(", "))
    assert table[table[x][s]][y] != table[x][table[s][y]]


# Reference tables, written out entry by entry on the built-in index layouts:
# the oracle for the formula groups.


def reference_cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def reference_dihedral(order):
    # element e*n + i is s**e * r**i
    n = order // 2
    table = [[0] * order for _ in range(order)]
    for e1 in (0, 1):
        for i1 in range(n):
            for e2 in (0, 1):
                for i2 in range(n):
                    e = (e1 + e2) % 2
                    i = (i2 + i1) % n if e2 == 0 else (i2 - i1) % n
                    table[e1 * n + i1][e2 * n + i2] = e * n + i
    return table


def reference_quaternion(order):
    # element e*half + i is a**i * b**e, with b*b = a**(order/4)
    half = order // 2
    twist = order // 4
    table = [[0] * order for _ in range(order)]
    for i1 in range(half):
        for e1 in (0, 1):
            for i2 in range(half):
                for e2 in (0, 1):
                    if e1 == 0:
                        i, e = (i1 + i2) % half, e2
                    elif e2 == 0:
                        i, e = (i1 - i2) % half, 1
                    else:
                        i, e = (i1 - i2 + twist) % half, 0
                    table[e1 * half + i1][e2 * half + i2] = e * half + i
    return table


def reference_product(t1, t2):
    # (a, b) is a*|g2| + b
    n1, n2 = len(t1), len(t2)
    return [
        [t1[a1][a2] * n2 + t2[b1][b2] for a2 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for b1 in range(n2)
    ]


def assert_matches_reference(G, reference):
    table = CayleyTableGroup(G.name, tabulate(G))  # validates the group axioms
    assert [list(row) for row in table._table] == reference, G.name
    assert G.closure_masks == table.closure_masks, G.name
    assert {m.closure for m in G.maximal_cyclics} == maximal_closures(table), G.name


@pytest.mark.parametrize("order", range(6, 201, 2))
def test_dihedral_formula_matches_reference_table(order):
    assert_matches_reference(make_dihedral(order), reference_dihedral(order))


@pytest.mark.parametrize("order", [2**m for m in range(3, 9)])
def test_quaternion_formula_matches_reference_table(order):
    assert_matches_reference(make_generalized_quaternion(order), reference_quaternion(order))


PRODUCT_CASES = {
    "Q8xC3": (
        lambda: direct_product(make_generalized_quaternion(8), make_cyclic(3)),
        lambda: reference_product(reference_quaternion(8), reference_cyclic(3)),
    ),
    "D8xC5": (
        lambda: direct_product(make_dihedral(8), make_cyclic(5)),
        lambda: reference_product(reference_dihedral(8), reference_cyclic(5)),
    ),
    "Q16xC3": (
        lambda: direct_product(make_generalized_quaternion(16), make_cyclic(3)),
        lambda: reference_product(reference_quaternion(16), reference_cyclic(3)),
    ),
    "Q8xC3xC3": (
        lambda: direct_product(
            make_generalized_quaternion(8), direct_product(make_cyclic(3), make_cyclic(3))
        ),
        lambda: reference_product(
            reference_quaternion(8), reference_product(reference_cyclic(3), reference_cyclic(3))
        ),
    ),
}


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_direct_product_matches_reference_table(name):
    build, reference = PRODUCT_CASES[name]
    G = build()
    assert G.name == name
    assert_matches_reference(G, reference())


class CountingMul:
    """Counts the calls to ``mul`` on one group instance."""

    muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


class CountingCyclic(CountingMul, CyclicGroup):
    pass


class CountingProduct(CountingMul, ProductGroup):
    pass


class CountingTable(CountingMul, CayleyTableGroup):
    pass


def counting_groups():
    """Fresh counting instances of C360, C2xC4xC9, Q16xC3 (a table), and Q8xC75
    and D20xC75 (products of counting factors, Q8 and D20 tables)."""
    return [
        CountingCyclic(360),
        CountingProduct((CountingCyclic(2), CountingCyclic(4), CountingCyclic(9))),
        CountingTable("Q16xC3", tabulate(direct_product(make_generalized_quaternion(16), make_cyclic(3)))),
        CountingProduct((CountingTable("Q8", tabulate(make_generalized_quaternion(8))), CountingCyclic(75))),
        CountingProduct((CountingTable("D20", tabulate(make_dihedral(20))), CountingCyclic(75))),
    ]


# mul calls of a table factor: Q8, a part of Q8xC75's coprime cut, walks its
# own poset once, the sum of its cyclic subgroups' orders; D20xC75 has no
# coprime cut (gcd(20, 75) = 5), so the product walks its poset and asks
# D20's multiplication walk for the D20 digit of each least generator
FACTOR_WALKS = {"Q8": 15, "D20": 402}


@pytest.mark.parametrize("G", counting_groups(), ids=lambda g: g.name)
def test_closures_walk_each_cyclic_subgroup_once(G):
    G.closure_masks
    walked = G.muls
    factors = getattr(G, "factors", ())
    # only a non-abelian factor multiplies
    assert {f.name: f.muls for f in factors} == {f.name: FACTOR_WALKS.get(f.name, 0) for f in factors}
    if isinstance(G, CayleyTableGroup):
        # the base walk: one multiplication per listed power of each class's least element
        classes = naive_classes(G)
        assert walked == sum(map(len, classes))
        assert walked < sum(len(c) * len(m) for c, m in classes.items())  # the per-element walk's count
    else:
        # cyclic groups list powers by residue arithmetic, products from
        # their factors' lists, and neither multiplies to find is_abelian
        assert walked == 0
        assert G.is_abelian == all(f.name not in FACTOR_WALKS for f in factors)
        assert G.muls == 0
    G.muls = 0
    for g in range(G.size):
        G.cyclic_subgroup(g), G.generator_class(g), G.element_order(g)
    assert G.muls == 0


def test_power_walks_and_posets_match_the_multiplication_walk():
    cyclic = [make_cyclic(n) for n in [*range(1, 65), 210, 360, 400]]
    abelian = [make_abelian([(2, 1), (2, 2), (3, 2), (5, 1)]), make_abelian([(2, 1), (2, 1), (3, 1), (5, 2)])]
    C = make_cyclic
    products = [
        direct_product(make_generalized_quaternion(16), C(3)),
        direct_product(make_dihedral(6), direct_product(C(4), C(3))),
        direct_product(C(2), direct_product(C(2), direct_product(C(3), C(25)))),
    ]
    groups = list(corpus_groups(120)) + cyclic + abelian + products + sylow_factored_groups()
    for G in groups:
        ref = walked_by_multiplication(G)
        assert G.maximal_cyclics == reference_maximal_cyclics(ref), G.name
        for h in range(G.size):
            assert G._power_walk(h) == ref._power_walk(h), (G.name, h)
        assert G.cyclic_poset == ref.cyclic_poset, G.name
        assert G.closure_masks == ref.closure_masks, G.name
        assert_gate_counts_match_the_walk(G, ref)


def assert_gate_counts_match_the_walk(G, ref):
    """G's ``is_cyclic`` and ``count_of_order_dividing`` against ref, G
    walked by multiplication: whether some element has the group's order,
    and how many elements the base class lists of order dividing each
    divisor m."""
    assert G.is_cyclic == (max(ref._node_orders) == G.size), G.name
    for m in divisors(G.size):
        assert G.count_of_order_dividing(m) == len(Group.elements_of_order_dividing(ref, m)), (G.name, m)


def test_dihedral_and_quaternion_closed_forms_match_the_multiplication_walk():
    # the poset and the counts of order dividing m are read off the
    # presentation and the maximal subgroups off the poset; the base class
    # walks the poset by multiplication and lists off it, and
    # reference_maximal_cyclics finds the maximal ones by definition from
    # every element's closure in that walk
    groups = [
        *(make_dihedral(n) for n in range(6, 401, 2)),
        *(make_generalized_quaternion(2**m) for m in range(3, 11)),
    ]
    for G in groups:
        ref = walked_by_multiplication(G)
        assert G.cyclic_poset == ref.cyclic_poset, G.name
        assert G.maximal_cyclics == reference_maximal_cyclics(ref), G.name
        assert_gate_counts_match_the_walk(G, ref)


def test_dihedral_and_quaternion_flags_match_the_records_and_mul():
    groups = [
        *(make_dihedral(n) for n in range(6, 61, 2)),
        *(make_generalized_quaternion(2**m) for m in range(3, 7)),
    ]
    for G in groups:
        assert G.is_cyclic is (max(walked_by_multiplication(G)._node_orders) == G.size) is False, G.name
        assert G.is_abelian is Group.is_abelian.func(G) is False, G.name


def count_power_walks(monkeypatch) -> list[tuple[Group, int]]:
    """Log each (group, h) that the base ``Group._power_walk`` lists, from now on."""
    walked = []
    walk = Group._power_walk

    def logged(group, h):
        walked.append((group, h))
        return walk(group, h)

    monkeypatch.setattr(Group, "_power_walk", logged)
    return walked


@pytest.mark.parametrize("order, build", [(2000, make_dihedral), (4096, make_generalized_quaternion)])
def test_dihedral_and_quaternion_structure_makes_no_power_walk(monkeypatch, capsys, order, build):
    walked = count_power_walks(monkeypatch)
    G = build(order)
    G.cyclic_poset, G.maximal_cyclics, G.is_cyclic
    # D2000's 2-elements are its 1000 reflections and the 8 rotations of
    # 2-power order; Q4096 is a 2-group
    assert G.is_nilpotent == (G.name == "Q4096")
    if G.is_nilpotent:
        assert G.sylow_decomposition() == SylowDecomposition((2,), (2,), (), True)
    else:
        message = r"Sylow 2-subgroup is not normal \(1008 2-elements, expected 16\)"
        with pytest.raises(UnsupportedStructureError, match=message):
            G.sylow_decomposition()
    spec = f"{'dihedral' if build is make_dihedral else 'quaternion'}:{order}"
    assert main(["verify", "--theorem", "thm12", "--group", spec, "--max-brute-vertices", "10"]) == 0
    assert "verdict" in capsys.readouterr().out
    assert walked == []


def refuse_structure(monkeypatch, *names):
    """Make every group class fail the test when it reads one of the named
    structures: ``cyclic_poset`` (a property) or a method."""

    def refuse(group, *args):
        raise AssertionError(f"built the poset or listed the elements of {group.name}")

    for cls in (Group, CyclicGroup, DihedralLikeGroup, ProductGroup):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse) if name == "cyclic_poset" else refuse)


@pytest.mark.parametrize("spec", ["dihedral:200000", "quaternion:1048576", "abelian:2,2^40"])
@pytest.mark.parametrize("theorem", ["thm12", "thm13", "thm14"])
def test_oversized_dihedral_and_quaternion_gates_build_no_poset(monkeypatch, capsys, spec, theorem):
    # the gates read count_of_order_dividing, by arithmetic: the poset's up
    # and down masks alone would take O(order**2) bits, and listing the
    # 2**41 elements of C2xC2^40 to count them would not fit in memory
    refuse_structure(monkeypatch, "cyclic_poset", "elements_of_order_dividing")
    argv = ["verify", "--theorem", theorem, "--group", spec, "--max-brute-vertices", "10", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["group"] == parse_group_spec(spec).name


@pytest.mark.parametrize(
    "theorem, spec, case, kappa",
    [
        ("thm14", "abelian:2,2,3,5^12", "three-primes-even-noncyclic-shallow", 488281252),
        ("thm14", "abelian:2^2,2^2,3,5^12", "three-primes-even-noncyclic-deep", 732421875),
        ("thm13", "abelian:3,3,5,5^12", "two-primes-both-noncyclic", 7),
        ("thm13", "abelian:2,2,3,3^15", "two-primes-both-noncyclic", 4),
    ],
)
def test_oversized_abelian_predictions_build_no_poset(monkeypatch, capsys, theorem, spec, case, kappa):
    # the least maximal cyclic order is read off count_of_order_dividing:
    # the poset of C_{5**12} alone would loop over 5**12 residues
    refuse_structure(monkeypatch, "cyclic_poset", "elements_of_order_dividing")
    argv = ["verify", "--theorem", theorem, "--group", spec, "--max-brute-vertices", "10", "--json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["predicted_kappa"], out["case"]) == (kappa, case)


def test_oversized_named_sylow_subgroup_builds_no_poset(monkeypatch, capsys):
    # the named cut-set, the Sylow 3-subgroup C_{3**12}, is still listed,
    # digit by digit, but no poset is built
    refuse_structure(monkeypatch, "cyclic_poset")
    argv = ["verify", "--theorem", "thm13", "--group", "abelian:2,2,3^12", "--max-brute-vertices", "10", "--json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["predicted_kappa"], out["case"]) == (3**12, "two-primes-one-noncyclic")
    assert [len(s) for s in out["predicted_cutsets"]] == [3**12]


def test_oversized_sylow_product_lists_only_its_own_elements(capsys):
    # C3xC3^30xC5 has 3**31 * 5 elements; its Sylow 5-subgroup, the named
    # cut-set, is listed digit by digit as the 5 elements 0..4
    argv = ["verify", "--theorem", "thm12", "--group", "abelian:3,3^30,5", "--max-brute-vertices", "10", "--json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["predicted_kappa"], out["predicted_cutsets"]) == (5, [[0, 1, 2, 3, 4]])


@pytest.mark.parametrize("spec", ["dihedral:2000", "quaternion:4096", "cyclic:27720"])
def test_per_element_lookups_make_no_power_walk(monkeypatch, capsys, spec):
    # every per-element fact is an index into the closed-form poset; the
    # reference is walked by multiplication before the walks are refused
    G = parse_group_spec(spec)
    ref = walked_by_multiplication(G)
    closures, orders = ref.closure_masks, ref.element_orders

    def refuse(group, h):
        raise AssertionError(f"walked the powers of {h} in {group.name}")

    for cls in (Group, CyclicGroup, ProductGroup):
        monkeypatch.setattr(cls, "_power_walk", refuse)
    assert G.closure_masks == closures
    assert G.element_orders == orders
    assert [G.element_order(g) for g in range(G.size)] == list(orders)
    for h in G.cyclic_poset.least_generators:
        sub = G.cyclic_subgroup(h)
        assert sub == ref.cyclic_subgroup(h), (spec, h)
        assert G.generator_class(h) == frozenset(iter_bits(sub.generators)), (spec, h)
    if G.name == "D2000":
        assert main(["export-dot", "--group", spec, "--max-brute-vertices", str(G.size)]) == 0
        labels = re.findall(r'^  (\d+) \[label="\1:(\d+)"\];$', capsys.readouterr().out, re.M)
        assert [int(order) for _, order in labels] == list(orders)


def test_abelian_group_is_the_right_fold_of_cyclic_direct_products():
    for spec in generate_abelian_corpus(64):
        G = make_abelian(spec)
        *head, last = [make_cyclic(p**e) for p, e in spec.factors]
        F = reduce(lambda acc, g: direct_product(g, acc), reversed(head), last)
        assert (G.name, G.size) == (F.name, F.size)
        ref = walked_by_multiplication(F)
        assert G.cyclic_poset == ref.cyclic_poset, G.name
        assert G.closure_masks == ref.closure_masks, G.name


@pytest.mark.parametrize("G", counting_groups(), ids=lambda g: g.name)
def test_power_graph_build_multiplies_nothing_after_the_closure_walk(G):
    G.closure_masks
    G.muls = 0
    build_power_graph(G)
    assert G.muls == 0


@pytest.mark.parametrize("G", counting_groups(), ids=lambda g: g.name)
def test_sylow_decomposition_multiplies_nothing_after_the_closure_walk(G):
    G.closure_masks
    G.muls = 0
    try:
        G.sylow_decomposition()
    except UnsupportedStructureError:
        assert G.name == "D20xC75"
    assert G.muls == 0


def naive_closure(G, g):
    powers = [0]
    x = g
    while x != 0:
        powers.append(x)
        x = G.mul(x, g)
    return powers


def test_closures_and_powers_match_naive_reference():
    groups = (
        list(corpus_groups(60))
        + [make_cyclic(n) for n in range(1, 80)]
        + [make_dihedral(n) for n in range(6, 41, 2)]
        + [make_generalized_quaternion(n) for n in (8, 16, 32)]
        + [
            direct_product(make_generalized_quaternion(8), make_cyclic(3)),
            direct_product(make_dihedral(8), make_cyclic(5)),
        ]
    )
    for G in groups:
        closures = [naive_closure(G, g) for g in range(G.size)]
        masks = tuple(sum(1 << x for x in c) for c in closures)
        assert G.closure_masks == masks, G.name
        assert G.element_orders == tuple(len(c) for c in closures), G.name
        by_mask = {}
        for g, m in enumerate(masks):
            by_mask.setdefault(m, set()).add(g)
        classes = sorted(by_mask.values(), key=min)
        assert [set(iter_bits(m)) for m in G.cyclic_poset.generators] == classes, G.name
        for g, c in enumerate(closures):
            assert G.generator_class(g) == by_mask[masks[g]], (G.name, g)
            assert G._power_walk(g) == c, (G.name, g)
