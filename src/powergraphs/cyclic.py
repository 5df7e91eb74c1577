"""Maximal cyclic subgroups and the cut-set constructions built from them.

A maximal cyclic subgroup M of a non-cyclic group yields several canonical
vertex cuts of the power graph: its non-generators, its overlap with cyclic
subgroups generated outside it, the product of all Sylow subgroups except a
chosen one, and (in one specific abelian configuration) a layered set
assembled from exact-order shells and divisor subgroups of M.

Every cyclic subgroup here is a ``groups.CyclicSubgroup``: a maximal one
read off the group's poset of cyclic subgroups (``Group.maximal_cyclics``),
or a record reached through ``Group.cyclic_subgroups`` or
``Group.cyclic_subgroup(g)``. Containment questions are mask expressions
over its closure and generators masks: its non-generators are its closure
less its generators, and the external overlaps of the maximal subgroups are
their members that lie in two of them or more. The maximal subgroups, their
overlaps and the Sylow products need no n-element records for a cyclic
group, a product of coprime factors or a dihedral or quaternion group (see
``groups``); the exact-order and divisor shells of M are records reached by
``Group.cyclic_subgroup``, so they do.
"""

from __future__ import annotations

from math import prod

from .bitsets import bits
from .groups import CyclicSubgroup, Group, UnsupportedStructureError
from .numtheory import p_adic_valuation
from .predictions import gamma_cardinality


def min_order_maximal_cyclic(group: Group) -> CyclicSubgroup:
    """A maximal cyclic subgroup of least order; ties by least generator index."""
    return min(group.maximal_cyclics, key=lambda m: (m.order, m.generator))


def nongenerators(group: Group, subgroup: CyclicSubgroup) -> frozenset[int]:
    """Members of the subgroup that do not generate it; |M| - phi(|M|) many."""
    return frozenset(bits(subgroup.closure & ~subgroup.generators))


def external_overlap(group: Group) -> tuple[frozenset[int], ...]:
    """Per maximal cyclic subgroup M, in ``Group.maximal_cyclics`` order, the
    union of M's intersections with closures of outside elements.

    An outside y lies in a maximal cyclic subgroup other than M, and any
    other maximal one is generated outside M; so this is the members of M
    that lie in two maximal cyclic subgroups or more, one mask of them met
    with each M's closure.
    """
    if group.is_cyclic:
        raise ValueError("external overlap needs a non-cyclic group")
    maximal = group.maximal_cyclics
    seen = shared = 0
    for m in maximal:
        shared |= seen & m.closure
        seen |= m.closure
    return tuple(frozenset(bits(m.closure & shared)) for m in maximal)


def sylow_product(group: Group, primes: tuple[int, ...] | frozenset[int]) -> frozenset[int]:
    """Product of the Sylow subgroups at the given primes, as an element set.

    For a nilpotent group this is exactly the set of elements whose order has
    all its prime factors among ``primes``, i.e. divides their part of |G|.
    """
    dec = group.sylow_decomposition()
    chosen = frozenset(primes)
    unknown = chosen - set(dec.primes)
    if unknown:
        raise ValueError(f"primes {sorted(unknown)} do not divide the group order")
    m = prod(p ** p_adic_valuation(group.size, p) for p in chosen)
    return group.elements_of_order_dividing(m)


def sylow_complement_product(group: Group, k_prime: int) -> frozenset[int]:
    """Product of all Sylow subgroups except the one at k_prime."""
    dec = group.sylow_decomposition()
    if k_prime not in dec.primes:
        raise ValueError(f"{k_prime} does not divide the group order")
    return sylow_product(group, tuple(p for p in dec.primes if p != k_prime))


def _order_d_subgroup(group: Group, subgroup: CyclicSubgroup, d: int) -> CyclicSubgroup:
    """The record of the subgroup of order d inside the cyclic subgroup M,
    generated by h**(|M|/d)."""
    if d < 1 or subgroup.order % d != 0:
        raise ValueError(f"{d} does not divide the subgroup order {subgroup.order}")
    return group.cyclic_subgroup(group.power(subgroup.generator, subgroup.order // d))


def elements_of_exact_order(group: Group, subgroup: CyclicSubgroup, d: int) -> frozenset[int]:
    """Members of the cyclic subgroup of order exactly d (d must divide |M|)."""
    return frozenset(bits(_order_d_subgroup(group, subgroup, d).generators))


def elements_of_dividing_order(group: Group, subgroup: CyclicSubgroup, d: int) -> frozenset[int]:
    """The unique subgroup of order d inside the cyclic subgroup."""
    return _order_d_subgroup(group, subgroup, d).elements


def gamma_set(group: Group, subgroup: CyclicSubgroup) -> frozenset[int]:
    """The layered cut-set of a maximal cyclic subgroup M in the configuration
    |G| = 2^a * p2^n2 * p3^n3, 2-Sylow non-cyclic, odd Sylows cyclic.

    With |M| = 2^m * p2^n2 * p3^n3 the set is the union of the exact-order
    shells at 2^m * p2^n2 * p3^j for j = 1..n3 and the divisor subgroups of
    orders 2^m * p2^(n2-1) and 2^(m-1) * p2^n2. The construction validates
    its own cardinality against the closed formula and fails loudly on
    mismatch.
    """
    if not group.is_abelian:
        raise UnsupportedStructureError(f"{group.name}: layered cut-set needs an abelian group")
    dec = group.sylow_decomposition()
    if len(dec.primes) != 3 or dec.primes[0] != 2:
        raise UnsupportedStructureError(
            f"{group.name}: need exactly three primes with smallest prime 2"
        )
    p2, p3 = dec.primes[1], dec.primes[2]
    if dec.noncyclic != (2,):
        raise UnsupportedStructureError(
            f"{group.name}: need a non-cyclic 2-Sylow subgroup and cyclic odd "
            "Sylow subgroups"
        )
    if subgroup not in group.maximal_cyclics:
        raise UnsupportedStructureError("layered cut-set is defined for maximal cyclic subgroups")
    n2 = p_adic_valuation(group.size, p2)
    n3 = p_adic_valuation(group.size, p3)
    m = p_adic_valuation(subgroup.order, 2)
    if m < 1 or subgroup.order != 2**m * p2**n2 * p3**n3:
        raise UnsupportedStructureError(
            f"maximal cyclic subgroup order {subgroup.order} does not have the "
            f"expected shape 2^m * {p2}^{n2} * {p3}^{n3}"
        )
    acc: set[int] = set()
    for j in range(1, n3 + 1):
        acc |= elements_of_exact_order(group, subgroup, 2**m * p2**n2 * p3**j)
    acc |= elements_of_dividing_order(group, subgroup, 2**m * p2 ** (n2 - 1))
    acc |= elements_of_dividing_order(group, subgroup, 2 ** (m - 1) * p2**n2)
    expected = gamma_cardinality(m, p2, n2, p3, n3)
    if len(acc) != expected:
        raise RuntimeError(
            f"layered cut-set size self-check failed: built {len(acc)}, formula {expected}"
        )
    return frozenset(acc)
