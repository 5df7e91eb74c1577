from math import prod

import pytest

from powergraphs.connectivity import vertex_connectivity
from powergraphs.groups import SylowDecomposition, make_abelian, make_cyclic
from powergraphs.harness import min_maximal_cyclic_order
from powergraphs.numtheory import euler_phi, factorize
from powergraphs.powergraph import build_power_graph
from powergraphs.predictions import (
    condition_two_phi,
    gamma_cardinality,
    kappa_abelian_three_primes,
    kappa_abelian_two_primes,
    kappa_cyclic,
    kappa_cyclic_lower_bound,
    kappa_nilpotent_one_noncyclic,
)


def test_factorization_validation():
    # the predictors factor the order they are given
    with pytest.raises(ValueError, match="need at least two distinct primes"):
        kappa_nilpotent_one_noncyclic(1, SylowDecomposition((), (2,), (), False))
    with pytest.raises(ValueError, match="need at least two distinct primes"):
        kappa_nilpotent_one_noncyclic(27, SylowDecomposition((3,), (3,), (), False))
    with pytest.raises(ValueError, match="7 does not divide the order"):
        kappa_nilpotent_one_noncyclic(360, SylowDecomposition((2, 3, 5), (7,), (), False))
    with pytest.raises(ValueError, match="need exactly one non-cyclic Sylow subgroup"):
        kappa_nilpotent_one_noncyclic(36, SylowDecomposition((2, 3), (2, 3), (2, 3), False))
    with pytest.raises(ValueError, match="need exactly two distinct primes"):
        kappa_abelian_two_primes(1, SylowDecomposition((), (2,), (), False), 2)
    with pytest.raises(ValueError, match="need exactly three distinct primes"):
        kappa_abelian_three_primes(1, SylowDecomposition((), (2,), (), False), 2)
    with pytest.raises(ValueError):
        kappa_cyclic(1)


def test_kappa_cyclic_prime_power():
    pred = kappa_cyclic(8)
    assert pred.applicable and pred.kappa == 7
    assert not pred.cutsets.claims


def test_kappa_cyclic_two_primes():
    pred = kappa_cyclic(12)
    assert pred.kappa == 6
    assert pred.cutsets.count == 1 and pred.cutsets.subgroup_products is None
    pred18 = kappa_cyclic(18)
    assert pred18.kappa == 9
    assert pred18.cutsets.count == 2
    pred15 = kappa_cyclic(15)
    assert pred15.kappa == 9
    assert pred15.cutsets.count == 1


def test_kappa_cyclic_three_primes():
    assert kappa_cyclic(105).kappa == 48 + 7
    assert kappa_cyclic(30).kappa == 12
    assert kappa_cyclic(60).kappa == 24
    assert kappa_cyclic(90).kappa == 36


def test_kappa_cyclic_four_primes():
    pred = kappa_cyclic(5005)  # 5*7*11*13
    assert pred.applicable
    assert pred.kappa == 3025
    gated = kappa_cyclic(2 * 3 * 5 * 7)
    assert not gated.applicable
    assert any(not holds for _, holds in gated.hypothesis_trace)


def test_many_primes_gate_matters_only_at_four_orders():
    # thm11's formula for four or more primes, phi(n) + prod p^(e-1) *
    # (P - phi(P)) with P the product of all primes but the largest, taken
    # without its gate 2*phi(P) > P: on every C_n to 2400 whose gate fails
    # it is kappa but at four orders, where it is too large
    wrong = {}
    for n in range(2, 2401):
        pairs = factorize(n)
        head = [p for p, _ in pairs[:-1]]
        if len(pairs) < 4 or condition_two_phi(head):
            continue
        assert not kappa_cyclic(n).applicable, n
        P = prod(head)
        formula = euler_phi(n) + prod(p ** (e - 1) for p, e in pairs) * (P - euler_phi(P))
        kappa = vertex_connectivity(build_power_graph(make_cyclic(n)))
        if formula != kappa:
            wrong[n] = (formula, kappa)
    assert wrong == {1050: (350, 318), 1470: (490, 406), 2100: (700, 636), 2310: (642, 630)}


def test_kappa_cyclic_rejects_tiny():
    with pytest.raises(ValueError):
        kappa_cyclic(1)


def test_kappa_cyclic_lower_bound():
    assert kappa_cyclic_lower_bound(6) == (3, True)
    assert kappa_cyclic_lower_bound(12) == (5, False)
    assert kappa_cyclic_lower_bound(7) == (7, True)


def test_condition_two_phi():
    assert not condition_two_phi((2,))
    assert condition_two_phi((3, 5))
    assert not condition_two_phi((2, 3))
    with pytest.raises(ValueError):
        condition_two_phi((5, 3))


def test_nilpotent_one_noncyclic():
    pred = kappa_nilpotent_one_noncyclic(45, SylowDecomposition((3, 5), (3,), (3, 5), False))
    assert pred.applicable and pred.kappa == 5
    assert pred.cutsets.count == 1
    assert pred.cutsets.subgroup_products == ((5,),)

    gated = kappa_nilpotent_one_noncyclic(12, SylowDecomposition((2, 3), (2,), (2, 3), False))
    assert not gated.applicable

    pred2 = kappa_nilpotent_one_noncyclic(525, SylowDecomposition((3, 5, 7), (5,), (3, 5, 7), False))
    assert pred2.applicable and pred2.kappa == 21


def test_nilpotent_one_noncyclic_quaternion_gate():
    # with the 2-Sylow subgroup non-cyclic both numeric gates fail anyway;
    # the quaternion exclusion must still show up in the trace
    n = 72
    pred = kappa_nilpotent_one_noncyclic(n, SylowDecomposition((2, 3), (2,), (), True))
    assert not pred.applicable
    assert ("non-cyclic Sylow 2-subgroup is not generalized quaternion", False) in (
        pred.hypothesis_trace
    )
    ok = kappa_nilpotent_one_noncyclic(n, SylowDecomposition((2, 3), (2,), (), False))
    assert not ok.applicable
    assert ("non-cyclic Sylow 2-subgroup is not generalized quaternion", True) in (
        ok.hypothesis_trace
    )


def test_abelian_two_primes_one_noncyclic():
    n = 12
    dec = SylowDecomposition((2, 3), (2,), (3,), False)
    pred = kappa_abelian_two_primes(n, dec, 6)
    assert pred.applicable and pred.kappa == 3
    assert pred.cutsets.count is None and pred.cutsets.claims
    assert pred.cutsets.subgroup_products == ((3,),)

    # odd Sylow subgroup non-cyclic: unique claim
    n2 = 36
    dec2 = SylowDecomposition((2, 3), (3,), (), False)
    pred2 = kappa_abelian_two_primes(n2, dec2, 12)
    assert pred2.applicable and pred2.kappa == 4
    assert pred2.cutsets.count == 1


def facts(group):
    """The predictors' structural arguments, as the harness derives them."""
    return group.sylow_decomposition(), min_maximal_cyclic_order(group)


def test_abelian_two_primes_both_noncyclic():
    G = make_abelian([(3, 1), (3, 1), (5, 1), (5, 1)])
    pred = kappa_abelian_two_primes(225, *facts(G))
    assert pred.applicable and pred.kappa == min(9, 25, 15 - euler_phi(15))
    assert pred.kappa == 7

    G2 = make_abelian([(2, 1), (2, 1), (3, 1), (3, 1)])
    pred2 = kappa_abelian_two_primes(36, *facts(G2))
    assert pred2.applicable and pred2.kappa == 4

    # neither gate: p1=2 with a non-elementary 2-Sylow subgroup
    G3 = make_abelian([(2, 2), (2, 1), (3, 1), (3, 1)])
    pred3 = kappa_abelian_two_primes(72, *facts(G3))
    assert not pred3.applicable


def test_abelian_two_primes_rejects_wrong_r():
    with pytest.raises(ValueError):
        kappa_abelian_two_primes(30, SylowDecomposition((2, 3, 5), (2,), (), False), 30)


def test_abelian_three_primes_cases():
    G = make_abelian([(2, 1), (2, 1), (3, 1), (5, 1)])
    pred = kappa_abelian_three_primes(60, *facts(G))
    assert pred.applicable and pred.kappa == 12
    assert pred.case_tag.endswith("shallow")

    G2 = make_abelian([(2, 2), (2, 2), (3, 1), (5, 1)])
    pred2 = kappa_abelian_three_primes(240, *facts(G2))
    assert pred2.applicable and pred2.kappa == 15
    assert pred2.case_tag.endswith("deep")

    G3 = make_abelian([(2, 1), (3, 1), (3, 1), (5, 1)])
    pred3 = kappa_abelian_three_primes(90, *facts(G3))
    assert pred3.applicable and pred3.kappa == 10
    assert pred3.cutsets.count == 1
    assert pred3.cutsets.subgroup_products == ((2, 5),)

    G4 = make_abelian([(3, 1), (3, 1), (5, 1), (7, 1)])
    pred4 = kappa_abelian_three_primes(315, *facts(G4))
    assert pred4.applicable and pred4.kappa == 35


def test_abelian_three_primes_rejects_wrong_structure():
    with pytest.raises(ValueError):
        kappa_abelian_three_primes(30, SylowDecomposition((2, 3, 5), (2, 3), (2, 3), False), 30)
    with pytest.raises(ValueError):
        kappa_abelian_three_primes(6, SylowDecomposition((2, 3), (2,), (2,), False), 6)


def test_gamma_cardinality_values():
    assert gamma_cardinality(1, 3, 1, 5, 1) == 12
    assert gamma_cardinality(2, 3, 1, 5, 1) == 24
    with pytest.raises(ValueError):
        gamma_cardinality(0, 3, 1, 5, 1)
    with pytest.raises(ValueError):
        gamma_cardinality(1, 5, 1, 3, 1)


def test_gamma_cardinality_matches_cyclic_kappa():
    for m, p2, n2, p3, n3 in [(1, 3, 1, 5, 1), (2, 3, 1, 5, 1), (1, 3, 2, 7, 1), (3, 5, 1, 7, 2)]:
        order = 2**m * p2**n2 * p3**n3
        assert gamma_cardinality(m, p2, n2, p3, n3) == kappa_cyclic(order).kappa


def test_two_prime_formula_against_brute_force_spot():
    for n in (12, 18, 45, 75):
        pred = kappa_cyclic(n)
        observed = vertex_connectivity(build_power_graph(make_cyclic(n)))
        assert pred.kappa == observed
