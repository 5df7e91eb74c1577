"""Pins predict_for_group: every gate stage and case tag of each theorem."""

import pytest

from powergraphs.cli import parse_group_spec
from powergraphs.groups import direct_product, make_cyclic, make_generalized_quaternion
from powergraphs.harness import predict_for_group

# (theorem, group spec, case tag, kappa, hypothesis trace, materialized cut-sets),
# recorded from the per-theorem branches that predict_for_group replaced
PREDICTION_PINS = [
    (
        "thm11",
        "cyclic:1",
        "cyclic-gated",
        None,
        (
            ("group is cyclic", True),
            ("order >= 2", False),
        ),
        None,
    ),
    (
        "thm11",
        "abelian:2,2",
        "cyclic-gated",
        None,
        (
            ("group is cyclic", False),
            ("order >= 2", True),
        ),
        None,
    ),
    (
        "thm11",
        "cyclic:9",
        "prime-power",
        8,
        (
            ("group is cyclic", True),
            ("order >= 2", True),
            ("order is a prime power (complete graph)", True),
        ),
        None,
    ),
    (
        "thm11",
        "cyclic:12",
        "two-primes",
        6,
        (
            ("group is cyclic", True),
            ("order >= 2", True),
            ("order has exactly two prime divisors", True),
        ),
        None,
    ),
    (
        "thm11",
        "cyclic:60",
        "three-primes-even",
        24,
        (
            ("group is cyclic", True),
            ("order >= 2", True),
            ("order has exactly three prime divisors", True),
            ("smallest prime is 2", True),
        ),
        None,
    ),
    (
        "thm11",
        "cyclic:105",
        "three-primes-odd",
        55,
        (
            ("group is cyclic", True),
            ("order >= 2", True),
            ("order has exactly three prime divisors", True),
            ("smallest prime is 2", False),
        ),
        None,
    ),
    (
        "thm11",
        "cyclic:210",
        "many-primes-gated",
        None,
        (
            ("group is cyclic", True),
            ("order >= 2", True),
            ("order has at least four prime divisors", True),
            ("2*phi(2*3*5) > 2*3*5", False),
        ),
        None,
    ),
    (
        "thm11",
        "cyclic:5005",
        "many-primes",
        3025,
        (
            ("group is cyclic", True),
            ("order >= 2", True),
            ("order has at least four prime divisors", True),
            ("2*phi(5*7*11) > 5*7*11", True),
        ),
        None,
    ),
    (
        "thm12",
        "cyclic:12",
        "nilpotent-gated",
        None,
        (
            ("group is non-cyclic", False),
            ("group is nilpotent", True),
        ),
        None,
    ),
    (
        "thm12",
        "dihedral:12",
        "nilpotent-gated",
        None,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", False),
        ),
        None,
    ),
    (
        "thm12",
        "dihedral:8",
        "nilpotent-gated",
        None,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", True),
            ("order has at least two prime divisors", False),
            ("exactly one Sylow subgroup is non-cyclic", True),
        ),
        None,
    ),
    (
        "thm12",
        "abelian:2,2,3,3",
        "nilpotent-gated",
        None,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", True),
            ("order has at least two prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", False),
        ),
        None,
    ),
    (
        "thm12",
        "abelian:2,2,3",
        "nilpotent-one-noncyclic-gated",
        None,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", True),
            ("order has at least two prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("non-cyclic Sylow 2-subgroup is not generalized quaternion", True),
            ("p_k >= r+1 (2 >= 3)", False),
            ("2*phi(2) > 2", False),
        ),
        None,
    ),
    (
        "thm12",
        "abelian:3,3,5",
        "nilpotent-one-noncyclic",
        5,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", True),
            ("order has at least two prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("p_k >= r+1 (3 >= 3)", True),
            ("2*phi(3) > 3", True),
        ),
        ((0, 1, 2, 3, 4),),
    ),
    (
        "thm12",
        "abelian:3,5,5,7",
        "nilpotent-one-noncyclic",
        21,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", True),
            ("order has at least two prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("p_k >= r+1 (5 >= 4)", True),
            ("2*phi(3*5) > 3*5", True),
        ),
        (
            (0, 1, 2, 3, 4, 5, 6, 175, 176, 177, 178, 179, 180, 181)
            + (350, 351, 352, 353, 354, 355, 356),
        ),
    ),
    (
        "thm12",
        "Q8xC3",
        "nilpotent-one-noncyclic-gated",
        None,
        (
            ("group is non-cyclic", True),
            ("group is nilpotent", True),
            ("order has at least two prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("non-cyclic Sylow 2-subgroup is not generalized quaternion", False),
            ("p_k >= r+1 (2 >= 3)", False),
            ("2*phi(2) > 2", False),
        ),
        None,
    ),
    (
        "thm13",
        "dihedral:8",
        "abelian-gated",
        None,
        (
            ("group is abelian", False),
            ("group is non-cyclic", True),
        ),
        None,
    ),
    (
        "thm13",
        "cyclic:12",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", False),
        ),
        None,
    ),
    (
        "thm13",
        "abelian:2,2",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", False),
        ),
        None,
    ),
    (
        "thm13",
        "abelian:2,2,3,5",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", False),
        ),
        None,
    ),
    (
        "thm13",
        "abelian:2,2,3",
        "two-primes-one-noncyclic",
        3,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", True),
            ("exactly one non-cyclic Sylow subgroup", True),
            ("smallest prime >= 3, or the odd Sylow subgroup is the non-cyclic one", False),
        ),
        ((0, 1, 2),),
    ),
    (
        "thm13",
        "abelian:2,3,3",
        "two-primes-one-noncyclic",
        2,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", True),
            ("exactly one non-cyclic Sylow subgroup", True),
            ("smallest prime >= 3, or the odd Sylow subgroup is the non-cyclic one", True),
        ),
        ((0, 9),),
    ),
    (
        "thm13",
        "abelian:2,2,3,3",
        "two-primes-both-noncyclic",
        4,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", True),
            ("both Sylow subgroups non-cyclic", True),
            ("p1 >= 3 and a maximal cyclic subgroup of order 6 exists", False),
            ("Sylow subgroup at the smallest prime is elementary abelian", True),
        ),
        None,
    ),
    (
        "thm13",
        "abelian:3,3,5,5",
        "two-primes-both-noncyclic",
        7,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", True),
            ("both Sylow subgroups non-cyclic", True),
            ("p1 >= 3 and a maximal cyclic subgroup of order 15 exists", True),
            ("Sylow subgroup at the smallest prime is elementary abelian", True),
        ),
        None,
    ),
    (
        "thm13",
        "abelian:2,2^2,3,3",
        "two-primes-both-noncyclic-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly two prime divisors", True),
            ("both Sylow subgroups non-cyclic", True),
            ("p1 >= 3 and a maximal cyclic subgroup of order 6 exists", False),
            ("Sylow subgroup at the smallest prime is elementary abelian", False),
        ),
        None,
    ),
    (
        "thm14",
        "quaternion:8",
        "abelian-gated",
        None,
        (
            ("group is abelian", False),
            ("group is non-cyclic", True),
        ),
        None,
    ),
    (
        "thm14",
        "cyclic:30",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", False),
        ),
        None,
    ),
    (
        "thm14",
        "abelian:2,2,3",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly three prime divisors", False),
            ("exactly one Sylow subgroup is non-cyclic", True),
        ),
        None,
    ),
    (
        "thm14",
        "abelian:2,2,3,3,5",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly three prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", False),
        ),
        None,
    ),
    (
        "thm14",
        "abelian:2,2,3,5,7",
        "abelian-gated",
        None,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly three prime divisors", False),
            ("exactly one Sylow subgroup is non-cyclic", True),
        ),
        None,
    ),
    (
        "thm14",
        "abelian:2,3,3,5",
        "three-primes-odd-noncyclic",
        10,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly three prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("exactly one non-cyclic Sylow subgroup", True),
            ("non-cyclic Sylow subgroup is not the even one", True),
        ),
        ((0, 1, 2, 3, 4, 45, 46, 47, 48, 49),),
    ),
    (
        "thm14",
        "abelian:2,2,3,5",
        "three-primes-even-noncyclic-shallow",
        12,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly three prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("the 2-Sylow subgroup is the only non-cyclic one", True),
            ("power of 2 in the minimum maximal cyclic order exceeds 1 (c=1)", False),
        ),
        None,
    ),
    (
        "thm14",
        "abelian:2^2,2^2,3,5",
        "three-primes-even-noncyclic-deep",
        15,
        (
            ("group is abelian", True),
            ("group is non-cyclic", True),
            ("order has exactly three prime divisors", True),
            ("exactly one Sylow subgroup is non-cyclic", True),
            ("the 2-Sylow subgroup is the only non-cyclic one", True),
            ("power of 2 in the minimum maximal cyclic order exceeds 1 (c=2)", True),
        ),
        None,
    ),
]


def _group(spec):
    if spec == "Q8xC3":
        return direct_product(make_generalized_quaternion(8), make_cyclic(3))
    return parse_group_spec(spec)


@pytest.mark.parametrize(
    "theorem, spec, tag, kappa, trace, cutsets",
    PREDICTION_PINS,
    ids=[f"{row[0]}-{row[1]}" for row in PREDICTION_PINS],
)
def test_predict_for_group_pinned(theorem, spec, tag, kappa, trace, cutsets):
    prediction, sets = predict_for_group(theorem, _group(spec))
    assert prediction.case_tag == tag
    assert prediction.kappa == kappa
    assert prediction.hypothesis_trace == trace
    got = None if sets is None else tuple(sorted(tuple(sorted(s)) for s in sets))
    assert got == cutsets


def test_predict_for_group_rejects_unknown_theorem():
    with pytest.raises(ValueError, match="unknown theorem id"):
        predict_for_group("props", make_cyclic(6))
