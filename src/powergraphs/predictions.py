"""Closed-form connectivity predictions for power graphs, with hypothesis gates.

Every predictor returns a Prediction whose hypothesis_trace records each gate
condition it evaluated, so a caller can report exactly why a formula did or
did not apply. Not-applicable is a first-class outcome, never a guess.

The predictors are arithmetic: besides the order they read only the group's
``SylowDecomposition`` and, for the abelian theorems, m, the least order of
a maximal cyclic subgroup (``harness.min_maximal_cyclic_order``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .groups import SylowDecomposition
from .numtheory import euler_phi, factorize, is_prime, p_adic_valuation


@dataclass(frozen=True)
class CutsetForecast:
    """What a theorem claims about the minimum cut-sets, if anything.

    ``count`` is the exact number of minimum cut-sets (1 for a unique one).
    subgroup_products names predicted cut-sets structurally: each entry is a
    tuple of primes, meaning the product of the Sylow subgroups at those
    primes; a named set with no count leaves room for others. A claim is
    checked by two rules: the number of minimum cut-sets equals ``count``
    when it is set, and every named set is among them. A forecast with
    neither makes no claim, as for a complete graph or an open case.
    """

    count: int | None = None
    subgroup_products: tuple[tuple[int, ...], ...] | None = None

    @property
    def claims(self) -> bool:
        """Whether there is anything to check against the minimum cut-sets."""
        return self.count is not None or self.subgroup_products is not None


@dataclass(frozen=True)
class Prediction:
    """An applicability-gated connectivity value for a power graph.

    The formula applies exactly when it gives a kappa: ``applicable`` is read
    from ``kappa``, and a failed gate is built by ``gated``.
    """

    kappa: int | None
    case_tag: str
    cutsets: CutsetForecast
    hypothesis_trace: tuple[tuple[str, bool], ...]

    def __post_init__(self) -> None:
        if not self.hypothesis_trace:
            raise ValueError("hypothesis_trace must be non-empty")

    @property
    def applicable(self) -> bool:
        return self.kappa is not None

    @classmethod
    def gated(
        cls, case_tag: str, hypothesis_trace: tuple[tuple[str, bool], ...]
    ) -> "Prediction":
        """No kappa and no cut-set claim: a hypothesis gate failed."""
        return cls(None, case_tag, CutsetForecast(), hypothesis_trace)


def condition_two_phi(primes: tuple[int, ...] | list[int]) -> bool:
    """Whether 2*phi(q1*...*qt) exceeds q1*...*qt for the given primes."""
    _check_prime_tuple(primes)
    m = prod(primes)
    return 2 * euler_phi(m) > m


def _check_prime_tuple(primes) -> None:
    if not primes:
        raise ValueError("need at least one prime")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if any(primes[i] >= primes[i + 1] for i in range(len(primes) - 1)):
        raise ValueError("primes must be strictly increasing")


def kappa_cyclic_lower_bound(n: int) -> tuple[int, bool]:
    """(phi(n)+1, equality), equality iff n is prime or a product of two primes."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    exps = tuple(e for _, e in factorize(n))
    equality = exps in ((1,), (1, 1))
    return euler_phi(n) + 1, equality


def kappa_cyclic(n: int) -> Prediction:
    """Connectivity of the power graph of the cyclic group of order n >= 2.

    Routed by the number r of distinct primes: r=1 is the complete graph,
    r=2 and r=3 have unconditional formulas, and r>=4 applies only under
    2*phi(p1...p_{r-1}) > p1...p_{r-1}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pairs = factorize(n)
    ps, es = zip(*pairs)
    r = len(ps)
    if r == 1:
        return Prediction(
            kappa=n - 1,
            case_tag="prime-power",
            cutsets=CutsetForecast(),
            hypothesis_trace=(("order is a prime power (complete graph)", True),),
        )
    phi_n = euler_phi(n)
    deflate = prod(p ** (e - 1) for p, e in pairs)
    if r == 2:
        kappa = phi_n + deflate
        if ps[0] == 2:
            forecast = CutsetForecast(count=es[1])
        else:
            forecast = CutsetForecast(count=1)
        return Prediction(
            kappa=kappa,
            case_tag="two-primes",
            cutsets=forecast,
            hypothesis_trace=(("order has exactly two prime divisors", True),),
        )
    if r == 3:
        if ps[0] == 2:
            bracket = (ps[1] - 1) * ps[2] ** (es[2] - 1) + 2
            kappa = phi_n + 2 ** (es[0] - 1) * ps[1] ** (es[1] - 1) * bracket
            tag = "three-primes-even"
        else:
            kappa = phi_n + deflate * (ps[0] + ps[1] - 1)
            tag = "three-primes-odd"
        return Prediction(
            kappa=kappa,
            case_tag=tag,
            cutsets=CutsetForecast(count=1),
            hypothesis_trace=(
                ("order has exactly three prime divisors", True),
                ("smallest prime is 2", ps[0] == 2),
            ),
        )
    head = ps[:-1]
    gate = condition_two_phi(head)
    trace = (
        ("order has at least four prime divisors", True),
        (f"2*phi({'*'.join(map(str, head))}) > {'*'.join(map(str, head))}", gate),
    )
    if not gate:
        return Prediction.gated("many-primes-gated", trace)
    head_prod = prod(head)
    kappa = phi_n + deflate * (head_prod - euler_phi(head_prod))
    return Prediction(
        kappa=kappa,
        case_tag="many-primes",
        cutsets=CutsetForecast(count=1),
        hypothesis_trace=trace,
    )


def kappa_nilpotent_one_noncyclic(n: int, dec: SylowDecomposition) -> Prediction:
    """Connectivity for a non-cyclic nilpotent group of order n whose only
    non-cyclic Sylow subgroup is the one at ``dec.noncyclic``.

    Applicable when p_k >= r+1 or 2*phi(p1...p_{r-1}) > p1...p_{r-1}, and the
    non-cyclic Sylow subgroup is not a generalized quaternion 2-group; then
    the product of all other Sylow subgroups is the unique minimum cut-set.
    """
    pairs = factorize(n)
    if len(pairs) < 2:
        raise ValueError("need at least two distinct primes")
    ps, es = zip(*pairs)
    if len(dec.noncyclic) != 1:
        raise ValueError("need exactly one non-cyclic Sylow subgroup")
    (p_k,) = dec.noncyclic
    if p_k not in ps:
        raise ValueError(f"{p_k} does not divide the order")
    r = len(ps)
    n_k = es[ps.index(p_k)]
    trace: list[tuple[str, bool]] = []
    quaternion_ok = True
    if p_k == 2:
        quaternion_ok = not dec.quaternion
        trace.append(("non-cyclic Sylow 2-subgroup is not generalized quaternion", quaternion_ok))
    head = ps[:-1]
    gate_rank = p_k >= r + 1
    gate_phi = condition_two_phi(head)
    trace.append((f"p_k >= r+1 ({p_k} >= {r + 1})", gate_rank))
    trace.append(
        (f"2*phi({'*'.join(map(str, head))}) > {'*'.join(map(str, head))}", gate_phi)
    )
    others = tuple(p for p in ps if p != p_k)
    if quaternion_ok and (gate_rank or gate_phi):
        return Prediction(
            kappa=n // p_k**n_k,
            case_tag="nilpotent-one-noncyclic",
            cutsets=CutsetForecast(count=1, subgroup_products=(others,)),
            hypothesis_trace=tuple(trace),
        )
    return Prediction.gated("nilpotent-one-noncyclic-gated", tuple(trace))


def kappa_abelian_two_primes(n: int, dec: SylowDecomposition, m: int) -> Prediction:
    """Connectivity for a non-cyclic abelian group of order n with two prime
    divisors, Sylow data ``dec`` and least maximal cyclic order m.

    One non-cyclic Sylow subgroup: the other Sylow subgroup is a minimum
    cut-set (unique except possibly when it is odd and the non-cyclic one is
    the 2-Sylow). Both non-cyclic: kappa = min(|P1|, |P2|, |C~|) where C is a
    minimum-order maximal cyclic subgroup and C~ its non-generators, provided
    either p1 >= 3 with a maximal cyclic subgroup of order p1*p2 present, or
    the smaller Sylow subgroup is elementary abelian. With both Sylow
    subgroups non-cyclic no maximal cyclic subgroup has order below p1*p2,
    so one of that order exists exactly when m = p1*p2.
    """
    pairs = factorize(n)
    if len(pairs) != 2:
        raise ValueError("need exactly two distinct primes")
    (p1, n1), (p2, n2) = pairs
    non = tuple(sorted(set(dec.noncyclic)))
    if not set(non) <= {p1, p2}:
        raise ValueError("decomposition names primes outside the factorization")
    if len(non) == 0:
        raise ValueError("an abelian group with all Sylow subgroups cyclic is cyclic")
    if len(non) == 1:
        p_i = non[0]
        p_j, n_j = (p2, n2) if p_i == p1 else (p1, n1)
        unique = p1 >= 3 or p_i == p2
        trace = (
            ("exactly one non-cyclic Sylow subgroup", True),
            ("smallest prime >= 3, or the odd Sylow subgroup is the non-cyclic one", unique),
        )
        forecast = CutsetForecast(count=1 if unique else None, subgroup_products=((p_j,),))
        return Prediction(
            kappa=p_j**n_j,
            case_tag="two-primes-one-noncyclic",
            cutsets=forecast,
            hypothesis_trace=trace,
        )
    gate_small = p1 >= 3 and m == p1 * p2
    gate_elem = p1 in dec.elementary
    trace = (
        ("both Sylow subgroups non-cyclic", True),
        (f"p1 >= 3 and a maximal cyclic subgroup of order {p1 * p2} exists", gate_small),
        ("Sylow subgroup at the smallest prime is elementary abelian", gate_elem),
    )
    if not (gate_small or gate_elem):
        return Prediction.gated("two-primes-both-noncyclic-gated", trace)
    kappa = min(p1**n1, p2**n2, m - euler_phi(m))
    return Prediction(
        kappa=kappa,
        case_tag="two-primes-both-noncyclic",
        cutsets=CutsetForecast(),
        hypothesis_trace=trace,
    )


def kappa_abelian_three_primes(n: int, dec: SylowDecomposition, m: int) -> Prediction:
    """Connectivity for a non-cyclic abelian group of order n with three prime
    divisors, exactly one non-cyclic Sylow subgroup (Sylow data ``dec``) and
    least maximal cyclic order m.

    When the non-cyclic Sylow subgroup is odd, or is not at the smallest
    prime, the product of the other two Sylow subgroups is the unique minimum
    cut-set. When it is the 2-Sylow, kappa = min(|P2*P3|, kappa(P(C))) with C
    a minimum-order maximal cyclic subgroup, resolved by the power of 2 in
    |C|.
    """
    pairs = factorize(n)
    if len(pairs) != 3:
        raise ValueError("need exactly three distinct primes")
    ps, es = zip(*pairs)
    non = tuple(sorted(set(dec.noncyclic)))
    if len(non) != 1 or non[0] not in ps:
        raise ValueError("need exactly one non-cyclic Sylow subgroup at a dividing prime")
    p_k = non[0]
    k = ps.index(p_k)
    if ps[0] == 2 and k == 0:
        c = p_adic_valuation(m, 2)
        odd_part = ps[1] ** es[1] * ps[2] ** es[2]
        if c < 1 or m != 2**c * odd_part:
            raise ValueError(
                f"minimum maximal cyclic order {m} does not match the expected "
                f"shape 2^c * {odd_part}"
            )
        trace = (
            ("the 2-Sylow subgroup is the only non-cyclic one", True),
            (f"power of 2 in the minimum maximal cyclic order exceeds 1 (c={c})", c > 1),
        )
        if c > 1:
            kappa = odd_part
            tag = "three-primes-even-noncyclic-deep"
        else:
            kappa = kappa_cyclic(m).kappa
            tag = "three-primes-even-noncyclic-shallow"
        return Prediction(
            kappa=kappa,
            case_tag=tag,
            cutsets=CutsetForecast(),
            hypothesis_trace=trace,
        )
    others = tuple(p for p in ps if p != p_k)
    kappa = prod(p ** es[ps.index(p)] for p in others)
    trace = (
        ("exactly one non-cyclic Sylow subgroup", True),
        ("non-cyclic Sylow subgroup is not the even one", True),
    )
    return Prediction(
        kappa=kappa,
        case_tag="three-primes-odd-noncyclic",
        cutsets=CutsetForecast(count=1, subgroup_products=(others,)),
        hypothesis_trace=trace,
    )


def gamma_cardinality(m: int, p2: int, n2: int, p3: int, n3: int) -> int:
    """Size of the layered cut-set of a maximal cyclic subgroup of order
    2**m * p2**n2 * p3**n3 (p2 < p3 odd primes; m, n2, n3 >= 1)."""
    if min(m, n2, n3) < 1:
        raise ValueError("exponents must be >= 1")
    if not (is_prime(p2) and is_prime(p3)) or not 2 < p2 < p3:
        raise ValueError(f"need odd primes p2 < p3, got {p2}, {p3}")
    order = 2**m * p2**n2 * p3**n3
    return euler_phi(order) + 2 ** (m - 1) * p2 ** (n2 - 1) * ((p2 - 1) * p3 ** (n3 - 1) + 2)
