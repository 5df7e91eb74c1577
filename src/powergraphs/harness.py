"""Verification harness: corpora, theorem checks against brute force, suites.

A verification runs an applicability-gated closed-form prediction next to an
unconditional brute-force computation on the same group and compares them.
Verdicts: "match", "mismatch", "skipped-hypothesis" (a gate failed; brute
data may still be reported), "skipped-resource" (group too large or the
enumeration hit its bound). A prediction matches when its kappa equals the
observed one and the observed minimum cut-sets obey the forecast's two rules:
their number equals its ``count`` when it has one, and every named cut-set is
among them. A "props" verification runs every property suite instead and
matches when at least one check ran and none failed.

Past ``is_abelian``, gates and predictions read one structural number, the
group's ``count_of_order_dividing``: the Sylow data come from it, and so does
the least maximal cyclic order (``min_maximal_cyclic_order``). No prediction
builds the poset of cyclic subgroups or lists an element beyond its named
cut-sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product as iter_product
from typing import Callable, Iterable, Iterator

from .connectivity import ResourceLimitError, all_minimum_cutsets, vertex_connectivity
from .cyclic import sylow_product
from .groups import (
    AbelianSpec,
    Group,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from .numtheory import factorize
from .powergraph import build_power_graph
from .predictions import (
    Prediction,
    kappa_abelian_three_primes,
    kappa_abelian_two_primes,
    kappa_cyclic,
    kappa_nilpotent_one_noncyclic,
)
from . import suites as _suites

THEOREM_IDS = ("thm11", "thm12", "thm13", "thm14", "props")


@dataclass(frozen=True)
class ResourceCaps:
    """Bounds for brute-force work; exceeding them yields skipped-resource."""

    max_brute_vertices: int = 600
    max_combinations: int = 10_000_000


@dataclass(frozen=True)
class VerificationReport:
    group_label: str
    theorem_id: str
    prediction: Prediction
    observed_kappa: int | None
    observed_cutsets: tuple[tuple[int, ...], ...] | None
    predicted_cutsets: tuple[tuple[int, ...], ...] | None
    verdict: str
    detail: str = ""

    def to_json_dict(self) -> dict:
        pred = self.prediction

        def lists(sets):
            return None if sets is None else [list(s) for s in sets]

        return {
            "group": self.group_label,
            "theorem": self.theorem_id,
            "applicable": pred.applicable,
            "hypothesis_trace": [
                {"cond": cond, "holds": holds} for cond, holds in pred.hypothesis_trace
            ],
            "predicted_kappa": pred.kappa,
            "observed_kappa": self.observed_kappa,
            "predicted_cutsets": lists(self.predicted_cutsets),
            "predicted_cutset_count": pred.cutsets.count,
            "case": pred.case_tag,
            "observed_cutsets": lists(self.observed_cutsets),
            "verdict": self.verdict,
            "detail": self.detail,
        }


def _partitions(k: int, cap: int | None = None) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    cap = k if cap is None else min(cap, k)
    out = []
    for head in range(cap, 0, -1):
        for rest in _partitions(k - head, head):
            out.append((head, *rest))
    return out


def generate_abelian_corpus(max_order: int) -> tuple[AbelianSpec, ...]:
    """One spec per isomorphism class of abelian group of order 2..max_order."""
    specs = []
    for n in range(2, max_order + 1):
        per_prime = [
            [tuple((p, e) for e in part) for part in _partitions(exp)]
            for p, exp in factorize(n)
        ]
        for combo in iter_product(*per_prime):
            factors = tuple(pair for chunk in combo for pair in chunk)
            specs.append(AbelianSpec(factors))
    return tuple(sorted(set(specs), key=lambda s: (s.order, len(s.factors), s.factors)))


def exceptional_groups(max_order: int | None = None) -> tuple[Group, ...]:
    """The fixed non-abelian corpus: Q8, Q16, Q32 and D6 .. D20."""
    groups = [make_generalized_quaternion(k) for k in (8, 16, 32)]
    groups += [make_dihedral(k) for k in range(6, 21, 2)]
    if max_order is not None:
        groups = [g for g in groups if g.size <= max_order]
    return tuple(groups)


def _corpus(max_order: int) -> Iterator[Group]:
    """Abelian corpus plus the exceptional families, built one at a time."""
    yield from map(make_abelian, generate_abelian_corpus(max_order))
    yield from exceptional_groups(max_order)


def corpus_groups(max_order: int) -> tuple[Group, ...]:
    """Abelian corpus plus the exceptional families, in deterministic order."""
    return tuple(_corpus(max_order))


def _prime_count(group: Group) -> int:
    return len(factorize(group.size))


def min_maximal_cyclic_order(group: Group) -> int:
    """The least order m of a maximal cyclic subgroup of an abelian group,
    read off ``count_of_order_dividing`` alone: m is the product, over the
    prime powers p**e exactly dividing the order, of p**a, where a is the
    least j < e with count(p**(j+1)) < count(p) * count(p**j), or e if there
    is none.

    Proof. Let P = C(p**e_1) + ... + C(p**e_k), e_1 <= ... <= e_k, be the
    Sylow p-subgroup. <g> is maximal in P exactly when g is not in pP: if
    g = ph with h != 0, <g> lies in <h>, of order p|g|; if g is not in pP
    and g = th, then p does not divide t, so <g> = <h>. Such a g has a
    coordinate of order p**e_i, so the least order is p**e_1, which a
    generator of C(p**e_1) attains. count(p**j) = p**(sum of min(e_i, j)),
    so count(p**(j+1)) / count(p**j) = p**#{i : e_i > j}, which equals
    count(p) = p**k exactly while j < e_1; hence a = e_1, which is e exactly
    when P is cyclic. An abelian group is nilpotent, and a nilpotent group's
    maximal cyclic subgroups are the products of one maximal cyclic subgroup
    of each Sylow subgroup, so the least order is the product of the p**e_1.
    """
    count = group.count_of_order_dividing
    m = 1
    for p, e in factorize(group.size):
        m *= p ** next((j for j in range(e) if count(p ** (j + 1)) < count(p) * count(p**j)), e)
    return m


_Condition = tuple[str, Callable[[Group], bool]]
_Stage = tuple[_Condition, ...]

_NONCYCLIC: _Condition = ("group is non-cyclic", lambda g: not g.is_cyclic)
_ABELIAN_NONCYCLIC: _Stage = (("group is abelian", lambda g: g.is_abelian), _NONCYCLIC)
_ONE_NONCYCLIC: _Condition = (
    "exactly one Sylow subgroup is non-cyclic",
    lambda g: len(g.sylow_decomposition().noncyclic) == 1,
)

# theorem id -> (case tag when a gate fails, gate stages, predictor); every
# condition of a stage is traced before the stage is checked
_THEOREM_GATES: dict[str, tuple[str, tuple[_Stage, ...], Callable[[Group], Prediction]]] = {
    "thm11": (
        "cyclic-gated",
        ((("group is cyclic", lambda g: g.is_cyclic), ("order >= 2", lambda g: g.size >= 2)),),
        lambda g: kappa_cyclic(g.size),
    ),
    "thm12": (
        "nilpotent-gated",
        (
            (_NONCYCLIC, ("group is nilpotent", lambda g: g.is_nilpotent)),
            (
                ("order has at least two prime divisors", lambda g: _prime_count(g) >= 2),
                _ONE_NONCYCLIC,
            ),
        ),
        lambda g: kappa_nilpotent_one_noncyclic(g.size, g.sylow_decomposition()),
    ),
    "thm13": (
        "abelian-gated",
        (
            _ABELIAN_NONCYCLIC,
            (("order has exactly two prime divisors", lambda g: _prime_count(g) == 2),),
        ),
        lambda g: kappa_abelian_two_primes(g.size, g.sylow_decomposition(), min_maximal_cyclic_order(g)),
    ),
    "thm14": (
        "abelian-gated",
        (
            _ABELIAN_NONCYCLIC,
            (
                ("order has exactly three prime divisors", lambda g: _prime_count(g) == 3),
                _ONE_NONCYCLIC,
            ),
        ),
        lambda g: kappa_abelian_three_primes(g.size, g.sylow_decomposition(), min_maximal_cyclic_order(g)),
    ),
}


def predict_for_group(
    theorem_id: str, group: Group
) -> tuple[Prediction, tuple[frozenset[int], ...] | None]:
    """Prediction for the group plus any structurally named cut-sets."""
    try:
        gated_tag, stages, predict = _THEOREM_GATES[theorem_id]
    except KeyError:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}"
        ) from None
    trace: tuple[tuple[str, bool], ...] = ()
    for stage in stages:
        trace += tuple((cond, holds(group)) for cond, holds in stage)
        if not all(ok for _, ok in trace):
            return Prediction.gated(gated_tag, trace), None
    pred = predict(group)
    pred = replace(pred, hypothesis_trace=trace + pred.hypothesis_trace)
    products = pred.cutsets.subgroup_products
    if products is None:
        return pred, None
    return pred, tuple(sylow_product(group, primes) for primes in products)


def _sorted_cutsets(sets: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Cut-sets as sorted tuples, listed in ascending order."""
    return tuple(sorted(tuple(sorted(s)) for s in sets))


def verify_theorem(
    theorem_id: str, group: Group, caps: ResourceCaps = ResourceCaps()
) -> VerificationReport:
    """Run one prediction against brute force and report the verdict.

    Minimum cut-sets are enumerated only when the forecast claims something
    about them, and checked by its two rules (see the module docstring).
    """
    if theorem_id == "props":
        return _verify_props(group, caps)
    prediction, predicted_sets = predict_for_group(theorem_id, group)
    predicted = None if predicted_sets is None else _sorted_cutsets(predicted_sets)

    def report(verdict, detail="", observed_kappa=None, observed=None) -> VerificationReport:
        return VerificationReport(
            group.name, theorem_id, prediction, observed_kappa, observed, predicted,
            verdict, detail,
        )

    if group.size > caps.max_brute_vertices:
        return report(
            "skipped-resource", f"{group.size} vertices exceed cap {caps.max_brute_vertices}"
        )
    graph = build_power_graph(group)
    forecast = prediction.cutsets
    observed = None
    if prediction.applicable and forecast.claims:
        try:
            observed_kappa, sets = all_minimum_cutsets(graph, max_combinations=caps.max_combinations)
        except ResourceLimitError as exc:
            observed_kappa = vertex_connectivity(graph)  # the sets found may weigh more
            minimum = _sorted_cutsets(s for s in exc.partial if len(s) == observed_kappa)
            return report("skipped-resource", str(exc), observed_kappa, minimum)
        observed = _sorted_cutsets(sets)
    else:
        observed_kappa = vertex_connectivity(graph) if group.size >= 2 else None
    if not prediction.applicable:
        return report(
            "skipped-hypothesis",
            "a hypothesis gate failed; observed connectivity reported as data",
            observed_kappa,
        )
    detail = ""
    if prediction.kappa != observed_kappa:
        detail = f"kappa mismatch: predicted {prediction.kappa}, observed {observed_kappa}"
    elif observed is not None:
        if forecast.count is not None and len(observed) != forecast.count:
            detail = f"expected {forecast.count} cut-sets, found {len(observed)}"
        elif predicted is not None and not set(predicted) <= set(observed):
            detail = "a predicted cut-set is not among the observed ones"
    return report("mismatch" if detail else "match", detail, observed_kappa, observed)


def _verify_props(group: Group, caps: ResourceCaps) -> VerificationReport:
    if group.size > caps.max_brute_vertices:
        ran, verdict = 0, "skipped-resource"
        detail = f"{group.size} vertices exceed cap {caps.max_brute_vertices}"
    else:
        summary = run_property_suite("all", [group])
        failed = sorted({r.suite_id for r in summary.results if r.status == "fail"})
        ran = sum(1 for r in summary.results if r.status != "skipped")
        verdict = "mismatch" if failed else "match" if ran else "skipped-hypothesis"
        detail = f"{ran} suite checks ran" + (f"; failed: {', '.join(failed)}" if failed else "")
    prediction = Prediction.gated("property-suites", (("property suites executed", ran > 0),))
    return VerificationReport(group.name, "props", prediction, None, None, None, verdict, detail)


def survey(
    theorem_id: str, max_order: int, caps: ResourceCaps = ResourceCaps()
) -> list[VerificationReport]:
    """Verify one theorem across the corpus up to max_order."""
    if max_order < 2:
        raise ValueError(f"max_order must be >= 2, got {max_order}")
    # one group at a time, so each group's structure is freed after its report
    if theorem_id == "thm11":
        groups: Iterable[Group] = map(make_cyclic, range(2, max_order + 1))
    else:
        groups = _corpus(max_order)
    return [verify_theorem(theorem_id, g, caps) for g in groups]


# ---------------------------------------------------------------------------
# property suites


@dataclass(frozen=True)
class SuiteResult:
    suite_id: str
    group_label: str
    status: str  # pass | fail | skipped
    detail: str = ""


@dataclass(frozen=True)
class SuiteSummary:
    suite_id: str
    results: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def first_failure(self) -> SuiteResult | None:
        return next((r for r in self.results if r.status == "fail"), None)


def run_property_suite(
    suite_id: str, corpus: list[Group] | tuple[Group, ...]
) -> SuiteSummary:
    """Run a registered suite (or "all") over the corpus, per-group results."""
    if suite_id == "all":
        ids = sorted(_suites.SUITES)
    elif suite_id in _suites.SUITES:
        ids = [suite_id]
    else:
        raise ValueError(
            f"unknown suite {suite_id!r}; registered: {', '.join(sorted(_suites.SUITES))}"
        )
    graphs = [build_power_graph(group) for group in corpus]
    results = []
    for sid in ids:
        check = _suites.SUITES[sid]
        for group, graph in zip(corpus, graphs):
            try:
                outcome = check(group, graph)
            except ResourceLimitError as exc:
                results.append(SuiteResult(sid, group.name, "skipped", str(exc)))
                continue
            if outcome is None:
                results.append(SuiteResult(sid, group.name, "skipped", "not applicable"))
            else:
                ok, detail = outcome
                results.append(
                    SuiteResult(sid, group.name, "pass" if ok else "fail", detail)
                )
    return SuiteSummary(suite_id, tuple(results))
