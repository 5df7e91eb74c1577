"""Verification harness: corpora, theorem checks against brute force, suites.

A verification runs an applicability-gated closed-form prediction next to an
unconditional brute-force computation on the same group and compares them.
Verdicts: "match", "mismatch", "skipped-hypothesis" (a gate failed; brute
data may still be reported), "skipped-resource" (group too large or the
enumeration hit its bound).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product as iter_product

from .connectivity import (
    ResourceLimitError,
    all_minimum_cutsets,
    vertex_connectivity,
)
from .cyclic import (
    maximal_cyclic_orders,
    min_order_maximal_cyclic,
    sylow_product,
)
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
    CutsetForecast,
    Factorization,
    Prediction,
    SylowProfile,
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
        return {
            "group": self.group_label,
            "theorem": self.theorem_id,
            "applicable": pred.applicable,
            "hypothesis_trace": [
                {"cond": cond, "holds": holds} for cond, holds in pred.hypothesis_trace
            ],
            "predicted_kappa": pred.kappa,
            "observed_kappa": self.observed_kappa,
            "predicted_cutsets": (
                None
                if self.predicted_cutsets is None
                else [list(s) for s in self.predicted_cutsets]
            ),
            "predicted_cutset_count": pred.cutsets.count,
            "case": pred.case_tag,
            "observed_cutsets": (
                None
                if self.observed_cutsets is None
                else [list(s) for s in self.observed_cutsets]
            ),
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
    if max_order < 2:
        raise ValueError(f"max_order must be >= 2, got {max_order}")
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


def corpus_groups(max_order: int) -> tuple[Group, ...]:
    """Abelian corpus plus the exceptional families, in deterministic order."""
    abelian = [make_abelian(spec) for spec in generate_abelian_corpus(max_order)]
    return tuple(abelian) + exceptional_groups(max_order)


def sylow_profile(group: Group) -> SylowProfile:
    """Structural facts consumed by the arithmetic predictors."""
    dec = group.sylow_decomposition()
    orders = group.element_orders
    noncyclic = []
    elementary = []
    for p, members in zip(dec.primes, dec.subgroups):
        if max(orders[g] for g in members) != len(members):
            noncyclic.append(p)
        if all(orders[g] in (1, p) for g in members):
            elementary.append(p)
    return SylowProfile(
        noncyclic=tuple(noncyclic),
        elementary=tuple(elementary),
        min_maximal_cyclic_order=min_order_maximal_cyclic(group).order,
        maximal_cyclic_orders=maximal_cyclic_orders(group),
    )


def _is_generalized_quaternion_sylow(group: Group, members: frozenset[int]) -> bool:
    # a non-cyclic 2-group with a unique involution is generalized quaternion
    orders = group.element_orders
    size = len(members)
    noncyclic = max(orders[g] for g in members) != size
    involutions = sum(1 for g in members if orders[g] == 2)
    return noncyclic and involutions == 1


def _inapplicable(trace: tuple[tuple[str, bool], ...], tag: str) -> Prediction:
    return Prediction(
        applicable=False,
        kappa=None,
        case_tag=tag,
        cutsets=CutsetForecast(kind="unknown"),
        hypothesis_trace=trace,
    )


def predict_for_group(
    theorem_id: str, group: Group
) -> tuple[Prediction, tuple[frozenset[int], ...] | None]:
    """Prediction for the group plus any structurally named cut-sets."""
    if theorem_id == "thm11":
        cyclic = group.is_cyclic
        trace = (("group is cyclic", cyclic), ("order >= 2", group.size >= 2))
        if not (cyclic and group.size >= 2):
            return _inapplicable(trace, "cyclic-gated"), None
        pred = kappa_cyclic(group.size)
        return replace(pred, hypothesis_trace=trace + pred.hypothesis_trace), None

    if theorem_id == "thm12":
        trace = [
            ("group is non-cyclic", not group.is_cyclic),
            ("group is nilpotent", group.is_nilpotent),
        ]
        if group.is_cyclic or not group.is_nilpotent:
            return _inapplicable(tuple(trace), "nilpotent-gated"), None
        dec = group.sylow_decomposition()
        f = Factorization.from_int(group.size)
        profile = sylow_profile(group)
        trace.append(("order has at least two prime divisors", f.r >= 2))
        trace.append(
            ("exactly one Sylow subgroup is non-cyclic", len(profile.noncyclic) == 1)
        )
        if f.r < 2 or len(profile.noncyclic) != 1:
            return _inapplicable(tuple(trace), "nilpotent-gated"), None
        p_k = profile.noncyclic[0]
        quaternion = p_k == 2 and _is_generalized_quaternion_sylow(
            group, dec.subgroup(2)
        )
        pred = kappa_nilpotent_one_noncyclic(
            f, p_k, sylow_is_generalized_quaternion=quaternion
        )
        pred = replace(pred, hypothesis_trace=tuple(trace) + pred.hypothesis_trace)
        return pred, _materialize_cutsets(group, pred.cutsets)

    if theorem_id == "thm13":
        trace = [
            ("group is abelian", group.is_abelian),
            ("group is non-cyclic", not group.is_cyclic),
        ]
        if not group.is_abelian or group.is_cyclic:
            return _inapplicable(tuple(trace), "abelian-gated"), None
        f = Factorization.from_int(group.size)
        trace.append(("order has exactly two prime divisors", f.r == 2))
        if f.r != 2:
            return _inapplicable(tuple(trace), "abelian-gated"), None
        pred = kappa_abelian_two_primes(f, sylow_profile(group))
        pred = replace(pred, hypothesis_trace=tuple(trace) + pred.hypothesis_trace)
        return pred, _materialize_cutsets(group, pred.cutsets)

    if theorem_id == "thm14":
        trace = [
            ("group is abelian", group.is_abelian),
            ("group is non-cyclic", not group.is_cyclic),
        ]
        if not group.is_abelian or group.is_cyclic:
            return _inapplicable(tuple(trace), "abelian-gated"), None
        f = Factorization.from_int(group.size)
        profile = sylow_profile(group)
        trace.append(("order has exactly three prime divisors", f.r == 3))
        trace.append(
            ("exactly one Sylow subgroup is non-cyclic", len(profile.noncyclic) == 1)
        )
        if f.r != 3 or len(profile.noncyclic) != 1:
            return _inapplicable(tuple(trace), "abelian-gated"), None
        pred = kappa_abelian_three_primes(f, profile)
        pred = replace(pred, hypothesis_trace=tuple(trace) + pred.hypothesis_trace)
        return pred, _materialize_cutsets(group, pred.cutsets)

    raise ValueError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")


def _materialize_cutsets(
    group: Group, forecast: CutsetForecast
) -> tuple[frozenset[int], ...] | None:
    if forecast.subgroup_products is None:
        return None
    return tuple(sylow_product(group, primes) for primes in forecast.subgroup_products)


def verify_theorem(
    theorem_id: str, group: Group, caps: ResourceCaps = ResourceCaps()
) -> VerificationReport:
    """Run one prediction against brute force and report the verdict."""
    if theorem_id == "props":
        return _verify_props(group, caps)
    prediction, predicted_sets = predict_for_group(theorem_id, group)
    predicted_tuples = (
        None
        if predicted_sets is None
        else tuple(sorted(tuple(sorted(s)) for s in predicted_sets))
    )
    label = group.name

    if group.size > caps.max_brute_vertices:
        verdict = "skipped-resource"
        detail = f"{group.size} vertices exceed cap {caps.max_brute_vertices}"
        return VerificationReport(
            label, theorem_id, prediction, None, None, predicted_tuples, verdict, detail
        )

    graph = build_power_graph(group)
    observed_kappa = None
    if group.size >= 2:
        observed_kappa = vertex_connectivity(graph)

    if not prediction.applicable:
        return VerificationReport(
            label,
            theorem_id,
            prediction,
            observed_kappa,
            None,
            predicted_tuples,
            "skipped-hypothesis",
            "a hypothesis gate failed; observed connectivity reported as data",
        )

    observed_cutsets = None
    forecast = prediction.cutsets
    if forecast.kind in ("unique", "count", "multiple-possible"):
        try:
            sets = all_minimum_cutsets(
                graph,
                group.generator_classes,
                observed_kappa,
                max_combinations=caps.max_combinations,
            )
            observed_cutsets = tuple(tuple(sorted(s)) for s in sets)
        except ResourceLimitError as exc:
            return VerificationReport(
                label,
                theorem_id,
                prediction,
                observed_kappa,
                tuple(tuple(sorted(s)) for s in exc.partial),
                predicted_tuples,
                "skipped-resource",
                str(exc),
            )

    ok = prediction.kappa == observed_kappa
    detail = ""
    if not ok:
        detail = f"kappa mismatch: predicted {prediction.kappa}, observed {observed_kappa}"
    elif observed_cutsets is not None:
        if forecast.kind == "unique":
            if len(observed_cutsets) != 1:
                ok, detail = False, f"expected a unique cut-set, found {len(observed_cutsets)}"
            elif predicted_tuples is not None and observed_cutsets != predicted_tuples:
                ok, detail = False, "unique cut-set differs from the predicted one"
        elif forecast.kind == "count":
            if len(observed_cutsets) != forecast.count:
                ok, detail = (
                    False,
                    f"expected {forecast.count} cut-sets, found {len(observed_cutsets)}",
                )
        elif forecast.kind == "multiple-possible" and predicted_tuples is not None:
            if not set(predicted_tuples) <= set(observed_cutsets):
                ok, detail = False, "a predicted cut-set is not among the observed ones"
    return VerificationReport(
        label,
        theorem_id,
        prediction,
        observed_kappa,
        observed_cutsets,
        predicted_tuples,
        "match" if ok else "mismatch",
        detail,
    )


def _verify_props(group: Group, caps: ResourceCaps) -> VerificationReport:
    if group.size > caps.max_brute_vertices:
        prediction = Prediction(
            applicable=False,
            kappa=None,
            case_tag="property-suites",
            cutsets=CutsetForecast(kind="unknown"),
            hypothesis_trace=(("property suites executed", False),),
        )
        detail = f"{group.size} vertices exceed cap {caps.max_brute_vertices}"
        return VerificationReport(
            group.name, "props", prediction, None, None, None, "skipped-resource", detail
        )
    summary = run_property_suite("all", [group])
    failed = sorted({r.suite_id for r in summary.results if r.status == "fail"})
    ran = sum(1 for r in summary.results if r.status != "skipped")
    prediction = Prediction(
        applicable=False,
        kappa=None,
        case_tag="property-suites",
        cutsets=CutsetForecast(kind="unknown"),
        hypothesis_trace=(("property suites executed", ran > 0),),
    )
    if failed:
        verdict = "mismatch"
    elif ran:
        verdict = "match"
    else:
        verdict = "skipped-hypothesis"
    detail = f"{ran} suite checks ran" + (f"; failed: {', '.join(failed)}" if failed else "")
    return VerificationReport(group.name, "props", prediction, None, None, None, verdict, detail)


def survey(
    theorem_id: str, max_order: int, caps: ResourceCaps = ResourceCaps()
) -> list[VerificationReport]:
    """Verify one theorem across the corpus up to max_order."""
    if theorem_id == "thm11":
        groups: tuple[Group, ...] = tuple(make_cyclic(n) for n in range(2, max_order + 1))
    else:
        groups = corpus_groups(max_order)
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
    results = []
    for sid in ids:
        check = _suites.SUITES[sid]
        for group in corpus:
            try:
                outcome = check(group)
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
