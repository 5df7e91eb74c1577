import json
from dataclasses import replace
from math import prod

import pytest

from powergraphs import harness
from powergraphs.groups import (
    direct_product,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
)
from powergraphs.harness import (
    ResourceCaps,
    corpus_groups,
    generate_abelian_corpus,
    min_maximal_cyclic_order,
    run_property_suite,
    survey,
    verify_theorem,
)
from powergraphs.predictions import CutsetForecast


def test_corpus_small_orders():
    specs = generate_abelian_corpus(4)
    assert [make_abelian(s).name for s in specs] == ["C2", "C3", "C4", "C2xC2"]


def test_corpus_order_8_slice():
    specs = [s for s in generate_abelian_corpus(8) if s.order == 8]
    assert {make_abelian(s).name for s in specs} == {"C8", "C2xC4", "C2xC2xC2"}


def test_corpus_order_36_slice():
    specs = [s for s in generate_abelian_corpus(36) if s.order == 36]
    assert len(specs) == 4


def test_corpus_deterministic():
    assert generate_abelian_corpus(30) == generate_abelian_corpus(30)
    groups = corpus_groups(20)
    names = [g.name for g in groups]
    assert names == [h.name for h in corpus_groups(20)]
    assert "Q8" in names and "Q16" in names
    assert "D6" in names and "D20" in names
    assert "Q32" not in names  # order cap applies to the exceptional list too


def test_min_maximal_cyclic_order_matches_the_poset():
    # the count-only helper against the maximal nodes of the poset, and the
    # thm13 gate read from it: with both Sylow subgroups non-cyclic, a
    # maximal cyclic subgroup of order p1*p2 exists exactly when m = p1*p2
    both_noncyclic = 0
    for spec in generate_abelian_corpus(400):
        G = make_abelian(spec)
        if G.is_cyclic:
            continue
        orders = {M.order for M in G.maximal_cyclics}
        m = min_maximal_cyclic_order(G)
        assert m == min(orders), G.name
        primes = G.sylow_decomposition().primes
        if len(primes) == 2 and G.sylow_decomposition().noncyclic == primes:
            both_noncyclic += 1
            assert (prod(primes) in orders) == (m == prod(primes)), G.name
    assert both_noncyclic > 0


def test_verify_cyclic_match():
    report = verify_theorem("thm11", make_cyclic(12))
    assert report.verdict == "match"
    assert report.observed_kappa == 6
    assert len(report.observed_cutsets) == 1


def test_verify_cyclic_complete_graph():
    report = verify_theorem("thm11", make_cyclic(9))
    assert report.verdict == "match"
    assert report.observed_kappa == 8
    assert report.observed_cutsets is None


def test_verify_skipped_hypothesis_reports_data():
    report = verify_theorem("thm11", make_abelian([(2, 1), (2, 1)]))
    assert report.verdict == "skipped-hypothesis"
    assert report.observed_kappa == 1  # data still computed


def test_verify_nilpotent_unique_cutset():
    report = verify_theorem("thm12", make_abelian([(3, 1), (3, 1), (5, 1)]))
    assert report.verdict == "match"
    assert report.observed_kappa == 5
    assert report.observed_cutsets == report.predicted_cutsets
    assert len(report.observed_cutsets) == 1


def test_verify_nilpotent_unique_cutset_175_vertices():
    report = verify_theorem("thm12", make_abelian([(5, 1), (5, 1), (7, 1)]))
    assert report.verdict == "match"
    assert report.observed_kappa == 7
    assert report.observed_cutsets == report.predicted_cutsets


def test_verify_nilpotent_smaller_prime_complement():
    # the non-cyclic Sylow subgroup sits at the larger prime; the unique
    # minimum cut-set is the 2-Sylow subgroup
    report = verify_theorem("thm12", make_abelian([(2, 2), (3, 1), (3, 1)]))
    assert report.verdict == "match"
    assert report.observed_kappa == 4
    assert len(report.observed_cutsets) == 1


def test_verify_two_prime_example_multiple_cutsets():
    report = verify_theorem("thm13", make_abelian([(2, 1), (2, 1), (3, 1)]))
    assert report.verdict == "match"
    assert report.observed_kappa == 3
    assert len(report.observed_cutsets) == 4
    assert report.predicted_cutsets[0] in report.observed_cutsets


def test_verify_three_prime_unique_product():
    report = verify_theorem("thm14", make_abelian([(2, 1), (3, 1), (3, 1), (5, 1)]))
    assert report.verdict == "match"
    assert report.observed_kappa == 10
    assert report.observed_cutsets == report.predicted_cutsets


def test_verify_quaternion_excluded_case_reports_data():
    # nilpotent with a generalized quaternion 2-Sylow subgroup: no claim made,
    # but the observed connectivity is still reported
    G = direct_product(make_generalized_quaternion(8), make_cyclic(3))
    report = verify_theorem("thm12", G)
    assert report.verdict == "skipped-hypothesis"
    assert report.observed_kappa is not None
    trace = dict(report.prediction.hypothesis_trace)
    assert trace["non-cyclic Sylow 2-subgroup is not generalized quaternion"] is False


def test_verify_resource_skip():
    caps = ResourceCaps(max_brute_vertices=10)
    report = verify_theorem("thm11", make_cyclic(30), caps)
    assert report.verdict == "skipped-resource"
    assert report.observed_kappa is None
    assert report.prediction.kappa == 12


def test_verify_enumeration_resource_skip():
    # C12 has one minimum cut-set, listed in 1 flow
    caps = ResourceCaps(max_combinations=0)
    report = verify_theorem("thm11", make_cyclic(12), caps)
    assert report.verdict == "skipped-resource"
    assert report.observed_kappa == 6


@pytest.mark.parametrize("nodes", range(6))
@pytest.mark.parametrize(
    "group", [make_cyclic(105), make_abelian([(3, 1), (5, 1), (7, 1)])], ids=lambda g: g.name
)
def test_capped_verify_reports_only_minimum_cutsets(group, nodes):
    # the enumeration starts from the least degree, so a capped search may
    # hold heavier sets than kappa (a 59-set on C3xC5xC7 after one node)
    report = verify_theorem("thm11", group, ResourceCaps(max_combinations=nodes))
    assert report.observed_kappa == 55
    assert all(len(s) == 55 for s in report.observed_cutsets)


def test_verify_props_verdict():
    report = verify_theorem("props", make_abelian([(2, 1), (2, 1), (3, 1)]))
    assert report.verdict == "match"
    assert "suite checks ran" in report.detail


def test_verify_unknown_theorem():
    with pytest.raises(ValueError):
        verify_theorem("thm99", make_cyclic(6))


def test_report_json_schema():
    report = verify_theorem("thm12", make_abelian([(3, 1), (3, 1), (5, 1)]))
    payload = report.to_json_dict()
    for key in (
        "group",
        "theorem",
        "applicable",
        "hypothesis_trace",
        "predicted_kappa",
        "observed_kappa",
        "predicted_cutsets",
        "observed_cutsets",
        "verdict",
    ):
        assert key in payload
    assert payload["hypothesis_trace"] and set(payload["hypothesis_trace"][0]) == {
        "cond",
        "holds",
    }
    json.dumps(payload)  # serializable


def test_reports_deterministic():
    a = verify_theorem("thm13", make_abelian([(2, 1), (2, 1), (3, 1)]))
    b = verify_theorem("thm13", make_abelian([(2, 1), (2, 1), (3, 1)]))
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_survey_cyclic_small():
    reports = survey("thm11", 24)
    assert len(reports) == 23
    assert all(r.verdict == "match" for r in reports)


def test_survey_cyclic_every_order_to_120():
    # every clause of the cyclic formula agrees with brute force, and every
    # claimed cut-set count matches exact enumeration
    reports = survey("thm11", 120)
    assert len(reports) == 119
    assert all(r.verdict == "match" for r in reports)


def test_survey_contains_exceptional_families():
    reports = survey("thm12", 16)
    labels = {r.group_label for r in reports}
    assert "Q8" in labels and "D6" in labels


def test_run_property_suite_unknown_id():
    with pytest.raises(ValueError):
        run_property_suite("no-such-suite", [make_cyclic(6)])


def test_run_property_suite_single():
    summary = run_property_suite("graph-basics", [make_cyclic(6), make_cyclic(8)])
    assert summary.passed
    assert [r.status for r in summary.results] == ["pass", "pass"]
    assert summary.first_failure() is None


def patch_prediction(monkeypatch, theorem_id, edit):
    """Make theorem_id's predictor return edit(prediction) instead."""
    tag, stages, predict = harness._THEOREM_GATES[theorem_id]
    monkeypatch.setitem(
        harness._THEOREM_GATES, theorem_id, (tag, stages, lambda g: edit(predict(g)))
    )


@pytest.mark.parametrize(
    "theorem_id, G, edit, detail",
    [
        (
            "thm12",
            make_abelian([(3, 1), (3, 1), (5, 1)]),
            lambda p: replace(p, kappa=p.kappa + 1),
            "kappa mismatch: predicted 6, observed 5",
        ),
        (
            # C12 has one minimum cut-set
            "thm11",
            make_cyclic(12),
            lambda p: replace(p, cutsets=CutsetForecast(count=2)),
            "expected 2 cut-sets, found 1",
        ),
        (
            # the Sylow 2-subgroup of C2xC2xC3 has 4 > kappa = 3 elements
            "thm13",
            make_abelian([(2, 1), (2, 1), (3, 1)]),
            lambda p: replace(
                p, cutsets=CutsetForecast(subgroup_products=((2,),))
            ),
            "a predicted cut-set is not among the observed ones",
        ),
        (
            # C18 has two minimum cut-sets
            "thm11",
            make_cyclic(18),
            lambda p: replace(p, cutsets=CutsetForecast(count=1)),
            "expected 1 cut-sets, found 2",
        ),
        (
            # C3xC3xC5 has one minimum cut-set, the Sylow 5-subgroup
            "thm12",
            make_abelian([(3, 1), (3, 1), (5, 1)]),
            lambda p: replace(
                p, cutsets=CutsetForecast(count=1, subgroup_products=((3,),))
            ),
            "a predicted cut-set is not among the observed ones",
        ),
    ],
    ids=["kappa", "count", "named-set", "unique-two-observed", "unique-other-set"],
)
def test_verify_mismatch_verdicts(monkeypatch, theorem_id, G, edit, detail):
    assert verify_theorem(theorem_id, G).verdict == "match"
    patch_prediction(monkeypatch, theorem_id, edit)
    report = verify_theorem(theorem_id, G)
    assert report.verdict == "mismatch"
    assert report.detail == detail
    assert report.to_json_dict()["verdict"] == "mismatch"
