import argparse
import json
import re
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from powergraphs import harness
from powergraphs.cli import build_parser, main, maximal_cyclic_rows, parse_group_spec
from powergraphs.groups import CyclicGroup, Group, ProductGroup, make_abelian
from powergraphs.harness import THEOREM_IDS
from powergraphs.numtheory import euler_phi
from test_groups import (
    PREDICT_OVERSIZE_REQUESTS,
    count_power_walks,
    overlap_by_definition,
    reference_maximal_cyclics,
    walked_by_multiplication,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_spec():
    assert parse_group_spec("cyclic:12").size == 12
    assert parse_group_spec("abelian:2,2,3").size == 12
    assert parse_group_spec("abelian:2^2,3^2").size == 36
    assert parse_group_spec("quaternion:16").name == "Q16"
    assert parse_group_spec("dihedral:10").name == "D10"
    for bad in ("cyclic", "ring:4", "abelian:4^1", "cyclic:x"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_kappa_command(capsys):
    code, out, _ = run(capsys, "kappa", "--group", "cyclic:12")
    assert code == 0
    assert "kappa 6" in out


def test_kappa_command_json(capsys):
    code, out, _ = run(capsys, "kappa", "--group", "cyclic:12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 6
    assert len(payload["cutset"]) == 6 and 0 in payload["cutset"]


def test_kappa_complete_graph(capsys):
    code, out, _ = run(capsys, "kappa", "--group", "cyclic:8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 7 and payload["cutset"] is None


def test_cutsets_all(capsys):
    code, out, _ = run(capsys, "cutsets", "--group", "cyclic:18", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 9
    assert len(payload["cutsets"]) == 2


def test_maximal_cyclics(capsys):
    code, out, _ = run(capsys, "maximal-cyclics", "--group", "quaternion:16", "--json")
    assert code == 0
    payload = json.loads(out)
    orders = sorted(r["order"] for r in payload["maximal_cyclic_subgroups"])
    assert orders == [4, 4, 4, 4, 8]


def test_verify_match_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm12", "--group", "abelian:3,3,5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "match"
    assert payload["observed_cutsets"] == [[0, 1, 2, 3, 4]]


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "thm13", "--group", "abelian:2,2,3")
    assert code == 0
    assert "verdict match" in out
    assert "[x] group is abelian" in out


def test_verify_strict_resource_exit(capsys):
    code, _, _ = run(
        capsys,
        "verify",
        "--theorem",
        "thm11",
        "--group",
        "cyclic:100",
        "--max-brute-vertices",
        "10",
        "--strict",
    )
    assert code == 3


def test_verify_nonstrict_resource_ok(capsys):
    code, _, _ = run(
        capsys,
        "verify",
        "--theorem",
        "thm11",
        "--group",
        "cyclic:100",
        "--max-brute-vertices",
        "10",
    )
    assert code == 0


def test_survey_json(capsys):
    code, out, _ = run(
        capsys, "survey", "--theorem", "thm11", "--max-order", "12", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 11
    assert all(r["verdict"] == "match" for r in payload)


def test_survey_text_deterministic(capsys):
    code1, out1, _ = run(capsys, "survey", "--theorem", "thm13", "--max-order", "20")
    code2, out2, _ = run(capsys, "survey", "--theorem", "thm13", "--max-order", "20")
    assert code1 == code2 == 0
    assert out1 == out2


def overstate_kappa(monkeypatch, theorem_id):
    """Make theorem_id's predictor claim one more than the true kappa."""
    tag, stages, predict = harness._THEOREM_GATES[theorem_id]

    def wrong(group):
        pred = predict(group)
        return replace(pred, kappa=pred.kappa + 1)

    monkeypatch.setitem(harness._THEOREM_GATES, theorem_id, (tag, stages, wrong))


def test_verify_mismatch_exit_one(capsys, monkeypatch):
    overstate_kappa(monkeypatch, "thm12")
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm12", "--group", "abelian:3,3,5", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "mismatch"
    assert payload["detail"] == "kappa mismatch: predicted 6, observed 5"


def test_survey_mismatch_exit_one(capsys, monkeypatch):
    overstate_kappa(monkeypatch, "thm11")
    code, out, _ = run(capsys, "survey", "--theorem", "thm11", "--max-order", "12")
    assert code == 1
    assert "survey thm11 max-order 12: mismatch=11" in out


@pytest.mark.parametrize("theorem", ["thm11", "thm12"])
def test_survey_max_order_below_two_exit_two(capsys, theorem):
    code, out, err = run(capsys, "survey", "--theorem", theorem, "--max-order", "1")
    assert code == 2
    assert out == ""
    assert "max_order must be >= 2" in err


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "--group", "abelian:2,2")
    assert code == 0
    assert out.splitlines()[0] == 'graph "C2xC2" {'
    assert '  1 [label="1:2"];' in out
    assert "  0 -- 1;" in out
    assert "  1 -- 2;" not in out


def test_export_dot_remove(capsys):
    code, out, _ = run(capsys, "export-dot", "--group", "abelian:2,2", "--remove", "0")
    assert code == 0
    assert "0 [" not in out
    # with the identity removed the star graph has no edges left
    assert not any(" -- " in line for line in out.splitlines())


def test_export_dot_brute_cap_exit_three(capsys):
    code, out, err = run(capsys, "export-dot", "--group", "cyclic:50", "--max-brute-vertices", "10")
    assert code == 3
    assert out == ""
    assert "resource limit:" in err


def test_out_of_memory_exits_three(capsys, monkeypatch):
    # a fallback for inputs no cap catches yet, not a cap: exit 3, the
    # resource-limit code, instead of 1 and a traceback
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr("powergraphs.cli.verify_theorem", exhaust)
    code, out, err = run(capsys, "verify", "--theorem", "thm13", "--group", "abelian:2,2,3^20")
    assert code == 3
    assert out == ""
    assert err == "resource limit: out of memory\n"


@pytest.mark.parametrize("command", ["kappa", "cutsets", "export-dot"])
def test_brute_cap_applies_before_the_group_is_built(capsys, monkeypatch, command):
    def no_build(order):
        raise AssertionError(f"built the oversized group D{order}")

    monkeypatch.setattr("powergraphs.cli.make_dihedral", no_build)
    code, out, err = run(
        capsys, command, "--group", "dihedral:2000", "--max-brute-vertices", "10"
    )
    assert code == 3
    assert out == ""
    assert "dihedral:2000: 2000 vertices exceed --max-brute-vertices 10" in err


def test_verify_thm12_cyclic_skips_without_closures(capsys):
    # the nilpotency gate reads is_abelian, so no closure of the million
    # elements is built before the brute-force cap applies
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm12", "--group", "cyclic:1000000", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "skipped-resource"
    assert payload["hypothesis_trace"] == [
        {"cond": "group is non-cyclic", "holds": False},
        {"cond": "group is nilpotent", "holds": True},
    ]


def test_verify_thm12_oversized_abelian_skips_resource(capsys):
    # 26244 elements: Sylow data counted digit by digit from C2, C2 and C6561, no graph
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem",
        "thm12",
        "--group",
        "abelian:2,2,3^8",
        "--max-brute-vertices",
        "10",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "skipped-resource"


def patch_poset_walk(monkeypatch, walk):
    """Make ``walk(group)`` build the poset of every group that walks its
    cyclic subgroups (the base ``Group.cyclic_poset``)."""
    prop = cached_property(walk)
    prop.__set_name__(Group, "cyclic_poset")
    monkeypatch.setattr(Group, "cyclic_poset", prop)


def refuse_poset_walks(monkeypatch):
    """Make any walk of a group's cyclic subgroups fail."""

    def refuse(group):
        raise AssertionError(f"walked the cyclic subgroups of {group.name}")

    patch_poset_walk(monkeypatch, refuse)


def refuse_coprime_posets(monkeypatch):
    """Make the poset of a cyclic group, or of a product with a coprime cut,
    fail the test; a product with no coprime cut still walks its own."""

    def refuse(group):
        raise AssertionError(f"built the cyclic-subgroup poset of {group.name}")

    def product_poset(group):
        if group._coprime_parts is not None:
            refuse(group)
        return Group.cyclic_poset.func(group)

    monkeypatch.setattr(CyclicGroup, "cyclic_poset", property(refuse))
    monkeypatch.setattr(ProductGroup, "cyclic_poset", property(product_poset))


def log_poset_walks(monkeypatch) -> list[Group]:
    """Log every group whose cyclic subgroups are walked."""
    walked = []
    walk = Group.cyclic_poset.func

    def logged(group):
        walked.append(group)
        return walk(group)

    patch_poset_walk(monkeypatch, logged)
    return walked


def test_verify_oversized_cyclic_product_reads_its_factors(capsys, monkeypatch):
    # C4 x C59049 is cyclic because both factors are: no poset is walked
    refuse_poset_walks(monkeypatch)
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm12", "--group", "abelian:2^2,3^10",
        "--max-brute-vertices", "10", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "skipped-resource"
    assert payload["hypothesis_trace"] == [
        {"cond": "group is non-cyclic", "holds": False},
        {"cond": "group is nilpotent", "holds": True},
    ]


def test_maximal_cyclics_of_an_oversized_cyclic_product(capsys, monkeypatch):
    # the one maximal cyclic subgroup is the tuple of C4's and C59049's,
    # with no poset
    refuse_coprime_posets(monkeypatch)
    code, out, _ = run(capsys, "maximal-cyclics", "--group", "abelian:2^2,3^10", "--json")
    assert code == 0
    payload = json.loads(out)
    n = 4 * 3**10
    assert payload["group"] == "C4xC59049"
    assert payload["maximal_cyclic_subgroups"] == [
        {
            "generator": 3**10 + 1,
            "order": n,
            "nongenerators": n - euler_phi(n),
            "external_overlap": None,
            "elements": list(range(n)),
        }
    ]


def maximal_cyclic_rows_at_the_cli(capsys, spec):
    code, out, _ = run(capsys, "maximal-cyclics", "--group", spec, "--json")
    assert code == 0
    return json.loads(out)["maximal_cyclic_subgroups"]


@pytest.mark.parametrize(
    "spec",
    [spec for theorem, spec in PREDICT_OVERSIZE_REQUESTS if theorem is None],
    ids=lambda spec: make_abelian(spec).name,
)
def test_coprime_product_maximal_cyclics_build_no_poset(capsys, monkeypatch, spec):
    # the tuples of the parts' maximal cyclic subgroups; only the parts with
    # no coprime cut, C2xC2 and C2xC2xC2, walk their posets
    rows = reference_rows(spec)
    refuse_coprime_posets(monkeypatch)
    arg = ",".join(f"{p}^{e}" for p, e in spec)
    assert maximal_cyclic_rows_at_the_cli(capsys, f"abelian:{arg}") == rows


def test_cyclic_group_maximal_cyclics_build_no_poset(capsys, monkeypatch):
    # the one maximal cyclic subgroup is the group, its generators the units
    refuse_coprime_posets(monkeypatch)
    n = 720720
    assert maximal_cyclic_rows_at_the_cli(capsys, f"cyclic:{n}") == [
        {
            "generator": 1,
            "order": n,
            "nongenerators": n - euler_phi(n),
            "external_overlap": None,
            "elements": list(range(n)),
        }
    ]


@pytest.mark.parametrize(
    "spec, kappa, cutset",
    [("dihedral:2000", 1, [0]), ("quaternion:4096", 2, [0, 1024])],
)
def test_dihedral_and_quaternion_commands_make_no_power_walk(capsys, monkeypatch, spec, kappa, cutset):
    # the poset is read off the presentation and the maximal subgroups off
    # the poset; the rows are checked against the maximal subgroups found by
    # definition from the multiplication walk, made before the walks are counted
    G = parse_group_spec(spec)
    G.maximal_cyclics = reference_maximal_cyclics(walked_by_multiplication(G))
    rows = maximal_cyclic_rows(G)
    walked = count_power_walks(monkeypatch)
    code, out, _ = run(capsys, "maximal-cyclics", "--group", spec, "--json")
    assert code == 0
    assert json.loads(out) == {"group": G.name, "maximal_cyclic_subgroups": rows}
    code, out, _ = run(capsys, "kappa", "--group", spec, "--max-brute-vertices", str(G.size), "--json")
    assert code == 0
    assert json.loads(out) == {"group": G.name, "kappa": kappa, "cutset": cutset}
    assert walked == []


def reference_rows(spec):
    """The maximal-cyclics rows read from the group's multiplication walk
    (``walked_by_multiplication``): the maximal subgroups and their
    external overlaps from the cyclic closures, the non-generators from the
    generators mask."""
    G = walked_by_multiplication(make_abelian(spec))
    cyclic = max(G.element_orders) == G.size
    return [
        {
            "generator": m.generator,
            "order": m.order,
            "nongenerators": m.order - m.generators.bit_count(),
            "external_overlap": None if cyclic else len(overlap_by_definition(G, m)),
            "elements": sorted(m.elements),
        }
        for m in reference_maximal_cyclics(G)
    ]


@pytest.mark.parametrize(
    "theorem, spec",
    PREDICT_OVERSIZE_REQUESTS,
    ids=[f"{theorem or 'maximal-cyclics'}-{make_abelian(spec).name}" for theorem, spec in PREDICT_OVERSIZE_REQUESTS],
)
def test_predict_oversize_requests_walk_only_their_blocks(theorem, spec, monkeypatch):
    # the answer comes from the prime blocks (C2xC2, C4xC4, C3xC3: at most 16
    # elements), never from a walk of the product's own cyclic subgroups
    rows = reference_rows(spec) if theorem is None else None
    walked = log_poset_walks(monkeypatch)
    G = make_abelian(spec)
    if theorem is None:
        assert maximal_cyclic_rows(G) == rows
    else:
        prediction, _ = harness.predict_for_group(theorem, G)
        assert prediction.hypothesis_trace
    assert G not in walked
    assert max((g.size for g in walked), default=0) <= 16


def test_verify_enumerates_many_small_classes(capsys):
    # C2^5 x C9: 96 twin classes and 63 minimum cut-sets, at the default caps
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm13", "--group", "abelian:2,2,2,2,2,3^2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "match"
    assert len(payload["observed_cutsets"]) == 63


@pytest.mark.parametrize(
    "argv",
    [
        ("kappa", "--group", "cyclic:12", "--max-combinations", "5"),
        ("maximal-cyclics", "--group", "cyclic:12", "--max-brute-vertices", "5"),
        ("maximal-cyclics", "--group", "cyclic:12", "--max-combinations", "5"),
        ("export-dot", "--group", "cyclic:12", "--json"),
        ("export-dot", "--group", "cyclic:12", "--max-combinations", "5"),
    ],
)
def test_unread_options_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "powergraphs"]
    assert len(commands) == 6
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_invalid_spec_exit_two(capsys):
    code, _, err = run(capsys, "kappa", "--group", "cyclic:zero")
    assert code == 2
    assert "error:" in err


def test_invalid_remove_exit_two(capsys):
    code, _, err = run(capsys, "export-dot", "--group", "abelian:2,2", "--remove", "99")
    assert code == 2
    assert "out of range" in err


def test_invalid_remove_names_the_option(capsys):
    code, _, err = run(capsys, "export-dot", "--group", "cyclic:4", "--remove", "1,x")
    assert code == 2
    assert "bad integer 'x' in --remove '1,x'" in err


@pytest.mark.parametrize("flag", ["--max-brute-vertices", "--max-combinations"])
def test_negative_cap_exit_two(capsys, flag):
    argv = ["verify", "--theorem", "thm11", "--group", "cyclic:12", "--strict"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err
    # a zero cap is valid input, and it is a resource limit
    code, _, _ = run(capsys, *argv, flag, "0")
    assert code == 3


def test_theorem_choices_are_the_harness_ids():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("verify", "survey"):
        theorem = next(a for a in sub.choices[command]._actions if a.dest == "theorem")
        assert tuple(theorem.choices) == THEOREM_IDS


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_call_after_an_exit_two_prints_what_a_fresh_call_prints(capsys):
    argv = ("kappa", "--group", "abelian:2,2,3", "--json")
    build_parser.cache_clear()
    fresh = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "cyclic:12"])  # no --theorem
    assert exc.value.code == 2
    assert run(capsys, "kappa", "--group", "cyclic:0")[0] == 2
    assert run(capsys, *argv) == fresh


SRC = Path(__file__).resolve().parents[1] / "src"
FRESH_RUNS = [
    (["-c", f"import powergraphs.{path.stem}"], "")
    for path in sorted((SRC / "powergraphs").glob("*.py"))
    if path.stem != "__init__"
] + [
    (
        ["-m", "powergraphs.cli", "kappa", "--group", "cyclic:12", "--json"],
        '{"group": "C12", "kappa": 6, "cutset": [0, 1, 5, 6, 7, 11]}\n',
    )
]


@pytest.mark.parametrize(
    "argv, stdout", FRESH_RUNS, ids=[" ".join(argv[1:3]) for argv, _ in FRESH_RUNS]
)
def test_fresh_interpreter_imports(argv, stdout):
    # the package re-exports nothing, so each module must import what it
    # uses itself; a shared test process would hide a missing or circular import
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", stdout)
