"""Command-line interface.

Subcommands: kappa, cutsets, maximal-cyclics, verify, survey, export-dot.
Group specs: ``cyclic:N``, ``abelian:p^e,p^e,...``, ``quaternion:N``,
``dihedral:N``. Exit codes: 0 ok, 1 mismatch or suite failure, 2 invalid
input, 3 resource limit: a cap (resource skips only in strict mode), or out
of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from typing import Callable

from .connectivity import (
    ResourceLimitError,
    all_minimum_cutsets,
    minimum_cutset,
)
from .cyclic import external_overlap
from .groups import (
    AbelianSpec,
    Group,
    UnsupportedStructureError,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from .harness import THEOREM_IDS, ResourceCaps, survey, verify_theorem
from .powergraph import build_power_graph

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def parse_group_spec(text: str) -> Group:
    """Build a group from a spec like cyclic:12 or abelian:2^2,3."""
    return _parse_spec(text)[1]()


def _parse_spec(text: str) -> tuple[int, Callable[[], Group]]:
    """The order a group spec names and the constructor of its group; nothing is built."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"group spec {text!r} needs the form kind:args")
    where = f"group spec {text!r}"
    if kind == "abelian":
        factors = []
        for chunk in rest.split(","):
            base, caret, exp = chunk.strip().partition("^")
            p = _parse_int(base, where)
            e = _parse_int(exp, where) if caret else 1
            factors.append((p, e))
        spec = AbelianSpec(tuple(factors))
        return spec.order, partial(make_abelian, spec)
    makers = dict(cyclic=make_cyclic, quaternion=make_generalized_quaternion, dihedral=make_dihedral)
    if kind not in makers:
        raise ValueError(f"unknown group kind {kind!r} in spec {text!r}")
    n = _parse_int(rest, where)
    return n, partial(makers[kind], n)


def _parse_int(chunk: str, where: str) -> int:
    try:
        return int(chunk)
    except ValueError:
        raise ValueError(f"bad integer {chunk!r} in {where}") from None


def non_negative_int(text: str) -> int:
    """A resource cap: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _caps(args: argparse.Namespace) -> ResourceCaps:
    return ResourceCaps(
        max_brute_vertices=args.max_brute_vertices,
        max_combinations=args.max_combinations,
    )


def _capped_group(args: argparse.Namespace) -> Group:
    """The --group group, refused before it is built if above --max-brute-vertices."""
    order, build = _parse_spec(args.group)
    if order > args.max_brute_vertices:
        raise ResourceLimitError(
            f"{args.group}: {order} vertices exceed --max-brute-vertices "
            f"{args.max_brute_vertices}"
        )
    return build()


def _cmd_kappa(args: argparse.Namespace) -> int:
    group = _capped_group(args)
    if group.size < 2:
        raise ValueError("connectivity needs a group of order >= 2")
    graph = build_power_graph(group)
    if graph.is_complete:
        kappa, cutset = graph.vertex_count - 1, None
    else:
        cutset = sorted(minimum_cutset(graph))
        kappa = len(cutset)
    if args.json:
        print(json.dumps({"group": group.name, "kappa": kappa, "cutset": cutset}))
    else:
        print(f"group {group.name}  order {group.size}")
        print(f"kappa {kappa}")
        if cutset is None:
            print("minimum cut-set: none (complete graph)")
        else:
            print(f"minimum cut-set {cutset}")
    return EXIT_OK


def _cmd_cutsets(args: argparse.Namespace) -> int:
    group = _capped_group(args)
    if group.size < 2:
        raise ValueError("cut-sets need a group of order >= 2")
    graph = build_power_graph(group)
    if args.all or graph.is_complete:
        kappa, found = all_minimum_cutsets(graph, max_combinations=args.max_combinations)
        sets = [sorted(s) for s in found]
    else:
        sets = [sorted(minimum_cutset(graph))]
        kappa = len(sets[0])
    if args.json:
        print(json.dumps({"group": group.name, "kappa": kappa, "cutsets": sets}))
    else:
        print(f"group {group.name}  kappa {kappa}  cut-sets {len(sets)}")
        for s in sets:
            print(f"  {s}")
    return EXIT_OK


def maximal_cyclic_rows(group: Group) -> list[dict]:
    """One row per maximal cyclic subgroup M: its least generator, order,
    number of non-generators and of external-overlap elements (None for a
    cyclic group), and sorted members."""
    maximal = group.maximal_cyclics
    overlaps = [None] * len(maximal) if group.is_cyclic else map(len, external_overlap(group))
    return [
        {
            "generator": m.generator,
            "order": m.order,
            "nongenerators": m.order - m.generators.bit_count(),
            "external_overlap": overlap,
            "elements": sorted(m.elements),
        }
        for m, overlap in zip(maximal, overlaps)
    ]


def _cmd_maximal_cyclics(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.group)
    rows = maximal_cyclic_rows(group)
    if args.json:
        print(json.dumps({"group": group.name, "maximal_cyclic_subgroups": rows}))
    else:
        print(f"group {group.name}  maximal cyclic subgroups {len(rows)}")
        for row in rows:
            overlap = "-" if row["external_overlap"] is None else row["external_overlap"]
            print(
                f"  generator {row['generator']:>4}  order {row['order']:>4}  "
                f"nongenerators {row['nongenerators']:>4}  overlap {overlap}"
            )
    return EXIT_OK


def _report_lines(report) -> list[str]:
    pred = report.prediction
    lines = [
        f"group {report.group_label}  theorem {report.theorem_id}  verdict {report.verdict}"
    ]
    for cond, holds in pred.hypothesis_trace:
        lines.append(f"  [{'x' if holds else ' '}] {cond}")
    lines.append(f"  predicted kappa {pred.kappa}  observed kappa {report.observed_kappa}")
    if report.predicted_cutsets is not None:
        lines.append(f"  predicted cut-sets {[list(s) for s in report.predicted_cutsets]}")
    if report.observed_cutsets is not None:
        lines.append(f"  observed cut-sets {[list(s) for s in report.observed_cutsets]}")
    if report.detail:
        lines.append(f"  note: {report.detail}")
    return lines


def _verdict_exit(reports, strict: bool) -> int:
    if any(r.verdict == "mismatch" for r in reports):
        return EXIT_MISMATCH
    if strict and any(r.verdict == "skipped-resource" for r in reports):
        return EXIT_RESOURCE
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.group)
    report = verify_theorem(args.theorem, group, _caps(args))
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print("\n".join(_report_lines(report)))
    return _verdict_exit([report], args.strict)


def _cmd_survey(args: argparse.Namespace) -> int:
    reports = survey(args.theorem, args.max_order, _caps(args))
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        counts: dict[str, int] = {}
        for report in reports:
            counts[report.verdict] = counts.get(report.verdict, 0) + 1
            pred = report.prediction
            print(
                f"{report.group_label:<24} {report.verdict:<20} "
                f"predicted={pred.kappa} observed={report.observed_kappa}"
            )
        summary = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"survey {args.theorem} max-order {args.max_order}: {summary}")
    return _verdict_exit(reports, args.strict)


def _cmd_export_dot(args: argparse.Namespace) -> int:
    removed: set[int] = set()
    if args.remove:
        where = f"--remove {args.remove!r}"
        removed = {_parse_int(chunk, where) for chunk in args.remove.split(",")}
    group = _capped_group(args)
    bad = [v for v in removed if not 0 <= v < group.size]
    if bad:
        raise ValueError(f"removed vertices {sorted(bad)} out of range")
    graph = build_power_graph(group)
    lines = [f'graph "{group.name}" {{']
    for v in range(group.size):
        if v not in removed:
            lines.append(f'  {v} [label="{v}:{group.element_order(v)}"];')
    for v in range(group.size):
        if v in removed:
            continue
        for u in range(v + 1, group.size):
            if u not in removed and graph.adjacent(v, u):
                lines.append(f"  {v} -- {u};")
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process at the first call."""
    parser = argparse.ArgumentParser(
        prog="powergraphs",
        description="Power graphs of finite groups: connectivity, cut-sets, "
        "and closed-form predictions checked against brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--group": dict(required=True, help="cyclic:N | abelian:p^e,... | quaternion:N | dihedral:N"),
        "--json": dict(action="store_true", help="structured output"),
        "--max-brute-vertices": dict(type=non_negative_int, default=ResourceCaps.max_brute_vertices),
        "--max-combinations": dict(
            type=non_negative_int,
            default=ResourceCaps.max_combinations,
            help="search nodes (at most one max-flow or flood each) the cut-set enumeration may visit",
        ),
    }

    def add_command(name: str, fn, help: str, *flags: str) -> argparse.ArgumentParser:
        """A subcommand that takes only the shared options it reads."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
        return p

    caps = ("--max-brute-vertices", "--max-combinations")
    add_command(
        "kappa", _cmd_kappa, "connectivity and one minimum cut-set",
        "--group", "--json", "--max-brute-vertices",
    )
    p = add_command("cutsets", _cmd_cutsets, "minimum cut-sets", "--group", "--json", *caps)
    p.add_argument("--all", action="store_true", help="enumerate every minimum cut-set")
    add_command(
        "maximal-cyclics", _cmd_maximal_cyclics, "maximal cyclic subgroups with cut sizes",
        "--group", "--json",
    )
    p = add_command(
        "verify", _cmd_verify, "check one prediction against brute force",
        "--group", "--json", *caps,
    )
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--strict", action="store_true", help="resource skips fail the run")
    p = add_command("survey", _cmd_survey, "verify a prediction across the corpus", "--json", *caps)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--strict", action="store_true", help="resource skips fail the run")
    p = add_command(
        "export-dot", _cmd_export_dot, "DOT text of the power graph on stdout",
        "--group", "--max-brute-vertices",
    )
    p.add_argument("--remove", default="", help="comma-separated vertex indices to drop")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, UnsupportedStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
