"""Run one workload's passes in this (fresh) process and print one JSON line.

``run.py`` starts this file with a new interpreter for every workload run, so
imports, cached group structure and peak memory belong to that run alone.
Each request calls ``powergraphs.cli.main(argv)`` in-process with stdout and
stderr captured, one request at a time (one client, closed loop), and its
exit code and stdout are checked against the reference in ``workloads.json``.
Between requests it times the fixed units of ``calibrate.py``, from which
``run.py`` scales the latencies to a reference CPU speed.

    python3 bench/worker.py --workload cli-queries --seed 1 --seconds 10 --trace 0
    python3 bench/worker.py --workload cli-queries --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CALIBRATION_SHARE = 0.15  # calibration time after a request, as a share of its latency
CALIBRATION_MIN_S = 0.1
CALIBRATION_WARMUP_S = 0.5
SETUP_CALIBRATION_S = 0.05


def setup(workload: str):
    """Import the package and build the request list; returns (cli, spec, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from powergraphs import cli

    spec = json.loads((BENCH / "workloads.json").read_text())["workloads"][workload]
    return cli, spec, time.perf_counter() - start


def run_request(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """Time one CLI call; returns (seconds, exit code or None if it raised, stdout, stderr).

    Garbage left by earlier requests is collected first, outside the timing,
    so each request starts from a similar heap, as a fresh CLI process would.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def check(request: dict, code: object, stdout: str) -> str | None:
    """The reason the output is wrong, or None when it matches the reference."""
    if code != request["exit"]:
        return f"exit {code}, expected {request['exit']}"
    if hashlib.sha256(stdout.encode()).hexdigest() != request["stdout_sha256"]:
        return "stdout differs from the reference"
    expected = request.get("verdicts")
    if expected is not None:
        reports = json.loads(stdout)
        tally: dict[str, int] = {}
        for report in reports if isinstance(reports, list) else [reports]:
            tally[report["verdict"]] = tally.get(report["verdict"], 0) + 1
        if tally != expected:
            return f"verdicts {tally}, expected {expected}"
    return None


def results_of(request: dict) -> int:
    """Results a request returns: its verification reports, or 1."""
    return sum(request.get("verdicts", {}).values()) or 1


class Tally:
    """Accumulates request outcomes over the passes of one run."""

    def __init__(self) -> None:
        self.argvs: list[list[str]] = []
        self.latencies: list[float] = []
        self.results = 0
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.unit_times: list[list[float]] = []

    def record(self, request: dict, seconds: float, code: object, stdout: str, stderr: str) -> None:
        self.attempted += 1
        self.argvs.append(request["argv"])
        self.latencies.append(seconds)
        problem = check(request, code, stdout)
        if problem is not None:
            self.failed += 1
            print(f"FAILED {' '.join(request['argv'])}: {problem}", file=sys.stderr)
            if stderr:
                print(stderr.rstrip(), file=sys.stderr)
            return
        self.results += results_of(request)
        self.output_bytes += len(stdout.encode())


def measure(
    cli, requests: list[dict], rng: random.Random, seconds: float, min_passes: int, tracer=None
) -> tuple[Tally, Tally, int]:
    """Run whole passes, each in a fresh seeded order: at least ``min_passes``,
    then more while another is expected to end within ``seconds``.

    Without a tracer only the first Tally is filled. Calibration units run
    before the first request and after each request, for ``CALIBRATION_SHARE``
    of its time but at least ``CALIBRATION_MIN_S``, so every request has a
    chunk of units just before and just after it. With a tracer, every request
    runs untraced and then traced, and the second Tally holds the traced runs.
    """
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    if tracer is None:
        plain.unit_times.append(calibrate.timed_units(CALIBRATION_WARMUP_S))
    passes = 0
    while True:
        for request in rng.sample(requests, k=len(requests)):
            request_id = plain.attempted
            plain.record(request, *run_request(cli, request["argv"]))
            if tracer is None:
                chunk_s = max(CALIBRATION_SHARE * plain.latencies[-1], CALIBRATION_MIN_S)
                plain.unit_times.append(calibrate.timed_units(chunk_s))
            else:
                with tracer.recording(request_id):
                    outcome = run_request(cli, request["argv"])
                traced.record(request, *outcome)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed + elapsed / passes > seconds:
            return plain, traced, passes


def layer_metrics(tracer, plain: Tally, traced: Tally, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass from the traced requests."""
    self_time, calls, request_time = tracer.layer_times()
    counts = tracer.counts

    def t(layer: str) -> float:
        return self_time.get(layer, 0.0) / passes

    def n(layer: str) -> float:
        return calls.get(layer, 0) / passes

    def c(name: str) -> float:
        return counts.get(name, 0) / passes

    checks = counts.get("connectivity.enum_cut_checks", 0)
    return {
        "groups.closures_s": t("groups.closures"),
        "groups.closure_builds": c("groups.closure_builds"),
        "groups.closure_elements": c("groups.closure_elements"),
        "groups.sylow_s": t("groups.sylow"),
        "groups.sylow_calls": n("groups.sylow"),
        "groups.construct_s": t("groups.construct"),
        "cyclic.maximal_s": t("cyclic.maximal"),
        "cyclic.maximal_calls": n("cyclic.maximal"),
        "cyclic.constructions_s": t("cyclic.constructions"),
        "powergraph.build_s": t("powergraph.build"),
        "powergraph.builds": n("powergraph.build"),
        "powergraph.predicates_s": t("powergraph.predicates"),
        "powergraph.predicate_calls": n("powergraph.predicates"),
        "connectivity.kappa_s": t("connectivity.kappa"),
        "connectivity.kappa_calls": n("connectivity.kappa"),
        "connectivity.st_s": t("connectivity.st"),
        "connectivity.st_calls": n("connectivity.st"),
        "connectivity.enum_s": t("connectivity.enum"),
        "connectivity.enum_calls": n("connectivity.enum"),
        "connectivity.enum_cut_checks": c("connectivity.enum_cut_checks"),
        "connectivity.enum_cutsets_found": c("connectivity.enum_cutsets_found"),
        "connectivity.enum_yield": counts.get("connectivity.enum_cutsets_found", 0) / checks if checks else 0.0,
        "connectivity.resource_limits": c("connectivity.resource_limits"),
        "predictions.formulas_s": t("predictions.formulas"),
        "harness.predict_s": t("harness.predict"),
        "harness.verify_s": t("harness.verify"),
        "harness.survey_s": t("harness.survey"),
        "harness.suites_s": t("harness.suites"),
        "suites.checks_s": t("suites.checks"),
        "suites.checks": n("suites.checks"),
        "cli.request_s": request_time / passes,
        "cli.self_s": t("cli.request"),
        "cli.output_bytes": traced.output_bytes / passes,
        "trace.overhead_frac": sum(traced.latencies) / sum(plain.latencies) - 1.0,
    }


def write_trace(tracer, workload: str, seed: int, argvs: list[list[str]]) -> Path:
    """Write the spans and counters of a traced run under bench/out/."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(
        json.dumps(
            {
                "fields": ["layer", "start", "end", "parent", "request"],
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
                "requests": argvs,
                "unbound": tracer.unbound,
            }
        )
    )
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, spec, setup_s = setup(args.workload)
    if args.setup_only:
        # units right after the set-up, to scale it by the CPU speed of that moment
        print(json.dumps({"setup_s": setup_s, "unit_times": calibrate.timed_units(SETUP_CALIBRATION_S)}))
        return 0

    tracer = Tracer() if args.trace else None
    requests = spec["requests"]
    # a traced pass runs every request twice, so one pass is enough
    min_passes = 1 if tracer is not None else spec["min_passes"]
    plain, traced, passes = measure(cli, requests, random.Random(args.seed), args.seconds, min_passes, tracer)
    result = {
        "passes": passes,
        "latencies": plain.latencies,
        "unit_times": plain.unit_times,
        "results": plain.results,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, plain, traced, passes)
        path = write_trace(tracer, args.workload, args.seed, plain.argvs)
        print(f"trace: spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        if tracer.unbound:
            print(f"trace: not found in the package: {', '.join(tracer.unbound)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
