"""Benchmark entry point: runs one workload and prints one JSON result line.

    python3 bench/run.py --workload survey-corpus --seed 1 --seconds 40 --trace 0

Run it from the repository root. The program under test is ``src/powergraphs``,
used from source (pure Python, nothing to build). This process never imports
it: every measurement runs in a fresh interpreter started from ``worker.py``.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of nine
  fresh-process set-ups), ``results_per_s``, ``request_p50_s``,
  ``request_tail_s`` (the workload's fixed percentile, see ``workloads.json``),
  ``ok_frac`` and ``peak_rss_mb``. Every time is scaled to a reference CPU
  speed by the calibration units the worker times next to it (see
  ``calibrate.py``); the wall-clock and scaled request totals go to stderr.
* ``--trace 1`` prints the per-layer metrics of a traced run (see
  ``tracer.py``), per pass, and writes its spans to ``bench/out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Without the package sources, or if a worker fails, it exits nonzero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 9  # fresh-process set-ups, each scaled by the calibration units that follow it
TIME_LIMIT_S = 175.0  # a run must end within 180 s

UNITS = {
    "peak_rss_mb": "MB",
    "results_per_s": "1/s",
    "ok_frac": "frac",
    "trace.overhead_frac": "frac",
    "connectivity.enum_yield": "frac",
    "cli.output_bytes": "bytes",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a new interpreter and parse its JSON line."""
    done = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], percentile: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of all order statistics.

    A run holds only 12 to 35 requests, and on a 2-vCPU Xeon host one
    request's latency was seen to move by about 15% with the CPU speed from
    second to second. A plain sample quantile takes its value from one or two
    requests; this estimate averages the requests near the quantile and so
    spreads less from run to run.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = percentile / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def scaled_latencies(data: dict) -> list[float]:
    """Request latencies at the reference CPU speed (see ``calibrate.py``).

    Request i is scaled by the reference unit time over the mean unit time of
    the chunk just before it and of the chunk just after it, averaged.
    The CPU speed changes within seconds, so the units next to a request
    track its speed better than the run's mean unit time does.
    """
    unit_s = [statistics.fmean(chunk) for chunk in data["unit_times"]]
    return [
        t * calibrate.REFERENCE_UNIT_S / ((unit_s[i] + unit_s[i + 1]) / 2)
        for i, t in enumerate(data["latencies"])
    ]


def scaled_setup(probe: dict) -> float:
    """A set-up time at the reference CPU speed, from the units its worker timed right after it."""
    return probe["setup_s"] * calibrate.REFERENCE_UNIT_S / statistics.fmean(probe["unit_times"])


def end_to_end(data: dict, setups: list[dict], tail_percentile: float) -> dict[str, float]:
    latencies = scaled_latencies(data)
    return {
        "setup_s": statistics.median(scaled_setup(probe) for probe in setups),
        "results_per_s": data["results"] / sum(latencies),
        "request_p50_s": harrell_davis(latencies, 50),
        "request_tail_s": harrell_davis(latencies, tail_percentile),
        "ok_frac": (data["attempted"] - data["failed"]) / data["attempted"],
        "peak_rss_mb": data["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="permutes the request order of each pass")
    parser.add_argument("--seconds", type=int, default=40, help="measurement time; whole passes only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "powergraphs" / "cli.py").is_file():
        print(f"bench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(workloads)}", file=sys.stderr)
        return 2

    try:
        setups = [
            worker(["--workload", args.workload, "--setup-only"], timeout=30)
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        data = worker(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            timeout=TIME_LIMIT_S - (time.monotonic() - started),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = data["layers"]
    else:
        metrics = end_to_end(data, setups, workloads[args.workload]["tail_percentile"])
    progress = f"bench: {args.workload} seed {args.seed}: {data['passes']} passes, {len(data['latencies'])} requests"
    if not args.trace:
        progress += (
            f", {sum(data['latencies']):.2f} s of requests on the wall clock,"
            f" {sum(scaled_latencies(data)):.2f} s at the reference CPU speed"
        )
    print(progress, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": data["failed"] == 0,
                "attempted": data["attempted"],
                "failed": data["failed"],
                "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
