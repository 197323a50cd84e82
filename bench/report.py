#!/usr/bin/env python3
"""Run sets of benchmark runs and summarise them, one row per workload and metric.

    python3 bench/report.py                       # one run per workload: every metric
    python3 bench/report.py --runs 10             # ten seeds, spreads against the bounds
    python3 bench/report.py --runs 5 --workloads point-eval --trace 1

Runs are interleaved: each seed runs every workload before the next seed
starts, so a slow period of the host hits all workloads alike.  For each
metric the report gives the median, the quartiles, and the spread
(q3 - q1) / median next to the bound BENCHMARK.json fixes.  It also gives
failed_ratio (failed jobs / attempted jobs), the pooled job-latency sample
count with the highest percentile that has at least ten samples beyond it,
and host.ref_s, the calibration probe recorded beside every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS  # noqa: E402

PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# host.ref_s: "):
            result["host_ref_s"] = float(line.split(": ")[1])
        elif line.startswith("# job_latencies_s: "):
            result["latencies"] = json.loads(line.split(": ", 1)[1])
    return result


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            index = min(n - 1, int(p / 100 * n))
            return p, ordered[index]
    return None


def summarise(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result = one_run(workload, seed, args.seconds, args.trace)
            runs[workload].append(result)
            brief = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
            print(f"seed {seed} {workload}: correct={result['correct']} {brief} "
                  f"host.ref_s={result.get('host_ref_s', 0):.4g}", file=sys.stderr)

    summary: dict[str, dict] = {}
    for workload, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = {}
        for name, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            stats["bound"] = bounds.get(name)
            rows[name] = stats
        latencies = [x for r in results for x in r.get("latencies", [])]
        refs = [r["host_ref_s"] for r in results if "host_ref_s" in r]
        summary[workload] = {
            "runs": len(results), "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted, "metrics": rows,
            "job_samples": len(latencies), "job_tail": tail_percentile(latencies),
            "host_ref_s": summarise(refs) if refs else None,
        }

    for workload, s in summary.items():
        print(f"== {workload}: {s['runs']} runs, failed_ratio {s['failed_ratio']:.4g} "
              f"({s['failed']} of {s['attempted']} jobs)")
        print(f"   {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  unit")
        for name, m in s["metrics"].items():
            bound = "" if m["bound"] is None else f"{m['bound']:.2f}"
            flag = ""
            if m["bound"] is not None and s["runs"] > 1:
                flag = "  ok" if m["spread"] < m["bound"] / 3 else "  WIDE"
            print(f"   {name:36s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:8.4f} {bound:>6s}  {m['unit']}{flag}")
        if s["job_samples"]:
            tail = s["job_tail"]
            tail_text = "too few samples for a tail" if tail is None else f"p{tail[0]:g} {tail[1]:.6g} s"
            print(f"   job latency samples: {s['job_samples']}; {tail_text}")
        if s["host_ref_s"]:
            h = s["host_ref_s"]
            print(f"   host.ref_s: median {h['median']:.6g} s, spread {h['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
