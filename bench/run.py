#!/usr/bin/env python3
"""Benchmark for the qwhitney command line: seeded jobs, exact checks, timings.

Run from the repository root:

    python3 bench/run.py --workload point-eval --seed 1 --seconds 20 --trace 0

Each job is one fresh interpreter running ``python -m qwhitney <argv>`` with
``PYTHONPATH=src``; jobs run one at a time (a closed loop with one client),
and the whole job list is repeated until ``--seconds`` of job time has been
measured.  Every output is checked exactly (see jobs.py); a job that exits
nonzero or prints a wrong answer counts as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time of one pass
over the job list, each job at its median over the run's passes, checks
excluded), ``job_p50_s`` (median job latency, interpreter start included),
``peak_rss_mb`` (largest peak RSS of any job) and ``setup_s`` (median time
for a fresh interpreter to import qwhitney.cli and build its parser).  The
three times are host-scaled seconds: see ``measure``.  ``--trace 1`` replays the same jobs in this process
through ``qwhitney.cli.main``, untraced and then traced, and reports the
per-layer metrics instead (see tracer.py).

Lines before the last start with "#": each job's command line, so any run can
be replayed by hand, plus sample counts, the raw (unscaled) times and the
host calibration probe.  The
last line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path[:0] = [str(BENCH), str(SRC)]

import jobs as jobs_mod  # noqa: E402

END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

TIMED_LAYERS = (
    "poly.mul", "poly.add", "poly.subst", "poly.eval", "poly.render", "poly.xpoly",
    "triangles.symbolic", "triangles.values", "triangles.factorial", "triangles.stirling",
    "cauchy.assemble", "cauchy.oracle", "cauchy.identity",
    "series.mul", "series.exp", "series.egf",
)
CACHE_PREFIXES = ("triangles.stirling_cache", "triangles.subst_cache")

PER_LAYER = (
    tuple((f"{layer}.{m}", unit) for layer in TIMED_LAYERS for m, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("poly.terms_out", "count"), ("poly.coeff_bits_max", "bits"),
        ("triangles.symbolic.entries", "count"), ("triangles.values.entries", "count"),
        ("triangles.values.bits_max", "bits"),
    )
    + tuple((f"{p}.{m}", unit) for p in CACHE_PREFIXES
            for m, unit in (("hits", "count"), ("misses", "count"), ("currsize", "count"), ("hit_ratio", "ratio")))
    + (("cauchy.rows_built", "count"), ("cauchy.rows_useful_ratio", "ratio"))
    + tuple((f"suites.{s}.{m}", unit) for s in jobs_mod.SUITES for m, unit in (("s", "s"), ("checks", "count")))
    + (
        ("suites.self_s", "s"),
        ("cli.parse_s", "s"), ("cli.self_s", "s"), ("cli.out_bytes", "bytes"),
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
        ("host.ref_s", "s"), ("src.loc", "lines"),
    )
)

# -- running one job -------------------------------------------------------------


@dataclass(frozen=True)
class JobResult:
    seconds: float
    code: int
    out: bytes
    err: bytes
    peak_kib: int


def _child_env(hwm: bool) -> dict[str, str]:
    """The caller's environment, with byte-code caching on, as an installed package has it.

    Caches go to __pycache__ under src/, inside the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([str(BENCH / "hwm")] if hwm else []))
    return env


def run_job(argv: tuple[str, ...]) -> JobResult:
    """Run one job in a fresh interpreter; stdout and stderr are piped back."""
    read_fd, write_fd = os.pipe()
    try:
        env = dict(_child_env(hwm=True), BENCH_HWM_FD=str(write_fd))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwhitney", *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(write_fd,),
        )
        os.close(write_fd)
        write_fd = -1
        out, err = proc.communicate()
        seconds = time.perf_counter() - start
        report = os.read(read_fd, 64).split()
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    return JobResult(seconds, proc.returncode, out, err, int(report[0]) if report else 0)


def check(job: jobs_mod.Job, code: int, out: bytes, good: set[bytes]) -> str | None:
    """None when the job succeeded with exactly the right output, else the reason.

    Outputs already checked are recognised by digest, so a repeated job is
    checked once.
    """
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(out).digest()
    if digest in good:
        return None
    try:
        problem = job.check(out)
    except (ValueError, ArithmeticError, LookupError, TypeError, AttributeError) as exc:
        problem = f"malformed output ({type(exc).__name__}: {exc})"
    if problem is None:
        good.add(digest)
    return problem


def time_setup() -> float:
    """Seconds for a fresh interpreter to import qwhitney.cli and build the parser."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import qwhitney.cli as c; c.build_parser()"],
        cwd=ROOT, env=_child_env(hwm=False), check=True, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


# The probe's time on a quiet host of the kind the baseline was measured on
# (a 2-core Xeon VM).  A fixed scale, so that host-scaled figures read as
# seconds on such a host.
REF_S = 0.030


def host_ref() -> float:
    """Seconds for a fixed pure-Python task that follows host speed only.

    Half of it is a rational sum with big integers, like the numeric
    triangles; half is a product of small sparse polynomials held in dicts,
    like BiPoly.  It shares no code with qwhitney, so no change to the program
    moves it.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction(1, i)
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12 - i)}
    product: dict[tuple[int, int], Fraction] = {}
    for (ai, aj), ca in poly.items():
        for (bi, bj), cb in poly.items():
            key = (ai + bi, aj + bj)
            product[key] = product.get(key, 0) + ca * cb
    return time.perf_counter() - start


# -- untraced runs -----------------------------------------------------------------


def measure(jobs: list[jobs_mod.Job], seconds: float, run=run_job) -> dict:
    """Repeat the job list until `seconds` of job time is measured; end-to-end metrics.

    After each job, outside the timed region, one set-up sample and one host
    probe are taken, then the output is checked.  The speed of the 2-core VM
    the baseline was measured on drifts by up to 2x within minutes, with load
    from outside, so every job latency and set-up sample is scaled by
    REF_S / (median of the run's probes): the reported times are seconds at
    the reference host speed.  One factor for the whole run follows the
    drift between runs; a factor per sample, from the probes next to it,
    was tried and added the probe's own jitter to every sample.  The raw
    seconds are printed beside them.
    """
    time_setup()  # writes the byte-code caches, which users pay once, not per run
    good: list[set[bytes]] = [set() for _ in jobs]
    raw: list[list[float]] = [[] for _ in jobs]
    setup_raw: list[float] = []
    probes = [host_ref()]
    peak_kib = 0
    failures: list[str] = []
    measured = 0.0
    while not raw[0] or measured < seconds:
        for i, job in enumerate(jobs):
            result = run(job.argv)
            setup = time_setup()
            probes.append(host_ref())
            measured += result.seconds
            raw[i].append(result.seconds)
            setup_raw.append(setup)
            peak_kib = max(peak_kib, result.peak_kib)
            problem = check(job, result.code, result.out, good[i])
            if problem is not None:
                err = result.err.decode(errors="replace")[-300:]
                failures.append(f"job {i}: {problem}; stderr: {err}")

    def times(per_job: list[list[float]], setup: list[float]) -> dict[str, float]:
        return {
            # one pass, each job at its median over the run's passes
            "wall_s": sum(statistics.median(x) for x in per_job),
            "job_p50_s": statistics.median(x for xs in per_job for x in xs),
            "setup_s": statistics.median(setup),
        }

    scale = REF_S / statistics.median(probes)
    scaled = [[x * scale for x in xs] for xs in raw]
    setup_scaled = [x * scale for x in setup_raw]
    return {
        "attempted": sum(len(x) for x in raw),
        "failures": failures,
        "latencies": [x for xs in scaled for x in xs],
        "passes": len(raw[0]),
        "raw": times(raw, setup_raw),
        "metrics": dict(times(scaled, setup_scaled), peak_rss_mb=peak_kib / 1024,
                        **{"host.ref_s": statistics.median(probes)}),
    }


# -- traced runs -------------------------------------------------------------------


def src_loc() -> int:
    """Non-blank lines in src/qwhitney."""
    return sum(
        1
        for path in sorted((SRC / "qwhitney").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def _pass_counts(tracer, calls, caches, results) -> dict:
    """The exact counts of one traced pass; two passes over the same jobs must agree."""
    counts = {f"{layer}.calls": calls.get(layer, 0) for layer in TIMED_LAYERS}
    for name in ("poly.terms_out", "poly.coeff_bits_max", "triangles.symbolic.entries",
                 "triangles.values.entries", "triangles.values.bits_max", "cauchy.rows_built"):
        counts[name] = tracer.counts.get(name, 0)
    for prefix in CACHE_PREFIXES:
        hits, misses = caches.get(f"{prefix}.hits", 0), caches.get(f"{prefix}.misses", 0)
        counts[f"{prefix}.hits"] = hits
        counts[f"{prefix}.misses"] = misses
        counts[f"{prefix}.currsize"] = caches.get(f"{prefix}.currsize", 0)
        counts[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    built = counts["cauchy.rows_built"]
    counts["cauchy.rows_useful_ratio"] = len(tracer.rows_seen) / built if built else 0.0
    for s in jobs_mod.SUITES:
        counts[f"suites.{s}.checks"] = tracer.counts.get(f"suites.{s}.checks", 0)
    counts["cli.out_bytes"] = sum(len(out) for _, _, out in results)
    counts["trace.spans"] = len(tracer.start)
    return counts


def trace(jobs: list[jobs_mod.Job], seconds: float) -> dict:
    """Alternate untraced and traced in-process passes; per-layer metrics."""
    from tracer import Tracer, replay

    good: list[set[bytes]] = [set() for _ in jobs]
    failures: list[str] = []
    attempted = 0
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    times: list[dict[str, float]] = []
    refs: list[float] = []
    first_counts = None
    elapsed = 0.0
    while not traced_walls or elapsed < seconds:
        plain, _ = replay(jobs)
        tracer = Tracer()
        traced, caches = replay(jobs, tracer)
        for results in (plain, traced):
            for i, (_, code, out) in enumerate(results):
                attempted += 1
                problem = check(jobs[i], code, out, good[i])
                if problem is not None:
                    failures.append(f"job {i}: {problem}")
        refs.append(host_ref())
        untraced_walls.append(sum(r[0] for r in plain))
        traced_walls.append(sum(r[0] for r in traced))
        elapsed += untraced_walls[-1] + traced_walls[-1]
        own, total, calls = tracer.layer_times()
        counts = _pass_counts(tracer, calls, caches, traced)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            failures.append("counts differ between two traced passes over the same jobs")
        pass_times = {f"{layer}.self_s": own.get(layer, 0.0) for layer in TIMED_LAYERS}
        for s in jobs_mod.SUITES:
            pass_times[f"suites.{s}.s"] = total.get(f"suites.{s}", 0.0)
        pass_times["suites.self_s"] = sum(
            v for layer, v in own.items() if layer.startswith("suites."))
        pass_times["cli.parse_s"] = total.get("cli.parse", 0.0)
        pass_times["cli.self_s"] = own.get("cli.main", 0.0)
        times.append(pass_times)
    metrics: dict[str, float] = dict(first_counts)
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    untraced = statistics.median(untraced_walls)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced - 1 if untraced else 0.0
    metrics["src.loc"] = src_loc()
    metrics["host.ref_s"] = statistics.median(refs)
    return {"attempted": attempted, "failures": failures, "passes": len(traced_walls),
            "metrics": metrics}


# -- entry point ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool,
        sizes: dict[str, int] = jobs_mod.FULL) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "qwhitney" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qwhitney source tree under {SRC}")
    jobs = jobs_mod.make_jobs(workload, seed, sizes)
    for i, job in enumerate(jobs):
        print(f"# job {i}: PYTHONPATH=src python3 -m qwhitney {shlex.join(job.argv)}")
    outcome = trace(jobs, seconds) if traced else measure(jobs, seconds)
    values = outcome["metrics"]
    failed = len(outcome["failures"])
    for failure in outcome["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(f"# host.ref_s: {values['host.ref_s']:.6f}")
    print(f"# samples: passes={outcome['passes']} jobs={outcome['attempted']} "
          f"failed={failed} failed_ratio={failed / outcome['attempted']:.6f}")
    if "raw" in outcome:
        print("# raw seconds, not host-scaled: "
              + " ".join(f"{k}={v:.6f}" for k, v in outcome["raw"].items()))
        print("# job_latencies_s: " + json.dumps([round(x, 6) for x in outcome["latencies"]]))
    spec = PER_LAYER if traced else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
