"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402



@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (w, traced): run.run(w, 7, 0.01, traced, jobs.SMOKE)
        for w in jobs.WORKLOADS
        for traced in (False, True)
    }


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("traced", (False, True))
def test_smoke_run_reports_every_metric_and_no_failures(smoke_runs, workload, traced):
    result = smoke_runs[(workload, traced)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.PER_LAYER if traced else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(spec)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_counts_as_failed():
    job_list = jobs.make_jobs("symbolic", 3, jobs.SMOKE)

    def corrupting(argv):
        result = run.run_job(argv)
        if argv is job_list[0].argv:
            flipped = result.out.replace(b"1", b"2", 1)
            assert flipped != result.out
            return dataclasses.replace(result, out=flipped)
        return result

    outcome = run.measure(job_list, 0.01, run=corrupting)
    assert len(outcome["failures"]) == outcome["passes"] >= 1
    assert all(f.startswith("job 0:") for f in outcome["failures"])


def test_nonzero_exit_counts_as_failed():
    job = jobs.make_jobs("verify", 3, jobs.SMOKE)[0]
    bad = dataclasses.replace(job, argv=job.argv + ("--n-max", "x"))
    outcome = run.measure([bad], 0.01)
    assert outcome["failures"] and "exit code 2" in outcome["failures"][0]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_checks_reject_a_wrong_answer(workload):
    """Each check accepts the real output and rejects it with its last digit changed.

    The last digit always lies in a checked cell: the last row of a triangle
    is among the sampled rows.
    """
    for job in jobs.make_jobs(workload, 5, jobs.SMOKE):
        out = run.run_job(job.argv).out
        assert run.check(job, 0, out, set()) is None, job.argv
        i = max(i for i, c in enumerate(out) if chr(c).isdigit())
        wrong = out[:i] + (b"2" if out[i:i + 1] == b"1" else b"1") + out[i + 1:]
        assert run.check(job, 0, wrong, set()) is not None, job.argv


def test_counts_repeat_exactly_for_one_seed(smoke_runs):
    again = run.run("verify", 7, 0.01, True, jobs.SMOKE)
    first = smoke_runs[("verify", True)]
    counts = {n for n, unit in run.PER_LAYER if unit != "s"} - {"trace.overhead_ratio"}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: again["metrics"][n]["value"] for n in counts
    }


def test_seed_changes_content_but_not_sizes():
    for workload in jobs.WORKLOADS:
        a = [j.argv for j in jobs.make_jobs(workload, 1)]
        b = [j.argv for j in jobs.make_jobs(workload, 2)]
        assert a == [j.argv for j in jobs.make_jobs(workload, 1)]
        assert a != b
        sizes = lambda argvs: sorted(  # noqa: E731
            (v[0], v[v.index(flag) + 1]) for v in argvs
            for flag in ("--n-max", "--n", "--order") if flag in v
        )
        assert sizes(a) == sizes(b)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
