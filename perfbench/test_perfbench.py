"""Self-tests of the benchmark: determinism, bounds, wrapper removal and the
refusal to run without sources.

    python3 -m pytest perfbench -q      (about two minutes: it runs every
                                         workload traced, twice)
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import reference
import run
import spans
import workloads

COUNT_SUFFIXES = ("output_space", "support_in", "support_out", "kernel_offered",
                  "entries", "walks", "dim_total", "generators_out", "terms_out",
                  "pairs", "bytes", "errors")


def _bench(workload, seed, trace, cwd=run.ROOT, script=None):
    script = script or os.path.join(run.HERE, "run.py")
    proc = subprocess.run([sys.executable, script, "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_job_list_depends_only_on_seed(name):
    gen = workloads.GENERATORS[name]
    first = json.dumps(gen(1), sort_keys=True)
    assert json.dumps(gen(1), sort_keys=True) == first
    assert json.dumps(gen(2), sort_keys=True) != first


def test_generated_sizes_respect_bounds():
    # three output letters at depth 4 scan 3^16 words per support word
    with pytest.raises(ValueError, match="over the bound"):
        workloads._apply_job(random.Random(0), 2, 3, 4, 1)
    for seed in (1, 2, 3):
        for job in workloads.dimensions_jobs(seed):
            if job["kind"] == "staircase":
                t = reference.transfer_matrix(job["graph"])
                assert reference.walk_trace(t, 16) <= workloads.STAIR_TRACE_CAP
    assert workloads.box_generator_count(4) == 89
    assert workloads.box_generator_count(8) == 4181 <= workloads.BOX_GENERATOR_CAP
    assert workloads.box_generator_count(16) > workloads.BOX_GENERATOR_CAP


def test_bounds_are_stated_in_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        why = " ".join(w["why"] for w in json.load(fh)["workloads"])
    for bound in (workloads.APPLY_SCAN_CAP, workloads.BOX_GENERATOR_CAP):
        assert str(bound) in why


def test_reference_action_matches_readme_example():
    # swap acting on the delta at xy (depth 1), read at depth 2
    job = {"B": "xy", "C": "xy", "rows": [[0, 1], [1, 0]], "d_in": 1, "d_out": 2,
           "support": ["xy"]}
    assert reference.apply_support(job) == {("y", "x", "y", "x")}


def test_wrappers_cover_aliases_and_are_removed():
    sys.path.insert(0, run.SRC)
    import mcctensor
    import mcctensor.cli
    import mcctensor.mcc
    import mcctensor.solenoidal

    original = mcctensor.mcc.apply_mcc
    tracer = spans.Tracer()
    tracer.install()
    try:
        for alias in (mcctensor.apply_mcc, mcctensor.cli.apply_mcc,
                      mcctensor.solenoidal.apply_mcc, mcctensor.mcc.apply_mcc):
            assert alias is not original
            assert alias.__perfbench_original__ is original
        assert spans.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []
    assert mcctensor.cli.apply_mcc is original


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_and_outcome_holds_on_another_seed(name):
    a = _result(_bench(name, 1, 1))
    b = _result(_bench(name, 1, 1))
    assert a["correct"] and b["correct"]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.rsplit(".", 1)[-1] in COUNT_SUFFIXES} for r in (a, b)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    other = _result(_bench(name, 2, 0))
    assert other["correct"] and other["failed"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("windows", 1, 0, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
