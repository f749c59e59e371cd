#!/usr/bin/env python3
"""mcctensor benchmark: seeded closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload {cli,windows,dimensions,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the sources are taken from `src/` next to this
directory.  A run measures the set-up time in fresh processes, generates
the workload's job list from the seed, runs whole passes over the list
until S seconds are used (at least the timed passes), then checks every
job's output.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it runs the passes with spans around the program's layers and prints the
per-layer metrics.  The last line of standard output is the JSON result.
See README.md in this directory for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(SRC, "mcctensor", "data", "dabimod-box-final.json")
WORKLOADS = ("cli", "windows", "dimensions")
SETUP_PROBES_FIRST = 4
TAIL_BEYOND = 10
# Job timings come from the first round(seconds * rate) passes, at least one;
# the rate is a little under the passes per second the program managed when
# the benchmark was written, and a run makes at least that many passes.
TIMED_PASS_RATE = {"cli": 0.08, "windows": 0.4, "dimensions": 0.2}

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- helpers ------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv, cwd, stdout_path):
    """Run a child to completion; (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def _tail_rank(n):
    """Index (sorted ascending) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, and that percentile."""
    k = max(n - TAIL_BEYOND - 1, 0)
    return k, 100.0 * (k + 1) / n


def _run_record(args, jobs, passes):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "mcctensor"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    k, pct = _tail_rank(len(jobs))
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "loadavg_start": args.loadavg,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs_per_pass": len(jobs), "passes": passes,
            "timed_passes": passes if args.trace else min(passes, _timed_pass_count(args)),
            "job_tail_percentile": round(pct, 1)}


def _probe_setup(tmp):
    """Wall time of a fresh process that imports mcctensor and builds the
    fixed objects, from spawn to exit."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    wall, code, _ = _spawn(argv, ROOT, os.path.join(tmp, "setup.out"))
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return wall


def _timed_pass_count(args):
    return max(1, round(args.seconds * TIMED_PASS_RATE[args.workload]))


def _timed_passes(run_pass, seconds, prepare=None, at_least=1):
    """Whole passes, at least `at_least`, then while another pass would end
    nearer to `seconds` than stopping now; `prepare` runs before each pass,
    outside its timing."""
    results = []
    start = time.perf_counter()
    while True:
        if prepare is not None:
            prepare(len(results))
        t0 = time.perf_counter()
        out = run_pass(len(results))
        results.append((time.perf_counter() - t0, out))
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed + elapsed / len(results) / 2 > seconds:
            return results


# -- in-process workloads ----------------------------------------------------------------

def _inprocess_pass(fixed, jobs, tracer, tag, first=None):
    """[(seconds, output)] per job.  Given the first pass's outputs, a job's
    output is replaced by whether it equals the first, so that the memory
    held does not grow with the number of passes."""
    out = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{tag}:{i}"
        t0 = time.perf_counter()
        try:
            value = workloads.run_job(fixed, job)
        except Exception as e:  # a failed job is counted, not fatal
            value = e
        seconds = time.perf_counter() - t0
        out.append((seconds, value if first is None else value == first[i]))
    return out


def _inprocess_checks(jobs, passes):
    """Failed executions: the first pass against the references, later
    passes against the first."""
    first = [v for _, v in passes[0][1]]
    reasons = {}
    for i, job in enumerate(jobs):
        if isinstance(first[i], Exception):
            reasons[i] = f"{type(first[i]).__name__}: {first[i]}"
        else:
            reasons[i] = workloads.check_job(job, first[i])
    failed = sum(1 for i in reasons if reasons[i])
    failed += sum(1 for _, results in passes[1:] for i, (_, same) in enumerate(results)
                  if reasons[i] or not same)
    notes = [f"job {i} ({jobs[i]['kind']}): {r}" for i, r in reasons.items() if r]
    return failed, notes


def run_inprocess(args, jobs, between):
    tracer = spans.Tracer() if args.trace else None
    extra = {}
    if tracer is not None:
        # an untraced pass before each traced one, so that both sample the
        # same phases of the machine
        plain, untraced = workloads.Fixed(), []

        def untraced_pass(k):
            tracer.uninstall()
            untraced.append([t for t, _ in _inprocess_pass(plain, jobs, None, "untraced")])
            tracer.install()

        tracer.job = "setup"
        tracer.install()
    try:
        fixed = workloads.Fixed()
        setup_counts = dict(tracer.counts) if tracer else {}
        snapshots, first = [], []

        def one_pass(k):
            before = dict(tracer.counts) if tracer else None
            res = _inprocess_pass(fixed, jobs, tracer, f"p{k}", first if k else None)
            if k == 0:
                first.extend(v for _, v in res)
            if tracer is not None:
                snapshots.append({n: v - before.get(n, 0) for n, v in tracer.counts.items()})
            return res

        if tracer is None:
            passes = _timed_passes(one_pass, args.seconds, between, _timed_pass_count(args))
        else:
            passes = _timed_passes(one_pass, args.seconds, untraced_pass)
    finally:
        if tracer is not None:
            tracer.uninstall()
            extra["untraced"] = untraced
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, notes = _inprocess_checks(jobs, passes)
    result = {"passes": passes, "failed": failed, "notes": notes,
              "peak_rss_mb": peak_rss, **extra}
    if tracer is not None:
        result["layers"] = _inprocess_layers(tracer, passes, setup_counts, snapshots)
        _write_spans(args, tracer.spans)
        leftover = spans.leftover_wrappers()
        if leftover:
            result["notes"].append(f"wrappers left installed: {leftover}")
    return result


def _inprocess_layers(tracer, passes, setup_counts, snapshots):
    setup_self = tracer.self_times({"setup"})
    per_pass = []
    for k, counts in enumerate(snapshots):
        tags = {f"p{k}:{i}" for i in range(len(passes[k][1]))}
        self_s = tracer.self_times(tags)
        per_pass.append({
            "self_s": {n: self_s.get(n, 0.0) + setup_self.get(n, 0.0)
                       for n in spans.SPAN_NAMES},
            "counts": {n: counts.get(n, 0) + setup_counts.get(n, 0)
                       for n in set(counts) | set(setup_counts)},
        })
    return {"per_pass": per_pass, "errors": dict(tracer.errors)}


# -- cli workload ------------------------------------------------------------------------

def _cli_pass(jobs, tmp, k, traced):
    pass_dir = os.path.join(tmp, f"p{k}")
    out = []
    for i, job in enumerate(jobs):
        cli_args = [a.replace("{tmp}", pass_dir) for a in job["args"]]
        if traced:
            summary = os.path.join(pass_dir, f"summary{i}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_entry.py"), summary,
                    f"p{k}:{i}"] + cli_args
        else:
            summary = None
            argv = [sys.executable, "-m", "mcctensor.cli"] + cli_args
        stdout_path = os.path.join(pass_dir, f"stdout{i}.txt")
        wall, code, rss = _spawn(argv, pass_dir, stdout_path)
        out.append((wall, {"code": code, "rss": rss, "stdout": stdout_path,
                           "args": cli_args, "summary": summary}))
    return out


def _prepare_cli_pass(jobs, tmp, k):
    pass_dir = os.path.join(tmp, f"p{k}")
    os.makedirs(pass_dir, exist_ok=True)
    for job in jobs:
        for name, text in workloads.cli_files(job).items():
            with open(os.path.join(pass_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def _read(path, mode="r"):
    with open(path, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as fh:
        return fh.read()


def check_cli(job, res, golden, cache):
    """None when the CLI execution is right, else a short reason."""
    if res["code"] != 0:
        return f"exit code {res['code']}"
    stdout = _read(res["stdout"])
    kind = job["kind"]
    if kind == "dims2csv":
        return None if stdout == "0,5\n1,9\n2,49\n" else f"csv {stdout!r}"
    report = json.loads(stdout)
    if report.get("ok") is not True:
        return "report is not ok"
    args = res["args"]
    if kind == "verify":
        passed = [c["name"] for c in report["checks"] if c["status"] == "pass"]
        return None if len(passed) == 8 else f"{len(passed)} of 8 checks pass"
    if kind == "dims3":
        totals = [r["total"] for r in report["table"]]
        bridged = [r.get("floer_total") for r in report["table"]]
        ok = totals == workloads.HFK_TOTALS == bridged
        return None if ok else f"dims totals {totals}, box totals {bridged}"
    if kind == "box4":
        gens = workloads.box_generator_count(4)
        art = json.loads(_read(args[args.index("--out") + 1]))
        counts = (report["result"]["generators"], report["result"]["terms"],
                  len(art["generators"]), len(art["terms"]))
        return None if counts == (gens, 4095, gens, 4095) else f"box^4 sizes {counts}"
    if kind == "box1":
        art = _read(args[args.index("--out") + 1], "rb")
        return None if art == golden else "power-1 artifact differs from the golden JSON"
    if kind == "hh4":
        res_ = report["result"]
        ok = (res_["count"] == workloads.box_diagonal_count(4)
              and res_["certificate"]["granted"] is True)
        return None if ok else f"hh count {res_['count']}"
    if kind == "mcc_apply":
        spec = job["apply"]
        key = json.dumps(spec, sort_keys=True)
        if key not in cache:
            cache[key] = reference.apply_support(spec)
        got = reference.window_support(_read(args[args.index("--out") + 1]))
        return None if got == cache[key] else "mcc apply output differs from reference"
    return f"unknown job kind {kind!r}"


def run_cli(args, jobs, tmp, between):
    extra, untraced = {}, []

    def prepare(k):
        _prepare_cli_pass(jobs, tmp, k)
        between(k)
        if args.trace:
            # an untraced pass before each traced one, so that both sample
            # the same phases of the machine
            _prepare_cli_pass(jobs, tmp, f"u{k}")
            untraced.append([t for t, _ in _cli_pass(jobs, tmp, f"u{k}", False)])

    passes = _timed_passes(lambda k: _cli_pass(jobs, tmp, k, bool(args.trace)),
                           args.seconds, prepare, 1 if args.trace else _timed_pass_count(args))
    if args.trace:
        extra["untraced"] = untraced
    golden = _read(GOLDEN, "rb")
    failed, notes, cache = 0, [], {}
    for k, (_, results) in enumerate(passes):
        for i, (_, res) in enumerate(results):
            try:
                reason = check_cli(jobs[i], res, golden, cache)
            except (OSError, ValueError, KeyError) as e:
                reason = f"{type(e).__name__}: {e}"
            if reason:
                failed += 1
                notes.append(f"pass {k} job {i} ({jobs[i]['kind']}): {reason}")
    peak = max(res["rss"] for _, results in passes for _, res in results)
    result = {"passes": passes, "failed": failed, "notes": notes[:20],
              "peak_rss_mb": peak, **extra}
    if args.trace:
        result["layers"] = _cli_layers(args, passes, result["notes"])
    return result


def _cli_layers(args, passes, notes):
    """Merge the children's summaries per pass and write the spans of the
    first pass (a traced `verify` alone records some 20000)."""
    per_pass, errors, first_spans = [], defaultdict(int), []
    for k, (_, results) in enumerate(passes):
        self_s, counts, imports = defaultdict(float), defaultdict(int), []
        for _, res in results:
            summary = json.loads(_read(res["summary"]))
            if k == 0:
                first_spans += summary["spans"]
            if summary["leftover"]:
                notes.append(f"wrappers left installed: {summary['leftover']}")
            for n, v in summary["self_s"].items():
                self_s[n] += v
            for n, v in summary["counts"].items():
                counts[n] += v
            for n, v in summary["errors"].items():
                errors[n] += v
            imports.append(summary["import_s"])
            counts["cli.report_bytes"] += os.path.getsize(res["stdout"])
            if "--out" in res["args"]:
                counts["cli.artifact_bytes"] += os.path.getsize(
                    res["args"][res["args"].index("--out") + 1])
        self_s["cli.import_s"] = statistics.median(imports)
        per_pass.append({"self_s": dict(self_s), "counts": dict(counts)})
    _write_spans(args, first_spans)
    return {"per_pass": per_pass, "errors": dict(errors)}


def _write_spans(args, span_list):
    path = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "counting_s"],
                   "spans": span_list}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)} ({len(span_list)} spans)")


# -- metrics -------------------------------------------------------------------------------

COUNT_METRICS = (
    "mcc.apply_mcc.output_space", "mcc.apply_mcc.support_in",
    "mcc.apply_mcc.support_out", "towers.invariance_level_table.kernel_offered",
    "f2cat.tensor_power_finite.entries", "solenoidal.walks_of_length.walks",
    "solenoidal.staircase_dims.dim_total", "floer.box_tensor.generators_out",
    "floer.box_tensor.terms_out", "floer.box_generators.pairs",
    "floer.dumps_bimodule.bytes", "cli.report_bytes", "cli.artifact_bytes",
)


def end_to_end(result, setup_times, jobs, timed):
    """Job timings are each job's fastest execution in the first `timed`
    passes.  The machine is shared: a fixed kernel was seen running at up to
    twice its time for phases of seconds, several times a minute.  Each job
    runs once per pass, spread over the run, and its fastest execution
    filters the slow phases out; `makespan_s` is the sum of those over the
    job list.  The fastest of more passes is lower, so the number of passes
    behind it is fixed by --seconds, not by how many fit."""
    makespans = [t for t, _ in result["passes"][:timed]]
    per_job = [min(p[1][i][0] for p in result["passes"][:timed]) for i in range(len(jobs))]
    k, pct = _tail_rank(len(per_job))
    attempted = len(result["passes"]) * len(jobs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "makespan_s": (sum(per_job), "s"),
        "job_p50_ms": (statistics.median(per_job) * 1000, "ms"),
        "job_tail_ms": (sorted(per_job)[k] * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (1 - result["failed"] / attempted, "ratio"),
    }
    samples = {"setup_s": f"median of {len(setup_times)} processes",
               "makespan_s": f"sum over {len(jobs)} jobs of each one's fastest of the "
                             f"first {timed} of {len(result['passes'])} passes (their wall times: fastest "
                             f"{min(makespans):.4g} s, median {statistics.median(makespans):.4g} s)",
               "job_p50_ms": f"median of {len(jobs)} jobs, each its fastest timed pass",
               "job_tail_ms": f"p{pct:.1f} of {len(jobs)} jobs, each its fastest timed pass",
               "peak_rss_mb": "max over the run",
               "ok_frac": f"{attempted - result['failed']} of {attempted} executions"}
    return metrics, samples


def _fastest_sum(pass_times):
    """Sum over the jobs of each job's fastest time; one list per pass."""
    return sum(min(times) for times in zip(*pass_times))


def per_layer(result):
    per_pass = result["layers"]["per_pass"]
    counts = per_pass[0]["counts"]
    same = all(p["counts"] == counts for p in per_pass)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_s"] = (
            statistics.median(p["self_s"].get(name, 0.0) for p in per_pass), "s")
    metrics["cli.import_s"] = (
        statistics.median(p["self_s"].get("cli.import_s", 0.0) for p in per_pass), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    space = counts.get("mcc.apply_mcc.output_space", 0)
    metrics["mcc.apply_mcc.yield"] = (
        counts.get("mcc.apply_mcc.support_out", 0) / space if space else 0.0, "ratio")
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = (result["layers"]["errors"].get(layer, 0), "count")
    # each side as `makespan_s`: the sum over the jobs of each one's fastest
    # execution; the untraced passes alternate with the traced ones
    traced = _fastest_sum([[t for t, _ in p[1]] for p in result["passes"]])
    untraced = _fastest_sum(result["untraced"])
    metrics["trace.makespan_s"] = (traced, "s")
    metrics["trace.untraced_makespan_s"] = (untraced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return metrics, same


# -- main -----------------------------------------------------------------------------------

def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "mcctensor", "__init__.py")):
        print(f"perfbench: no mcctensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mcctensor

    if os.path.dirname(os.path.abspath(mcctensor.__file__)) != os.path.join(SRC, "mcctensor"):
        print(f"perfbench: imported mcctensor from {mcctensor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        # set-up probes: a few first, then one before each pass, so that
        # they sample the whole run; the very first only compiles bytecode
        _probe_setup(tmp)
        setup_times = []

        def probe(_pass=None):
            if not args.trace:
                setup_times.append(_probe_setup(tmp))

        for _ in range(SETUP_PROBES_FIRST):
            probe()
        jobs = workloads.GENERATORS[args.workload](args.seed)
        if args.workload == "cli":
            result = run_cli(args, jobs, tmp, probe)
        else:
            result = run_inprocess(args, jobs, probe)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = _run_record(args, jobs, len(result["passes"]))
    attempted = len(result["passes"]) * len(jobs)
    correct = result["failed"] == 0 and not result["notes"]
    if args.trace:
        metrics, same = per_layer(result)
        if not same:
            result["notes"].append("work counts differ between passes")
            correct = False
        samples = {}
    else:
        metrics, samples = end_to_end(result, setup_times, jobs, _timed_pass_count(args))
    print(json.dumps({"run_record": record}, sort_keys=True))
    for note in result["notes"]:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"{args.workload:>10}  {name:<52} {value:>16.6g} {unit}{extra}")
    if not args.trace:
        print(f"{args.workload:>10}  {'failed_frac (1 - ok_frac)':<52} "
              f"{result['failed'] / attempted:>16.6g} ratio")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process; their reports, then a combined result."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        correct = correct and last["correct"]
        merged.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.loadavg = list(os.getloadavg())
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
