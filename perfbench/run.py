"""ncpgd benchmark: solve-then-certify jobs on three seeded workloads.

    python3 perfbench/run.py --workload sparse-iht --seed 1 --seconds 30 --trace 0

Each workload runs closed loop with one client: the next job starts when the
previous one has finished. Jobs cycle through a fixed pattern over a pool of
seeded inputs, and a run stops at the end of a whole cycle once the job time
reaches ``--seconds``. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs half as many jobs with spans on every
public entry point of ncpgd, replays the same jobs untraced, and reports the
per-layer metrics and the tracing overhead. Every job's output is checked
(see checks.py); the last line of stdout is one JSON object.
``--workload all`` runs every workload in turn, each in its own process.

Timings are taken per job and then cleaned of interference from other
processes on the machine: each job's time is scaled to the reference
machine's speed by a kernel timed alongside (calibrate.py), and each job then
counts with the median scaled time of the jobs with the same inputs in the
run. So job_ms_tail is the typical time of the inputs in the tail. The
as-measured figures, and the tail of each job's own scaled time, are kept in
the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext

import benchenv

benchenv.pin_threads()

import calibrate  # noqa: E402  (after the thread pins, it imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
WORKLOAD_NAMES = ("sparse-iht", "lowrank-recovery", "cli-certify")
SETUP_PROBES = 5
# Cap on the measured part of a run, far inside the 180 s a run may take.
WALL_CAP_S = 120.0
CHILD_TIMEOUT_S = 60.0
MAX_LOGGED_FAILURES = 20
# Job time between two runs of the in-process speed kernel.
CALIBRATE_EVERY_S = 0.5
# A job's time is scaled by the median of the speed-kernel samples taken
# this many before and after it.
NEAREST_BEFORE, NEAREST_AFTER = 3, 2


class Run:
    """Per-job timings, counts and failures of one measured phase."""

    def __init__(self, ref_s: float):
        self.ref_s = ref_s
        self.calibration: list[float] = []
        self.keys: list[str] = []
        self.job_s: list[float] = []
        # Number of calibration samples taken when each job ran.
        self.job_calibrations: list[int] = []
        self.terminations: Counter[str] = Counter()
        self.iters = 0
        self.total_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, key: str, seconds: float, iters: int, terminations: list[str]):
        self.keys.append(key)
        self.job_s.append(seconds)
        self.job_calibrations.append(len(self.calibration))
        self.terminations.update(terminations)
        self.total_s += seconds
        self.iters += iters

    def fail(self, job: int, problems: list[str]):
        self.failed += 1
        if len(self.failures) < MAX_LOGGED_FAILURES:
            self.failures.append(f"job {job}: " + "; ".join(problems[:3]))

    def own_s(self) -> list[float]:
        """Each job's own time, scaled to the reference machine by the median
        of the calibration samples nearest to it in time: the three taken
        before the job and the two after it."""
        out = []
        for s, n in zip(self.job_s, self.job_calibrations):
            nearest = self.calibration[max(0, n - NEAREST_BEFORE):n + NEAREST_AFTER]
            out.append(s * self.ref_s / statistics.median(nearest))
        return out

    def clean_s(self) -> list[float]:
        """Each job's time replaced by the median scaled time of the jobs with
        its key in this phase."""
        by_key: dict[str, list[float]] = {}
        for key, s in zip(self.keys, self.own_s()):
            by_key.setdefault(key, []).append(s)
        typical = {key: statistics.median(times) for key, times in by_key.items()}
        return [typical[key] for key in self.keys]

    def merged(self, other: "Run") -> "Run":
        """The job counts and failures of two phases."""
        out = Run(self.ref_s)
        for run in (self, other):
            out.attempted += run.attempted
            out.failed += run.failed
            out.failures += run.failures
        out.failures = out.failures[:MAX_LOGGED_FAILURES]
        return out


def timing(job_s: list[float]) -> dict:
    """Median and tail job time in ms. The tail is the highest percentile
    with at least ten jobs beyond it."""
    ms = sorted(1e3 * s for s in job_s)
    n = len(ms)
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        tail = ms[max(1, math.ceil(pct * n / 100)) - 1]
    else:
        pct, tail = 100, ms[-1]
    return {"job_ms_p50": statistics.median(ms), "job_ms_tail": tail,
            "tail_percentile": pct, "samples": n}


def end_to_end(run: Run, probes: list[dict], peak_rss_kb: int) -> tuple[dict, dict]:
    clean = run.clean_s()
    total = sum(clean)
    stats = timing(clean)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * p["speed_factor"] for p in probes),
        "job_ms_p50": stats["job_ms_p50"],
        "job_ms_tail": stats["job_ms_tail"],
        "jobs_per_s": len(clean) / total,
        "iters_per_s": run.iters / total,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    raw = timing(run.job_s)
    detail = {"samples": stats["samples"], "tail_percentile": stats["tail_percentile"],
              "distinct_inputs": len(set(run.keys)),
              "terminations": dict(sorted(run.terminations.items())),
              "calibration": {"ref_s": run.ref_s, "best_s": min(run.calibration),
                              "median_s": statistics.median(run.calibration),
                              "samples": len(run.calibration)},
              "as_measured": {"job_ms_p50": raw["job_ms_p50"], "job_ms_tail": raw["job_ms_tail"],
                              "jobs_per_s": len(run.job_s) / run.total_s,
                              "iters_per_s": run.iters / run.total_s},
              "job_ms_tail_own": timing(run.own_s())["job_ms_tail"],
              "job_ms_by_input": {k: 1e3 * s for k, s in sorted(zip(run.keys, clean))}}
    return metrics, detail


def traced_result(args, spans, traced: Run, plain: Run, import_ms: float,
                  import_share: float) -> tuple[dict, dict, Run]:
    """Per-layer metrics of the traced phase, the overhead against the
    untraced replay of the same jobs, and the counter identities."""
    metrics = spans.layer_metrics(len(traced.job_s), traced.total_s, import_ms)
    metrics["cli.import.share"] = import_share
    metrics["trace.overhead_share"] = sum(traced.clean_s()) / sum(plain.clean_s()) - 1.0
    violations = spans.identity_violations()
    for job in sorted({int(spans.job[idx]) for idx, _ in violations}):
        traced.fail(job, ["counter identity violated"])
    spans.save(_out_path(args, "spans", ".npz"))
    detail = {"traced_jobs": len(traced.job_s), "spans": len(spans),
              "identity_violations": [msg for _, msg in violations[:MAX_LOGGED_FAILURES]]}
    return metrics, detail, traced.merged(plain)


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Set up in fresh interpreters; the first probe warms the file cache and
    bytecode and is dropped. Each probe is scaled to the reference machine by
    a spawn kernel timed right after it."""
    results = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, PROBE, workload, str(seed)], capture_output=True,
                              text=True, env=benchenv.child_env(), timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["speed_factor"] = calibrate.SPAWN_REF_S / calibrate.spawn()
        results.append(probe)
    return results[1:]


def _stop(run: Run, done: int, cycle: int, budget_s: float | None, count: int | None,
          wall0: float) -> bool:
    """Stop after count jobs, or once the job time reaches the budget at the
    end of a whole cycle of the job pattern, so every run has the same mix."""
    if count is not None:
        return done >= count
    if time.perf_counter() - wall0 > WALL_CAP_S:
        return True
    return done % cycle == 0 and run.total_s >= budget_s


# -- library workloads ----------------------------------------------------------


def _library_jobs(suite, run: Run, budget_s: float | None, count: int | None, tracer=None) -> int:
    import checks

    k = 0
    wall0 = time.perf_counter()
    next_calibration = 0.0
    while not _stop(run, k, suite.cycle, budget_s, count, wall0):
        if run.total_s >= next_calibration:
            run.calibration.append(calibrate.in_process())
            next_calibration = run.total_s + CALIBRATE_EVERY_S
        run.attempted += 1
        if tracer is not None:
            tracer.job_id = k
        try:
            t0 = time.perf_counter()
            with tracer.span("job") if tracer is not None else nullcontext():
                result = suite.run(k)
            dt = time.perf_counter() - t0
        except Exception:  # a job that raises counts as failed; the run goes on
            run.fail(k, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
            k += 1
            continue
        run.record(result.key, dt, result.iters, [result.trace.termination.value])
        problems = checks.check_job(result)
        if problems:
            run.fail(k, problems)
        k += 1
    return k


def run_library(args, probes: list[dict]) -> tuple[dict, dict, Run]:
    import ncpgd

    benchenv.verify_imported(ncpgd)
    import workloads

    suite = workloads.LibraryWorkload(args.workload, args.seed)
    if not args.trace:
        run = Run(calibrate.IN_PROCESS_REF_S)
        _library_jobs(suite, run, args.seconds, None)
        metrics, detail = end_to_end(run, probes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return metrics, detail, run

    import tracer as tracing

    tracer = tracing.Tracer()
    traced = Run(calibrate.IN_PROCESS_REF_S)
    patches = tracing.install(tracer)
    try:
        n = _library_jobs(suite, traced, args.seconds / 2.0, None, tracer)
    finally:
        patches.restore()
    plain = Run(calibrate.IN_PROCESS_REF_S)
    _library_jobs(suite, plain, None, n)
    import_ms = 1e3 * statistics.median(p["cli_import_s"] for p in probes)
    return traced_result(args, tracer.spans(), traced, plain, import_ms, 0.0)


# -- cli-certify ------------------------------------------------------------------


def _cli_job(inv, prefix: list[str], cwd: str) -> tuple[float, subprocess.CompletedProcess, dict]:
    for name in inv.outputs:
        path = os.path.join(cwd, name)
        if os.path.exists(path):
            os.remove(path)
    t0 = time.perf_counter()
    proc = subprocess.run(prefix + list(inv.argv), cwd=cwd, env=benchenv.child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    dt = time.perf_counter() - t0
    outputs = {}
    for name in inv.outputs:
        path = os.path.join(cwd, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[name] = fh.read()
    return dt, proc, outputs


def _cli_jobs(invocations, reference: dict, run: Run, cwd: str, budget_s: float | None,
              count: int | None, spans_dir: str | None = None) -> list[str]:
    """Run command lines in turn. The first run of each command line gives the
    reference outputs that every later run of it must reproduce byte for byte."""
    import checks

    prefix = [sys.executable, "-m", "ncpgd.cli"]
    span_files = []
    k = 0
    wall0 = time.perf_counter()
    while not _stop(run, k, len(invocations), budget_s, count, wall0):
        if k % 2 == 0:
            run.calibration.append(calibrate.spawn())
        inv = invocations[k % len(invocations)]
        if spans_dir is not None:
            span_files.append(os.path.join(spans_dir, f"job{k}.npz"))
            prefix = [sys.executable, LAUNCHER, span_files[-1], "--"]
        run.attempted += 1
        try:
            dt, proc, outputs = _cli_job(inv, prefix, cwd)
        except subprocess.TimeoutExpired:
            run.fail(k, [f"{inv.name}: timed out"])
            k += 1
            continue
        run.record(inv.name, dt, checks.accepted_steps(proc.stdout),
                   re.findall(r"\btermination=(\S+)", proc.stdout))
        reference.setdefault(inv.name, outputs)
        problems = checks.check_invocation(inv, proc.returncode, proc.stdout, outputs,
                                           reference[inv.name])
        if problems:
            run.fail(k, [f"{inv.name}: {p}" for p in problems])
        k += 1
    return span_files


def run_cli(args, probes: list[dict]) -> tuple[dict, dict, Run]:
    import workloads

    cwd = os.path.join(benchenv.OUT_DIR, f"cli-{args.seed}-{os.getpid()}")
    os.makedirs(cwd, exist_ok=True)
    try:
        return _run_cli(args, probes, workloads.cli_invocations(args.seed), cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def _run_cli(args, probes, invocations, cwd) -> tuple[dict, dict, Run]:
    reference: dict = {}
    if not args.trace:
        run = Run(calibrate.SPAWN_REF_S)
        _cli_jobs(invocations, reference, run, cwd, args.seconds, None)
        metrics, detail = end_to_end(run, probes, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return metrics, detail, run

    import tracer as tracing

    traced = Run(calibrate.SPAWN_REF_S)
    files = _cli_jobs(invocations, reference, traced, cwd, args.seconds / 2.0, None, spans_dir=cwd)
    plain = Run(calibrate.SPAWN_REF_S)
    _cli_jobs(invocations, reference, plain, cwd, None, len(traced.job_s))
    parts, imports, jobs = [], [], []
    for k, path in enumerate(files):
        if os.path.exists(path):
            spans, meta = tracing.Spans.load(path)
            parts.append(spans)
            imports.append(meta["import_s"])
            jobs.append(k)
    import_ms = 1e3 * statistics.median(imports) if imports else 0.0
    return traced_result(args, tracing.Spans.concat(parts, jobs), traced, plain, import_ms,
                         sum(imports) / traced.total_s)


# -- entry point --------------------------------------------------------------------


def _out_path(args, what: str, suffix: str) -> str:
    return os.path.join(benchenv.OUT_DIR, f"{what}-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}")


def _units(trace: int, metrics: dict) -> dict[str, str]:
    """Units from BENCHMARK.json, which must list exactly the metrics reported."""
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in listed} != set(metrics):
        raise RuntimeError(f"reported metrics {list(metrics)} differ from BENCHMARK.json")
    return {m["name"]: m["unit"] for m in listed}


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metric lines."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"{name:18s} {line}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        benchenv.use_checkout_sources()
    except benchenv.MissingSourceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(benchenv.OUT_DIR, exist_ok=True)
    probes = setup_probes(args.workload, args.seed)
    if args.workload == "cli-certify":
        metrics, detail, run = run_cli(args, probes)
    else:
        metrics, detail, run = run_library(args, probes)
    units = _units(args.trace, metrics)
    failed_share = run.failed / run.attempted
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": benchenv.stamp(args.seed), **result, "failed_share": failed_share,
              "detail": {**detail, "failures": run.failures, "setup_probes": probes}}
    with open(_out_path(args, "result", ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"{'failed_share':40s} {failed_share:14.6g} share  ({run.failed} of {run.attempted} jobs)")
    for key in ("samples", "tail_percentile", "distinct_inputs", "terminations", "calibration", "as_measured",
                "job_ms_tail_own", "traced_jobs", "spans", "identity_violations"):
        if key in detail:
            print(f"# {key}: {detail[key]}")
    for line in run.failures:
        print(f"# failure {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
