"""Run the benchmark on several seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py                       # seeds 1-10
    python3 perfbench/baseline.py --seeds 11 12 13 14 15 16 17 18 19 20

For every workload it makes one untraced run per seed and one traced run on
the first seed, then prints, per end-to-end metric, the median and the
spread (third minus first quartile, as a share of the median) next to the
metric's bound from BENCHMARK.json. It records everything, with the
environment stamp, in perfbench/results/BENCH_baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import benchenv

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "results", "BENCH_baseline.json")


def load_spec() -> dict:
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=benchenv.ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    wall_s = time.perf_counter() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(benchenv.OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"seed": seed, "wall_s": wall_s, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": {k: v for k, v in record["detail"].items() if k != "setup_probes"}}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)
    benchenv.pin_threads()
    benchenv.use_checkout_sources()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": benchenv.stamp(args.seeds[0]), "seeds": args.seeds,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items())
                + f" failed={runs[-1]['failed']}/{runs[-1]['attempted']} wall={runs[-1]['wall_s']:.1f}s",
                flush=True)
        summary = {}
        for name in bounds:
            summary[name] = spread([r["metrics"][name] for r in runs])
            s = summary[name]
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            worst = max(worst, s["spread"] / bounds[name])
            print(f"  {name:14s} median {s['median']:12.5g}  spread {s['spread']:.4f}  "
                  f"bound {bounds[name]}{flag}")
        entry = {"runs": runs, "summary": summary,
                 "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)}
        entry["traced"] = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
        print(f"  traced (seed {args.seeds[0]}): "
              + " ".join(f"{k}={v:.4g}" for k, v in entry["traced"]["metrics"].items()), flush=True)
        report["workloads"][workload] = entry
    print(f"largest spread / bound: {worst:.3f}")
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
