"""Run the benchmark on several workloads and seeds, one process per run.

Usage (from the repository root)::

    python3 perfbench/summary.py                      # every workload, seed 1
    python3 perfbench/summary.py --seeds 1-10 --workloads matrix

Prints, for each workload, every end-to-end metric with its unit (median,
quartiles and the spread (q3 - q1) / median over the seeds, against the
metric's bound in BENCHMARK.json) and check_fail_ratio (failed / attempted
over all runs). Runs go one after another, never in parallel, so they do
not compete for the cores they measure. Exits 1 if any run failed or was
incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median), with quartiles as the
    exclusive method of statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok = ok and failed == 0 and all(r["correct"] for r in results)
        print(f"== {workload}: {len(results)} runs")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results if metric["name"] in r["metrics"]]
            if not values:
                print(f"  {metric['name']:<48} missing")
                continue
            median, q1, q3, rel = spread(values)
            bound = metric.get("bound")
            verdict = "" if bound is None else (
                f"  bound {bound:.2f}: "
                + ("ok" if rel <= bound / 3 else "within bound"
                   if rel <= bound else "TOO WIDE"))
            print(f"  {metric['name']:<48} {median:>12.6g} {metric['unit']:<6}"
                  f" q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f}{verdict}")
        print(f"  {'check_fail_ratio':<48} {failed / max(attempted, 1):>12.6g}"
              f" ({failed}/{attempted})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
