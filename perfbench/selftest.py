"""Self-test of the benchmark's tracing, on the real workloads.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For each workload it runs one untraced and two traced passes (build and
check, each on a freshly imported lcft) at seed ``SEED``, in this process,
and asserts that

- every pass verifies (no failed check, exit code 0, descriptor echoed);
- the traced reports equal the untraced ones, byte for byte (the wrappers
  are transparent);
- the call counts of the two traced passes are identical;

and, over all workloads, that every traced boundary was called at
least once and that the traced metrics are exactly the per-layer metrics
named in BENCHMARK.json. Takes about five minutes for all workloads.
Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
import time

import run
from layertrace import Tracer
from workloads import WORKLOADS

SEED = 1


def traced_pass(raws, descriptors, tally):
    cli = run.import_cli()
    with Tracer() as tracer:
        exts, _ = run.build_all(cli, raws, time.perf_counter, tracer)
        _, reports = run.check_all(cli, exts, raws, descriptors, tally,
                                   time.perf_counter, tracer)
    return tracer, reports


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    called = {}
    metric_names = set()
    for name, workload in WORKLOADS.items():
        descriptors = workload.descriptors
        cli = run.import_cli()
        raws = run.load_configs(cli, workload)
        tally = run.Tally(name, SEED)
        exts, _ = run.build_all(cli, raws, time.perf_counter)
        _, plain = run.check_all(cli, exts, raws, descriptors, tally,
                                 time.perf_counter)
        exts = cli = None
        first, reports1 = traced_pass(raws, descriptors, tally)
        second, reports2 = traced_pass(raws, descriptors, tally)
        if tally.failed:
            failures.append(f"{name}: {tally.failed} failed checks")
        if not plain == reports1 == reports2:
            failures.append(f"{name}: traced reports differ from untraced")
        if first.counts() != second.counts():
            diff = sorted(k for k in first.counts()
                          if first.counts()[k] != second.counts().get(k))
            failures.append(f"{name}: call counts differ at {diff}")
        for boundary, calls in first.counts().items():
            called[boundary] = called.get(boundary, 0) + calls
        metric_names |= set(first.layer_metrics(len(raws), 1.0))
        print(f"{name}: {len(descriptors)} descriptors, "
              f"{sum(first.counts().values())} wrapped calls per traced pass",
              flush=True)
    never = sorted(b for b, calls in called.items() if not calls)
    if never:
        failures.append(f"never called: {never}")
    named = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    if metric_names != named:
        failures.append(f"traced metrics differ from BENCHMARK.json: "
                        f"{sorted(metric_names ^ named)}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
