"""The lcft benchmark: descriptors through the ``lcft check --json`` path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 10 --trace 0

For each descriptor of the workload it writes the CLI config file, then
calls ``cli.parse_config``, ``cli.build_extension`` and ``cli.cmd_check``
in this process, exactly as ``lcft check CONFIG --json --seed N`` does,
and parses and verifies the emitted JSON. The run is single-process and
single-thread, and uses only the standard library.

Every build and every check pass starts from a freshly imported ``lcft``
package, so it is as cold as in a new ``lcft check`` process: no state
that lcft keeps in its modules carries over from an earlier repetition.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

- set-up is repeated (at least ``MIN_SETUP_REPS`` times, and until
  ``SETUP_BUDGET_S`` of wall time is spent), and ``setup_s`` is the median
  total over the descriptors;
- check passes over all descriptors, each on a build of its own, repeat
  until ``--seconds`` have passed (at least one), and ``check_s`` is the
  median pass total.

Times are reported in reference seconds: seconds scaled by the core speed
sampled while they were measured (see cpuspeed.py).

``--trace 1`` runs one build and check pass with every layer boundary
wrapped (see layertrace.py) and then one untraced pass, reports the
per-layer metrics, and fails the run if the two passes emit different
reports.

Failures are never skipped: each one is printed to stderr with the
workload, descriptor and seed, and counted in ``failed``; a run with a
failure exits 1. Human-readable figures, the Python version and the core
count precede the result; the last line of stdout is the JSON result, and
a copy of it with the environment (and, when traced, the spans) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from cpuspeed import SpeedProbe
from layertrace import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_SETUP_REPS = 3
SETUP_BUDGET_S = 2.0


def import_cli():
    """The CLI module of the checkout's own source tree, imported anew.

    Drops every ``lcft`` module already imported (and collects the garbage
    that leaves), so whatever lcft caches at module level starts empty.
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "lcft" or n.startswith("lcft.")]:
        del sys.modules[name]
    gc.collect()
    try:
        from lcft import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import lcft from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"lcft was imported from {cli.__file__}, not {src}")
    return cli


def config_text(descriptor, workload) -> str:
    p, t, f, e, u0 = descriptor
    return (f"p={p}\nt={t}\nf={f}\ne={e}\nu0={u0}\n"
            f"precision={workload.precision}\nsamples={workload.samples}\n")


def load_configs(cli, workload) -> list:
    """Each descriptor's config file, written and read back by the CLI."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        raws = []
        for index, descriptor in enumerate(workload.descriptors):
            path = Path(tmp) / f"{index}.cfg"
            path.write_text(config_text(descriptor, workload))
            raws.append(cli.parse_config(str(path)))
    return raws


def build_all(cli, raws, clock, tracer=None):
    """Fresh extensions for every descriptor; total seconds in the build."""
    exts = []
    elapsed = 0.0
    for index, raw in enumerate(raws):
        if tracer:
            tracer.trace_id = index
        start = clock()
        exts.append(cli.build_extension(raw))
        elapsed += clock() - start
    return exts, elapsed


class Tally:
    """Checks attempted and failed, over every descriptor run of a run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def fail(self, descriptor, problem) -> None:
        print(f"FAIL workload={self.workload} seed={self.seed} "
              f"descriptor={descriptor}: {problem}", file=sys.stderr)

    def record(self, descriptor, code, text, ext, raw) -> None:
        """Judge one ``cmd_check`` outcome; report and count each failure."""
        problems, results, failing = [], [], []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            report = json.loads(text)
            results = report["results"]
            failing = [r["name"] for r in results if r["passed"] is not True]
            if failing:
                problems.append("failed checks: " + ", ".join(failing))
            if report["passed"] is not True:
                problems.append("report says passed = false")
            if report["seed"] != self.seed:
                problems.append(f"report seed {report['seed']}")
            echo = report["descriptor"]
            for key in ("p", "t", "f", "e", "precision"):
                if int(echo[key]) != int(raw[key]):
                    problems.append(f"descriptor echoes {key}={echo[key]}")
            if ext.tower.parse(str(echo["u0"])) != ext.tower.parse(raw["u0"]):
                problems.append(f"descriptor echoes u0={echo['u0']}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        self.attempted += max(len(results), 1)
        if problems:
            self.failed += max(len(failing), 1)
            self.fail(descriptor, "; ".join(problems))


def check_all(cli, exts, raws, descriptors, tally, clock, tracer=None):
    """One check pass; returns (seconds in cmd_check, emitted reports)."""
    args = argparse.Namespace(json=True, seed=tally.seed, samples=None,
                              precision=None)
    elapsed = 0.0
    reports = []
    for index, (ext, raw) in enumerate(zip(exts, raws)):
        if tracer:
            tracer.trace_id = index
        lines = []
        start = clock()
        try:
            code = cli.cmd_check(ext, raw, args, lines.append)
        except Exception:
            traceback.print_exc()
            code = "exception"
        elapsed += clock() - start
        text = "\n".join(lines)
        tally.record(descriptors[index], code, text, ext, raw)
        reports.append(text)
    return elapsed, reports


def timed_run(raws, descriptors, tally, seconds):
    """End-to-end metrics, untraced; times in reference seconds."""
    with SpeedProbe() as probe:
        mark = probe.mark()
        setups = []
        started = time.perf_counter()
        while (len(setups) < MIN_SETUP_REPS
               or time.perf_counter() - started < SETUP_BUDGET_S):
            exts = cli = None     # drop the last build before timing the next
            cli = import_cli()
            exts, elapsed = build_all(cli, raws, probe.clock)
            setups.append(elapsed)
        setup_speed = probe.speed(mark)
        checks = []
        started = time.perf_counter()
        mark = probe.mark()
        while not checks or time.perf_counter() - started < seconds:
            if checks:            # the first pass checks the last set-up
                exts = cli = None
                cli = import_cli()
                exts, _ = build_all(cli, raws, probe.clock)
            elapsed, _ = check_all(cli, exts, raws, descriptors, tally,
                                   probe.clock)
            checks.append(elapsed)
        check_speed = probe.speed(mark)
    setup_s = statistics.median(setups) * setup_speed
    check_s = statistics.median(checks) * check_speed
    metrics = {
        "setup_s": setup_s,
        "check_s": check_s,
        "descriptors_per_s": len(raws) / (setup_s + check_s),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    info = {"setup_reps": len(setups), "check_passes": len(checks),
            "setup_speed": round(setup_speed, 4),
            "check_speed": round(check_speed, 4),
            "setup_first_s": round(setups[0] * setup_speed, 6),
            "setup_unscaled_s": round(statistics.median(setups), 6),
            "check_unscaled_s": round(statistics.median(checks), 4)}
    return metrics, info, {}


def traced_run(raws, descriptors, tally):
    """A traced build and check pass, then an untraced one, each cold.

    Reports the traced pass's per-layer metrics; the untraced pass gives
    the overhead ratio and the reports the traced ones must equal.
    """
    with SpeedProbe() as probe:
        cli = import_cli()
        mark = probe.mark()
        with Tracer(probe.clock) as tracer:
            exts, _ = build_all(cli, raws, probe.clock, tracer)
            traced_s, traced = check_all(cli, exts, raws, descriptors, tally,
                                         probe.clock, tracer)
        speed = probe.speed(mark)
        exts = cli = None
        cli = import_cli()
        exts, _ = build_all(cli, raws, probe.clock)
        mark = probe.mark()
        plain_s, plain = check_all(cli, exts, raws, descriptors, tally,
                                   probe.clock)
        plain_s *= probe.speed(mark)
    for descriptor, a, b in zip(descriptors, plain, traced):
        if a != b:
            tally.fail(descriptor, "traced report differs from untraced")
    metrics = tracer.layer_metrics(len(raws), speed)
    metrics["trace.overhead_ratio"] = traced_s * speed / plain_s
    return (metrics, {"transparent": plain == traced},
            {"spans": tracer.spans, "counts": tracer.counts()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    descriptors = workload.descriptors
    raws = load_configs(import_cli(), workload)
    tally = Tally(workload.name, args.seed)
    if args.trace:
        measured, info, details = traced_run(raws, descriptors, tally)
    else:
        measured, info, details = timed_run(raws, descriptors, tally,
                                            args.seconds)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env = {"workload": workload.name, "seed": args.seed,
           "trace": args.trace, "seconds": args.seconds,
           "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "descriptors": len(descriptors)}
    env.update(info)
    print("lcft bench " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'check_fail_ratio':<48} {tally.failed / tally.attempted:>14.6g}"
          f" ({tally.failed}/{tally.attempted})")

    result = {"correct": tally.failed == 0 and info.get("transparent", True),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(env, result=result, **details)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
