"""The thzsecmap benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map-cell --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop (one caller; each command starts when the
previous one returns) through ``thzsecmap.cli.run(argv)`` in this process,
checks every output after the timed region, and prints the metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import (Metric, bracketed_ratios, count_failures, error_rate, layer_metrics,
                     layer_totals, tail)
from tracing import Tracer, find_function, replaced
from workloads import WORKLOADS, CommandResult, Oracle, check_commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
PROBE_ITERATIONS = 100_000
MAP_THREADS = 2  # map-cell's --threads
TRACE_THREADS = 1  # forked workers' spans would not come back

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from thzsecmap.cli import load_config; load_config(sys.argv[2])")

# name -> (unit, better); BENCHMARK.json declares the same lists.  On a shared
# host the machine's speed drifts by up to 2x over seconds to minutes, so wall
# times of whole runs spread 12-23 % (quartiles over runs of the same code).
# Each pass is therefore also timed against a fixed loop run just before and
# after it, and the bound rests on that ratio; wall times are printed beside it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_cost_loops": ("loops", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "bounds.min_security.us_per_call": ("us", "lower"),
    "bounds.min_security.calls": ("count", "lower"),
    "bounds.min_security.short_circuit_ratio": ("ratio", "higher"),
    "bounds.min_reliability.us_per_call": ("us", "lower"),
    "bounds.min_reliability.calls": ("count", "lower"),
    "planner.min_reliability_per_plan": ("count", "lower"),
    "planner.plan.ms_per_call": ("ms", "lower"),
    "secmap.write.ms": ("ms", "lower"),
    "secmap.write.bytes": ("bytes", "lower"),
    "linkmodel.link_budget.us_per_call": ("us", "lower"),
    "linkmodel.link_budget.calls": ("count", "lower"),
    "antenna.pattern_gain.us_per_call": ("us", "lower"),
    "antenna.pattern_gain.calls": ("count", "lower"),
    "geometry.offset_angle.us_per_call": ("us", "lower"),
    "geometry.offset_angle.calls": ("count", "lower"),
    "cli.load_config.ms_per_call": ("ms", "lower"),
    "cli.self_ms_per_cmd": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def load_package():
    """Import the checkout's own package and oracles, or exit 2 if they are missing."""
    oracles_path = ROOT / "tests" / "oracles.py"
    if not (SRC / "thzsecmap" / "cli.py").is_file() or not oracles_path.is_file():
        print(f"perfbench: no src/thzsecmap/cli.py or tests/oracles.py under {ROOT}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from thzsecmap import antenna, cli
    if Path(cli.__file__).resolve().parent != SRC / "thzsecmap":
        print(f"perfbench: imported thzsecmap from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    spec = importlib.util.spec_from_file_location("oracles", oracles_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return cli, antenna, oracles


def measure_setup(config: str) -> float:
    """Wall time for a fresh interpreter to import the CLI and load one config."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), config], cwd=ROOT, check=True)
    return time.perf_counter() - start


def probe_s() -> float:
    """Wall time of a fixed pure-Python float loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        total += math.log1p(i * 1e-6)
    return time.perf_counter() - start


def run_command(cli, label: str, argv: list, out: Path, tracer: Tracer | None) -> CommandResult:
    stderr = io.StringIO()
    span = tracer.span("cli.run") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), span:
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects an argument vector
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc()
            code = -1
    return CommandResult(label, out, code, stderr.getvalue())


def run_passes(cli, workload, work: Path, seconds: float, threads: int, results: list,
               tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
    """Run whole passes until ``seconds`` have elapsed (at least one).

    A host-speed probe runs before every pass and after the last.  Returns
    the pass times and the probe times; the command results go to ``results``.
    """
    times, probes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        probes.append(probe_s())
        out = work / f"p{len(results)}"
        begin = time.perf_counter()
        for label, argv in workload.commands(out, threads):
            results.append(run_command(cli, label, argv, out / label, tracer))
        times.append(time.perf_counter() - begin)
    probes.append(probe_s())
    return times, probes


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def check(workload, results, cli, antenna, oracles, seed) -> tuple[int, list[str]]:
    rng = random.Random(seed)
    oracle = Oracle(oracles, antenna, ROOT / workload.config,
                    cli.load_config(str(ROOT / workload.config)))
    failures = check_commands(workload, results, oracle, rng)
    failed = count_failures([r.code for r in results], failures)
    reasons = [f"command {i} ({results[i].label}): {why}" for i, why in sorted(failures.items())]
    return failed, reasons


def untraced_run(workload, args, cli, work: Path) -> tuple[dict, list, list]:
    setup = [measure_setup(workload.config) for _ in range(SETUP_REPS)]
    results: list[CommandResult] = []
    times, probes = run_passes(cli, workload, work, args.seconds, MAP_THREADS, results)
    rss = peak_rss_mb()
    tail_s, tail_pct, count = tail(times)
    metrics = {
        "setup_s": Metric(statistics.median(setup), "s"),
        "pass_cost_loops": Metric(statistics.median(bracketed_ratios(times, probes)), "loops"),
        "peak_rss_mb": Metric(rss, "MB"),
        "work_per_s": Metric(workload.units_per_pass * count / sum(times), "1/s"),
        "pass_p50_s": Metric(statistics.median(times), "s"),
        "pass_tail_s": Metric(tail_s, "s"),
        "probe_p50_ms": Metric(1e3 * statistics.median(probes), "ms"),
    }
    notes = [
        f"setup_s: median of {SETUP_REPS} fresh interpreters importing thzsecmap.cli "
        f"and loading {workload.config}",
        f"pass_cost_loops: median over {count} passes of the pass time over the mean of the "
        f"{PROBE_ITERATIONS}-step probe loops just before and after it",
        f"work_per_s: {workload.unit_name} per wall second over all {count} passes",
        f"pass_tail_s: p{tail_pct:.1f} of {count} passes "
        + ("(exactly 10 slower)" if tail_pct < 100 else "(fewer than 11 passes: the slowest)"),
    ]
    return metrics, results, notes


def traced_run(workload, args, cli, work: Path) -> tuple[dict, list, list]:
    """Per-layer metrics: untraced reference passes, the pool comparison, then traced passes.

    The reference and the traced passes each run for half of ``--seconds``
    (at least one pass each), with one worker.
    """
    results: list[CommandResult] = []
    notes = []
    metrics: dict[str, Metric] = {}
    absent: dict[str, str] = {}

    evaluate_map = find_function("secmap", "evaluate_map")
    pool_runs: dict[int, list] = {}

    def timed_map(threads):
        def timed(*a, **kw):
            wall, cpu = time.perf_counter(), cpu_seconds()
            result = evaluate_map(*a, **kw)
            pool_runs.setdefault(threads, []).append(
                (time.perf_counter() - wall, cpu_seconds() - cpu))
            return result
        return {evaluate_map: timed} if evaluate_map is not None else {}

    with replaced(timed_map(TRACE_THREADS)):
        reference_times, reference_probes = run_passes(cli, workload, work, args.seconds / 2,
                                                       TRACE_THREADS, results)
    if workload.pool_comparison:
        with replaced(timed_map(MAP_THREADS)):
            run_passes(cli, workload, work, 0, MAP_THREADS, results)
        if TRACE_THREADS not in pool_runs or MAP_THREADS not in pool_runs:
            absent["secmap.pool.speedup"] = absent["secmap.pool.cpu_overhead_s"] = \
                "secmap.evaluate_map was not found or not called"
        else:
            (wall1, cpu1), (wall2, cpu2) = pool_runs[TRACE_THREADS][0], pool_runs[MAP_THREADS][0]
            metrics["secmap.pool.speedup"] = Metric(wall1 / wall2, "ratio")
            metrics["secmap.pool.cpu_overhead_s"] = Metric(cpu2 - cpu1, "s")
            notes.append(f"secmap.pool: evaluate_map {wall1:.3f} s wall / {cpu1:.3f} s CPU "
                         f"with 1 worker, {wall2:.3f} s / {cpu2:.3f} s with 2")

    tracer = Tracer()
    commands_before = len(results)
    with tracer.patched():
        traced_times, traced_probes = run_passes(cli, workload, work, args.seconds / 2,
                                                 TRACE_THREADS, results, tracer)
    totals = layer_totals(tracer.spans, tracer.traced | {"cli.run"})
    layer, layer_absent = layer_metrics(totals, tracer.counts, len(traced_times),
                                        len(results) - commands_before)
    metrics.update(layer)
    absent.update(layer_absent)
    traced_cost = statistics.median(bracketed_ratios(traced_times, traced_probes))
    reference_cost = statistics.median(bracketed_ratios(reference_times, reference_probes))
    metrics["trace.overhead_ratio"] = Metric(traced_cost / reference_cost, "ratio")
    notes.append(f"trace.overhead_ratio: median traced pass {traced_cost:.4g} loops over median "
                 f"untraced pass {reference_cost:.4g} loops ({len(traced_times)} and "
                 f"{len(reference_times)} passes, {TRACE_THREADS} worker)")
    if tracer.missing:
        notes.append("not found, so not traced: " + ", ".join(sorted(tracer.missing)))
    for name, why in sorted(absent.items()):
        notes.append(f"absent {name}: {why}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, results, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, antenna, oracles = load_package()
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    try:
        run = traced_run if args.trace else untraced_run
        metrics, results, notes = run(workload, args, cli, work)
        failed, reasons = check(workload, results, cli, antenna, oracles, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = PER_LAYER if args.trace else END_TO_END
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} commands, {failed} failed, "
          f"error_rate {error_rate(failed, len(results)):.6g}")
    for reason in reasons:
        print(f"FAILED {reason}")
    for note in notes:
        print(note)
    for name, metric in sorted(metrics.items()):
        extra = "" if name in declared else "  (reported only, not in BENCHMARK.json)"
        print(f"{name} = {metric.value:.6g} {metric.unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items() if name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
