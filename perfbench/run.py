"""Verification benchmark: time to verdict, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore_3r --seed 1 --seconds 30 \
        --trace 0

Workloads (see ``workloads.py`` and ``notes.json``): ``explore_3r``,
``sample_check`` and ``cli_cold``.  With ``--trace 0`` the run measures
the end-to-end metrics of ``BENCHMARK.json`` with tracing off; with
``--trace 1`` it runs untraced passes, one traced pass and a second
process for the hash-seed probe, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is ``{"detail": ...}`` (tail percentile and sample count, failures,
absent metrics, determinism probe, time accounting).  Both are also
written under ``perfbench/out/``.  Without the program's sources next to
the benchmark the run exits with code 2 and prints no result.
"""

import argparse
import compileall
import json
import math
import os
import resource
import subprocess
import sys
import time
from statistics import median
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    HERE,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    ensure_importable,
    run_child,
)

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Fresh interpreters timed per traced run for ``cli.*`` start-up.
START_UP_PROBES = 5
#: Longest a set-up, start-up or probe child may run before it is killed.
CHILD_LIMIT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: the second process of the hash-seed probe.  Runs a
    # warm-up pass and traced pass number N, prints their counts.
    parser.add_argument("--probe-pass", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds():
    """CPU seconds so far, this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Pass:
    __slots__ = ("index", "wall", "cpu", "results")

    def __init__(self, index, wall, cpu, results):
        self.index, self.wall, self.cpu, self.results = (
            index, wall, cpu, results)


def run_pass(workload, index):
    cpu, start = cpu_seconds(), time.perf_counter()
    results = workload.run_pass(index)
    return Pass(index, time.perf_counter() - start, cpu_seconds() - cpu,
                results)


def closed_loop(workload, first_index, seconds, min_passes=1):
    """Passes back to back until ``seconds`` have passed and at least
    ``min_passes`` passes are done."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start < seconds):
        passes.append(run_pass(workload, first_index + len(passes)))
    return passes


def tail(results):
    """(unit result, percentile): the unit at the highest whole percentile
    with at least ten samples beyond it, by nearest rank.  Needs more
    than ten results."""
    ordered = sorted(results, key=lambda result: result.latency_s)
    n = len(ordered)
    percentile = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(percentile * n / 100) - 1], percentile


def setup_seconds(name, seed):
    """Median wall time of fresh interpreters doing the workload's set-up."""
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        code, _, err = run_child([str(HERE / "workloads.py"), name,
                                  str(seed)], CHILD_LIMIT_S)
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err[-500:]}")
    return median(walls), walls


def verdict_tally(passes):
    results = [result for p in passes for result in p.results]
    failures = [f"{result.name}: {result.error or 'wrong verdict'}"
                for result in results if not result.ok]
    return len(results), failures


def timed_run(workload, args):
    """End-to-end metrics, tracing off."""
    setup_s, setup_walls = setup_seconds(workload.name, args.seed)
    workload.setup(args.seed)
    warm = run_pass(workload, 0)
    passes = closed_loop(workload, 1, args.seconds, workload.tail_passes)
    latencies = [r.latency_s for p in passes for r in p.results]
    # The tail comes from a fixed number of passes, so that every run and
    # every commit reports the same percentile whatever the pass speed.
    tail_results = [r for p in passes[:workload.tail_passes]
                    for r in p.results]
    tail_unit, percentile = tail(tail_results)
    who = resource.RUSAGE_SELF if workload.in_process \
        else resource.RUSAGE_CHILDREN
    attempted, failures = verdict_tally([warm] + passes)
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": sum(r.verdicts for p in passes for r in p.results)
        / sum(p.wall for p in passes),
        "latency_p50_ms": 1e3 * median(latencies),
        "latency_tail_ms": 1e3 * tail_unit.latency_s,
        # A mean, not a median: on sample_check each pass has other
        # inputs, and the mean counts the work of every one of them.
        "cpu_s": sum(p.cpu for p in passes) / len(passes),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        "verdict_ok_share": 1 - len(failures) / attempted,
    }
    detail = {
        "latency_tail": {"percentile": percentile,
                         "samples": len(tail_results),
                         "unit": tail_unit.name},
        "latency_samples": len(latencies),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "setup_walls_s": setup_walls,
        "warm_up_pass_s": warm.wall,
    }
    return metrics, attempted, failures, detail


def traced_pass(workload, index):
    """One pass with every layer wrapped; restores them afterwards."""
    from layers import patch_layers, sum_counts
    from tracer import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    if workload.in_process:
        try:
            tally = patch_layers(tracer)
            results = workload.run_pass(index, tracer=tracer)
        finally:
            tracer.restore()
    else:
        OUT.mkdir(exist_ok=True)
        results = workload.run_pass(index, tracer=tracer, metrics_dir=OUT)
    wall = time.perf_counter() - start
    counts = sum_counts(results)
    if workload.in_process:
        counts.update(tally.counts())
    return tracer, Pass(index, wall, 0.0, results), counts


def count_metrics(workload, tracer, counts, call_cost=0.0):
    from layers import layer_metrics

    return layer_metrics(counts, tracer.self_times(call_cost),
                         workload.in_process)


def probe_counts(workload, args):
    """Second process of the hash-seed probe: warm-up, then traced pass."""
    workload.setup(args.seed)
    run_pass(workload, 0)
    tracer, _, counts = traced_pass(workload, args.probe_pass)
    metrics, _ = count_metrics(workload, tracer, counts)
    print(json.dumps({"counts": metrics}))


def traced_run(workload, args, per_layer):
    """Per-layer metrics from one traced pass, plus tracing overhead,
    start-up times and the hash-seed determinism probe."""
    from layers import compare_counts, start_up_times
    from tracer import wrapper_call_cost

    workload.setup(args.seed)
    untraced = closed_loop(workload, 0, args.seconds / 2)
    # The traced pass repeats the last untraced pass's inputs.
    index = untraced[-1].index
    tracer, traced, counts = traced_pass(workload, index)
    call_cost = wrapper_call_cost() if workload.in_process else 0.0
    metrics, absent = count_metrics(workload, tracer, counts, call_cost)
    passes = untraced + [traced]

    count_names = [m["name"] for m in per_layer
                   if m["unit"] == "count" and m["name"] in metrics
                   and m["name"] not in absent]
    if workload.in_process:
        code, out, err = run_child(
            [str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "1",
             "--probe-pass", str(index)], CHILD_LIMIT_S,
            stdout=subprocess.PIPE)
        if code != 0:
            raise RuntimeError(f"probe process exited {code}: {err[-500:]}")
        second = json.loads(out.decode().splitlines()[-1])["counts"]
    else:
        # Every command is a fresh process already: run the pass again.
        second_tracer, second_pass, second_counts = traced_pass(
            workload, index)
        second, _ = count_metrics(workload, second_tracer, second_counts)
        passes.append(second_pass)
    determinism = compare_counts(metrics, second, count_names)

    # Known defects kept out of the timed units: one per pinned failing
    # execution that still fails.
    if hasattr(workload, "known_defects"):
        metrics["spec.frontier_exceeded"] = workload.known_defects()
    else:
        metrics["spec.frontier_exceeded"] = 0
        absent.append("spec.frontier_exceeded")
    interpreter_s, import_s = start_up_times(START_UP_PROBES)
    metrics["cli.interpreter_s"] = interpreter_s
    metrics["cli.import_s"] = import_s
    # Against the median untraced pass: one pass's wall swings too much.
    untraced_s = median(p.wall for p in untraced)
    metrics["trace.overhead_s"] = traced.wall - untraced_s
    metrics["trace.varying_counts"] = sum(
        1 for name in count_names if not determinism[name]["exact"])

    attempted, failures = verdict_tally(passes)
    spans = tracer.self_times(call_cost)
    detail = {
        "absent": sorted(set(absent)),
        "determinism": {
            "hash_seed_env": os.environ.get("PYTHONHASHSEED"),
            "counts": determinism,
        },
        "untraced_pass_s": untraced_s,
        "untraced_passes": len(untraced),
        "traced_pass_s": traced.wall,
        "span_self_s": {name: v[1] for name, v in sorted(spans.items())},
        "span_calls": {name: v[0] for name, v in sorted(spans.items())},
    }
    if workload.in_process:
        covered = sum(v[1] for v in spans.values())
        wrapper_s = call_cost * tracer.child_calls()
        detail["accounting"] = {
            "unit_wall_s": tracer.root_wall(),
            "self_time_sum_s": covered,
            "wrapper_call_cost_s": call_cost,
            "wrapper_s": wrapper_s,
            "unaccounted_s": tracer.root_wall() - covered - wrapper_s,
        }
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload.name}-spans.jsonl.gz")
    return metrics, attempted, failures, detail


def main(argv=None):
    args = parse_args(argv)
    bench_path = ROOT / "BENCHMARK.json"
    if not ensure_importable() or not bench_path.is_file():
        print("perfbench: the program's sources (src/repro) and "
              "BENCHMARK.json must sit next to perfbench/", file=sys.stderr)
        return 2
    # Fill the bytecode cache first, as an installed package or any second
    # run has it; otherwise every import compiles from source, or not,
    # depending on PYTHONDONTWRITEBYTECODE and on earlier runs.
    compileall.compile_dir(SRC / "repro", quiet=1)
    bench = json.loads(bench_path.read_text())
    workload = WORKLOADS[args.workload]()
    if args.probe_pass is not None:
        probe_counts(workload, args)
        return 0
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        metrics, attempted, failures, detail = traced_run(
            workload, args, bench["per_layer"])
    else:
        metrics, attempted, failures, detail = timed_run(workload, args)

    units = {m["name"]: m["unit"] for m in section}
    # One metric key set: exactly the names BENCHMARK.json declares.
    mismatch = sorted(set(units) ^ set(metrics))
    detail["key_mismatch"] = mismatch
    detail["failures"] = failures[:10]
    detail.update(workload=workload.name, seed=args.seed,
                  trace=args.trace)
    result = {
        "correct": not failures and not mismatch,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "time"
    (OUT / f"{workload.name}-{mode}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
