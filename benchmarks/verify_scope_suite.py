"""The deep exhaustive scope suite behind ``make bench-verify``.

Eight registry entries, each explored over two replicas running
four-operation programs — deep enough (≈ 1 700–4 000 distinct
configurations per scope, ~25 000 final checks in total) that the
verification pipeline dominates the measurement, unlike the standard
two-operation programs which finish before process start-up costs
amortize.

The module is deliberately self-contained and restricted to the
verification API that already existed at the PR-1 baseline, so the
benchmark can execute the *same file* against a checked-out baseline
tree (``serial`` mode) and against the current tree (``serial`` and
``parallel`` modes) and compare like with like:

    PYTHONPATH=<tree>/src python benchmarks/verify_scope_suite.py serial
    PYTHONPATH=src python benchmarks/verify_scope_suite.py parallel 4

Each invocation prints one JSON line: wall seconds for the suite plus
every scope's verdict and distinct-configuration count, which the
benchmark asserts are identical across modes and trees.
"""

import json
import sys
import time

#: ``(registry entry name, per-replica programs, max_gossips)`` —
#: ``max_gossips`` is ``None`` for op-based entries.
SCOPES = [
    ("LWW-Element Set",
     {"r1": [("add", ("a",)), ("read", ()), ("remove", ("a",)), ("read", ())],
      "r2": [("add", ("b",)), ("read", ()), ("add", ("a",)), ("read", ())]},
     3),
    ("OR-Set",
     {"r1": [("add", ("a",)), ("read", ()), ("remove", ("a",)), ("read", ())],
      "r2": [("add", ("a",)), ("read", ()), ("add", ("b",)), ("read", ())]},
     None),
    ("PN-Counter",
     {"r1": [("inc", ()), ("read", ()), ("dec", ()), ("read", ())],
      "r2": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]},
     3),
    ("Counter",
     {"r1": [("inc", ()), ("read", ()), ("dec", ()), ("read", ())],
      "r2": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]},
     None),
    ("G-Counter",
     {"r1": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())],
      "r2": [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]},
     3),
    ("G-Set",
     {"r1": [("add", ("a",)), ("read", ()), ("add", ("b",)), ("read", ())],
      "r2": [("add", ("c",)), ("read", ()), ("add", ("a",)), ("read", ())]},
     3),
    ("LWW-Register",
     {"r1": [("write", ("x",)), ("read", ()), ("write", ("y",)), ("read", ())],
      "r2": [("write", ("z",)), ("read", ()), ("write", ("w",)), ("read", ())]},
     None),
    ("Multi-Value Reg.",
     {"r1": [("write", ("x",)), ("read", ()), ("write", ("y",)), ("read", ())],
      "r2": [("write", ("z",)), ("read", ()), ("write", ("w",)), ("read", ())]},
     3),
]


def run_serial():
    """Verify every scope sequentially (PR-1-compatible API only)."""
    from repro.proofs.exhaustive import (
        exhaustive_verify,
        exhaustive_verify_state,
    )
    from repro.proofs.registry import entry_by_name

    results = []
    for name, programs, max_gossips in SCOPES:
        entry = entry_by_name(name)
        if max_gossips is None:
            result = exhaustive_verify(entry, programs)
        else:
            result = exhaustive_verify_state(
                entry, programs, max_gossips=max_gossips
            )
        results.append(result)
    return results


def run_parallel(jobs):
    """Verify every scope through the shared worker pool (current API)."""
    from repro.proofs.steal import verify_scopes_steal
    from repro.proofs.registry import entry_by_name

    scopes = [
        (entry_by_name(name), programs, max_gossips)
        for name, programs, max_gossips in SCOPES
    ]
    merged = verify_scopes_steal(scopes, jobs=jobs)
    return [merged[name] for name, _, _ in SCOPES]


def suite_metrics(results, seconds):
    """Aggregate observability counters for one leg, or ``None``.

    Reads only dataclass attributes via ``getattr`` so the same file
    still runs against the PR-1 baseline tree, whose results carry no
    ``check_stats``.
    """
    checks = verdict_hits = frontier_hits = frontier_misses = 0
    states = 0
    saw_check_stats = False
    for result in results:
        check = getattr(result, "check_stats", None)
        if check is not None:
            saw_check_stats = True
            checks += check.checks
            verdict_hits += check.verdict_hits
            frontier_hits += check.frontier_hits
            frontier_misses += check.frontier_misses
        stats = getattr(result, "stats", None)
        if stats is not None:
            states += stats.states_visited
    configurations = sum(result.configurations for result in results)
    metrics = {
        "states_visited": states,
        "configs_per_sec": round(configurations / seconds, 1)
        if seconds else 0.0,
    }
    if saw_check_stats:
        replays = frontier_hits + frontier_misses
        metrics.update({
            "checks": checks,
            "verdict_hit_ratio": round(verdict_hits / checks, 3)
            if checks else 0.0,
            "frontier_hit_ratio": round(frontier_hits / replays, 3)
            if replays else 0.0,
        })
    return metrics


def main(argv):
    mode = argv[1] if len(argv) > 1 else "serial"
    jobs = int(argv[2]) if len(argv) > 2 else 4
    start = time.perf_counter()
    results = run_parallel(jobs) if mode == "parallel" else run_serial()
    seconds = time.perf_counter() - start
    print(json.dumps({
        "mode": mode,
        "seconds": round(seconds, 3),
        "verdicts": [result.ok for result in results],
        "configurations": [result.configurations for result in results],
        "metrics": suite_metrics(results, seconds),
    }))


if __name__ == "__main__":
    main(sys.argv)
