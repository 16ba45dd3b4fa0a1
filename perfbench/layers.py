"""Per-layer metrics: which public functions are wrapped, and the formulas.

In-process workloads (``explore_3r``, ``sample_check``) get their layer
times from spans around wrapped public functions of each repro module
(:func:`patch_layers`) and their counts from the public result objects.
``cli_cold`` runs the system in child processes, so its counts come from
the CLI's own ``--metrics`` artifact (:func:`artifact_counts`); span
times inside those processes are not observable from outside and are
reported as absent.

Every metric named in ``BENCHMARK.json``'s ``per_layer`` list is
emitted on every workload.  A metric that does not apply (a span time on
``cli_cold``, a ratio whose base is zero) is emitted as 0 and named in
the run's ``absent`` list, never dropped.
"""

import importlib
import time
from statistics import median

from workloads import run_child

#: Summable counts; ``peak_frontier`` takes the maximum instead.
COUNT_KEYS = (
    "configurations", "states_visited", "states_deduped", "commute_checks",
    "snapshots", "dpor_races", "dpor_wakeup_fallbacks", "dpor_patch_cuts",
    "dpor_full_expansions", "peak_frontier", "pstate_copied",
    "pstate_shared", "check_calls", "verdict_hits", "frontier_hits",
    "frontier_misses", "failed_checks", "retransmits", "dropped",
    "duplicated", "steal_tasks", "steal_stolen", "steal_pool_s",
    "fp_unique", "fp_hits", "fp_lookups", "compose_objects",
    "compose_side_checks", "compose_s",
)

#: ``--metrics`` artifact instrument name -> count key (summed over
#: label sets; gauges with policy ``max`` take the maximum).
ARTIFACT_INSTRUMENTS = {
    "explore.configurations": "configurations",
    "explore.states_visited": "states_visited",
    "explore.states_deduped": "states_deduped",
    "explore.commute_checks": "commute_checks",
    "explore.snapshots": "snapshots",
    "explore.dpor.races": "dpor_races",
    "explore.dpor.wakeup_fallbacks": "dpor_wakeup_fallbacks",
    "explore.dpor.patch_cuts": "dpor_patch_cuts",
    "explore.dpor.full_expansions": "dpor_full_expansions",
    "explore.peak_frontier": "peak_frontier",
    "explore.pstate.nodes_copied": "pstate_copied",
    "explore.pstate.nodes_shared": "pstate_shared",
    "check.checks": "check_calls",
    "check.verdict_hits": "verdict_hits",
    "check.frontier_hits": "frontier_hits",
    "check.frontier_misses": "frontier_misses",
    "check.failed": "failed_checks",
    "explore.steal.tasks": "steal_tasks",
    "explore.steal.stolen_tasks": "steal_stolen",
    "explore.steal.wall_seconds": "steal_pool_s",
    "explore.fp_store.unique": "fp_unique",
    "explore.fp_store.hits": "fp_hits",
    "explore.fp_store.lookups": "fp_lookups",
    "compose.objects": "compose_objects",
    "compose.side_condition_checks": "compose_side_checks",
}

#: Artifact spans that make up a compositional store verification.
COMPOSE_SPANS = ("exhaustive.scope", "compose.side_condition")

#: Per-layer metrics read from span self times:
#: (call-count metric, self-seconds metric, span name prefix).  The
#: checker's call count comes from its result objects instead.
SPAN_LAYERS = (
    ("symmetry.canonical_calls", "symmetry.canonical_s",
     "symmetry.canonical"),
    ("system.snapshot_calls", "system.snapshot_s", "system.snapshot"),
    ("system.restore_calls", "system.restore_s", "system.restore"),
    ("system.invoke_calls", "system.invoke_s", "system.invoke"),
    ("system.deliver_calls", "system.deliver_s", "system.deliver"),
    ("system.history_calls", "system.history_s", "system.history"),
    (None, "ralin.check_s", "ralin.check"),
    ("convergence.calls", "convergence.s", "convergence."),
    ("commutativity.calls", "commutativity.s", "commutativity."),
    ("refinement.calls", "refinement.s", "refinement."),
    ("statebased.calls", "statebased.s", "statebased."),
    ("faults.calls", "faults.s", "faults."),
)


class CheckTally:
    """What the wrapped ``RACheckContext.check`` saw: contexts and fails."""

    def __init__(self):
        self.contexts = {}
        self.failed = 0

    def __call__(self, args, result):
        context = args[0]
        self.contexts[id(context)] = context
        if not result.ok:
            self.failed += 1

    def counts(self):
        stats = [context.stats for context in self.contexts.values()]
        return {
            "check_calls": sum(s.checks for s in stats),
            "verdict_hits": sum(s.verdict_hits for s in stats),
            "frontier_hits": sum(s.frontier_hits for s in stats),
            "frontier_misses": sum(s.frontier_misses for s in stats),
            "failed_checks": self.failed,
        }


def patch_layers(tracer):
    """Wrap each layer's public functions; returns the checker tally.

    Functions imported by name into a caller module are wrapped where
    the caller looks them up.  ``tracer.restore()`` undoes all of it.
    """
    from repro.core.ralin import RACheckContext
    from repro.runtime.faults import (
        LossyGossipDriver,
        UnreliableCausalBroadcast,
    )
    from repro.runtime.state_system import StateBasedSystem
    from repro.runtime.symmetry import SymmetryReducer
    from repro.runtime.system import OpBasedSystem

    exhaustive = importlib.import_module("repro.proofs.exhaustive")
    report = importlib.import_module("repro.proofs.report")
    chaos = importlib.import_module("repro.proofs.chaos")

    tally = CheckTally()
    tracer.patch(SymmetryReducer, "canonical", "symmetry.canonical")
    for system in (OpBasedSystem, StateBasedSystem):
        for method in ("snapshot", "restore", "invoke", "history"):
            tracer.patch(system, method, f"system.{method}")
    # Delivery: a causal delivery op-based, a received state state-based.
    tracer.patch(OpBasedSystem, "deliver", "system.deliver")
    tracer.patch(StateBasedSystem, "receive", "system.deliver")
    tracer.patch(RACheckContext, "check", "ralin.check", after=tally)
    for module in (exhaustive, report, chaos):
        tracer.patch(module, "check_convergence",
                     "convergence.check_convergence")
    tracer.patch(report, "check_commutativity",
                 "commutativity.check_commutativity")
    tracer.patch(report, "check_refinement", "refinement.check_refinement")
    tracer.patch(report, "check_properties", "statebased.check_properties")
    tracer.patch(report, "check_fold_oracle", "statebased.check_fold_oracle")
    tracer.patch(UnreliableCausalBroadcast, "deliver_one",
                 "faults.deliver_one")
    tracer.patch(UnreliableCausalBroadcast, "run_to_quiescence",
                 "faults.run_to_quiescence")
    tracer.patch(LossyGossipDriver, "gossip_once", "faults.gossip_once")
    tracer.patch(LossyGossipDriver, "run_to_quiescence",
                 "faults.run_to_quiescence")
    return tally


def sum_counts(results):
    """Unit counts summed over a pass (``peak_frontier``: maximum);
    a ``cli_cold`` unit's counts are its ``--metrics`` artifact."""
    total = dict.fromkeys(COUNT_KEYS, 0)
    for result in results:
        counts = result.counts
        if "artifact" in counts:
            counts = artifact_counts(counts["artifact"])
        for key, value in counts.items():
            if key == "peak_frontier":
                total[key] = max(total[key], value)
            elif key in total:
                total[key] += value
    return total


def artifact_counts(artifact):
    """Count keys from one CLI ``--metrics`` artifact."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    for instrument in artifact["metrics"]["instruments"].values():
        key = ARTIFACT_INSTRUMENTS.get(instrument["name"])
        if key is None:
            continue
        if instrument.get("policy") == "max":
            counts[key] = max(counts[key], instrument["value"])
        else:
            counts[key] += instrument["value"]
    if "store" in artifact.get("meta", {}):
        counts["compose_s"] = sum(
            event.get("wall", 0.0) for event in artifact["events"]
            if event["name"] in COMPOSE_SPANS)
    return counts


def _ratio(part, whole, name, absent):
    if not whole:
        absent.append(name)
        return 0.0
    return part / whole


def layer_metrics(counts, spans, span_observable):
    """Per-layer metric values from pass counts and span self times.

    ``spans`` maps span name -> (calls, self seconds); with
    ``span_observable`` false (child processes) the span metrics are
    absent.  Returns (metrics, absent names).
    """
    absent = []
    c = counts
    m = {
        "explore_engine.states_visited": c["states_visited"],
        "explore_engine.states_per_config": _ratio(
            c["states_visited"], c["configurations"],
            "explore_engine.states_per_config", absent),
        "explore_engine.dedup_ratio": _ratio(
            c["states_deduped"], c["states_visited"] + c["states_deduped"],
            "explore_engine.dedup_ratio", absent),
        "explore_engine.commute_checks": c["commute_checks"],
        "explore_engine.snapshots": c["snapshots"],
        "explore_engine.dpor_races": c["dpor_races"],
        "explore_engine.dpor_wakeup_fallbacks": c["dpor_wakeup_fallbacks"],
        "explore_engine.dpor_patch_cuts": c["dpor_patch_cuts"],
        "explore_engine.dpor_full_expansions": c["dpor_full_expansions"],
        "explore_engine.peak_frontier": c["peak_frontier"],
        "pstate.sharing_ratio": _ratio(
            c["pstate_shared"], c["pstate_copied"] + c["pstate_shared"],
            "pstate.sharing_ratio", absent),
        "ralin.check_calls": c["check_calls"],
        "ralin.verdict_hit_ratio": _ratio(
            c["verdict_hits"], c["check_calls"],
            "ralin.verdict_hit_ratio", absent),
        "ralin.frontier_hit_ratio": _ratio(
            c["frontier_hits"], c["frontier_hits"] + c["frontier_misses"],
            "ralin.frontier_hit_ratio", absent),
        "ralin.failed_checks": c["failed_checks"],
        "faults.retransmits": c["retransmits"],
        "faults.dropped": c["dropped"],
        "faults.duplicated": c["duplicated"],
        "steal.tasks": c["steal_tasks"],
        "steal.stolen": c["steal_stolen"],
        "steal.pool_s": c["steal_pool_s"],
        "fp_store.interned": c["fp_unique"],
        "fp_store.hit_ratio": _ratio(
            c["fp_hits"], c["fp_lookups"], "fp_store.hit_ratio", absent),
        "compositional.object_scopes": c["compose_objects"],
        "compositional.side_condition_checks": c["compose_side_checks"],
        "compositional.s": c["compose_s"],
    }
    for calls_name, seconds_name, prefix in SPAN_LAYERS:
        layer = [v for k, v in spans.items() if k.startswith(prefix)]
        for name, value in ((calls_name, sum(v[0] for v in layer)),
                            (seconds_name, sum(v[1] for v in layer))):
            if name is None:
                continue
            m[name] = value
            if not span_observable:
                absent.append(name)
    if not span_observable:
        # Nor could the engine's self time be separated from its callees.
        m["explore_engine.self_us_per_state"] = 0.0
        absent.append("explore_engine.self_us_per_state")
    else:
        # The engine's own time: the scope spans' self time.
        engine_self_s = spans.get("explore_engine.scope", (0, 0.0))[1]
        m["explore_engine.self_us_per_state"] = 1e6 * _ratio(
            engine_self_s, c["states_visited"],
            "explore_engine.self_us_per_state", absent)
    return m, absent


def start_up_times(probes):
    """``cli.interpreter_s`` (bare ``python -c pass``) and ``cli.import_s``
    (``import repro.__main__`` on top of it): medians of fresh runs."""
    def wall(code):
        start = time.perf_counter()
        status, _, err = run_child(["-c", code], 60)
        if status != 0:
            raise RuntimeError(f"start-up probe exited {status}: {err}")
        return time.perf_counter() - start

    bare, with_import = [], []
    for _ in range(probes):
        bare.append(wall("pass"))
        with_import.append(wall("import repro.__main__"))
    interpreter = median(bare)
    return interpreter, median(with_import) - interpreter


def compare_counts(first, second, count_names):
    """Which count metrics repeat exactly across two processes."""
    report = {}
    for name in count_names:
        a, b = first[name], second[name]
        report[name] = ({"exact": True, "value": a} if a == b else
                        {"exact": False, "spread": [min(a, b), max(a, b)]})
    return report
