"""Exhaustive small-scope verification of op-based CRDTs.

Random testing (``verify_entry``) samples executions; this module *covers*
them: for fixed per-replica programs, every interleaving of generators and
causal deliveries is explored (the Sec. 3.3 explorer), and every reachable
quiescent execution is checked —

* its history is RA-linearizable via the entry's EO/TO candidate
  construction, and
* replicas that saw the same operations converged.

Within the chosen scope this is a *proof*: no execution of these programs
violates RA-linearizability.  It is the closest executable analogue of the
paper's per-CRDT Boogie proofs, which quantify over all executions
symbolically.
"""

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.convergence import check_convergence
from ..core.ralin import (
    CheckStats,
    RACheckContext,
    execution_order_check,
    timestamp_order_check,
)
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..runtime.explore_engine import (
    ExploreStats,
    Program,
    explore_op_programs,
    explore_state_programs,
)
from ..runtime.explore_naive import (
    explore_op_programs_naive,
    explore_state_programs_naive,
)
from ..runtime.fp_store import FingerprintStore, FPStoreStats
from ..runtime.state_system import StateBasedSystem
from ..runtime.system import OpBasedSystem
from .registry import CRDTEntry


@dataclass
class ExhaustiveResult:
    """Outcome of an exhaustive small-scope verification."""

    entry_name: str
    configurations: int = 0
    ok: bool = True
    failures: List[str] = field(default_factory=list)
    #: Exploration counters (dedup hits, prunes, wall time, …); None when
    #: the naive baseline engine ran.
    stats: Optional[ExploreStats] = None
    #: Verification-cache counters (verdict memo, frontier trie); None
    #: when caching was disabled (``cache=False``).
    check_stats: Optional[CheckStats] = None
    #: Fingerprint-store counters when digest interning was active
    #: (``--spill`` or the work-stealing path); None otherwise.
    fp_store: Optional[FPStoreStats] = None

    def record(self, message: str) -> None:
        self.ok = False
        if len(self.failures) < 10:
            self.failures.append(message)


def _make_visit(
    entry: CRDTEntry,
    result: ExhaustiveResult,
    cache: bool,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
):
    """The per-configuration verification callback.

    With ``cache=True`` (default) one spec, one γ, one frontier trie and
    one verdict memo are shared across every visited configuration
    (:class:`RACheckContext`); ``cache=False`` reproduces the PR-1
    baseline, rebuilding spec and γ per configuration and replaying from
    scratch — kept for benchmarking and differential testing.

    When instrumentation is enabled the check context runs ``timed``
    (per-condition wall time in ``CheckStats.cond_seconds``), failing
    culprits are counted by method, and — with ``trace_checks`` — every
    configuration's check verdict becomes one trace event.
    """
    ins = instrumentation

    def report(system, outcome) -> None:
        trace = getattr(system, "trace", None)  # state-based keeps no trace
        suffix = (
            f"; trace={[(k, r, repr(l)) for k, r, l in trace]}"
            if trace is not None else ""
        )
        result.record(
            f"non-RA-linearizable interleaving: {outcome.reason}{suffix}"
        )
        if ins.enabled and ins.metrics is not None:
            culprit = getattr(outcome, "culprit", None)
            ins.metrics.counter(
                "check.culprit", entry=entry.name,
                method=culprit.method if culprit is not None else "?",
            ).inc()

    def observe(outcome) -> None:
        if ins.trace_checks:
            ins.event(
                "check", entry=entry.name, ok=outcome.ok,
                reason=None if outcome.ok else outcome.reason,
                condition=getattr(outcome, "condition", None),
            )

    if cache:
        context = RACheckContext(
            entry.make_spec(), entry.make_gamma(), entry.lin_class,
            timed=ins.enabled,
        )
        result.check_stats = context.stats

        def check(system) -> None:
            outcome = context.check(system.history(), system.generation_order)
            observe(outcome)
            if not outcome.ok:
                report(system, outcome)
    else:
        checker = (
            execution_order_check if entry.lin_class == "EO"
            else timestamp_order_check
        )

        def check(system) -> None:
            spec = entry.make_spec()
            gamma = entry.make_gamma()
            outcome = checker(
                system.history(), spec, system.generation_order, gamma
            )
            observe(outcome)
            if not outcome.ok:
                report(system, outcome)

    profile = ins.profile

    def visit(system, returns) -> None:
        if profile is None:
            check(system)
            converged, offenders = check_convergence(system.replica_views())
        else:
            # Spec replay + RA check and the convergence oracle run
            # inside the engine's wall clock, so these two phases tile
            # the same total as the engine-side domain phases.
            start = time.perf_counter()
            check(system)
            mid = time.perf_counter()
            converged, offenders = check_convergence(system.replica_views())
            end = time.perf_counter()
            profile.add("check", mid - start)
            profile.add("convergence", end - mid)
        if not converged:
            result.record(f"divergent replicas {offenders}")

    return visit


def _system_factory(entry: CRDTEntry, programs: Dict[str, Program]):
    """The engine's ``make_system`` for ``entry`` over ``programs``.

    Op-based entries get an :class:`OpBasedSystem`, state-based ones a
    :class:`StateBasedSystem`.
    """
    system_cls = OpBasedSystem if entry.kind == "OB" else StateBasedSystem
    replicas = sorted(programs)

    def make_system():
        return system_cls(entry.make_crdt(), replicas=replicas)

    return make_system


def exhaustive_verify(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    max_configurations: Optional[int] = None,
    engine: str = "fast",
    reduction: Optional[bool] = None,
    symmetry: Optional[bool] = None,
    cache: bool = True,
    jobs: int = 1,
    instrumentation: Optional[Instrumentation] = None,
    spill: Optional[str] = None,
    fp_store: bool = False,
    oversubscribe: bool = False,
    por: str = "sleep",
    heartbeat: Optional[object] = None,
) -> ExhaustiveResult:
    """Check every interleaving of ``programs`` against the entry's class.

    Only op-based entries are supported (the state-based semantics has an
    unbounded message alphabet; its coverage story is the property checks
    of Appendix D instead).

    ``engine`` selects ``"fast"`` (the default: sleep sets + dedup +
    copy-on-write snapshots) or ``"naive"`` (the raw-interleaving
    baseline, for differential testing and benchmarking).  ``reduction``
    overrides the entry's escape hatch (``CRDTEntry.reduction``);
    ``symmetry`` likewise overrides ``CRDTEntry.symmetry`` (replica-orbit
    dedup — with it on, ``configurations`` counts orbits, not raw
    configurations).

    ``cache=False`` disables the shared verification caches (see
    :func:`_make_visit`).  ``jobs > 1`` fans the exploration out over
    the work-stealing pool (:mod:`repro.proofs.steal`), which shares
    ``max_configurations`` as a cross-worker budget so the parallel
    cutoff lands on exactly the serial count.  The pool does not run the
    naive engine.

    ``spill DIR`` interns fingerprints as fixed-width digests behind a
    collision-checked :class:`FingerprintStore` and spills the
    visited/expanded records to a scratch sqlite file under ``DIR`` with
    an LRU in-memory tier — the 4-replica-scope memory valve (see
    ``docs/performance.md``).  ``fp_store=True`` turns on digest
    interning without the disk tier (compact in-memory fingerprints,
    unbounded growth).

    ``instrumentation`` threads the observability handle through the
    whole run (scope span, exploration/cache metrics, the deterministic
    ``verify.*`` counters; the pool records those once, on its merged
    result).

    ``por`` selects the partial-order-reduction flavor: ``"sleep"``
    (classic sleep sets, the differential oracle) or ``"source"``
    (source-DPOR — race-driven source sets over the sleep sets).
    Both visit the same configuration set; source explores fewer
    interleavings to get there.

    ``heartbeat`` threads a
    :class:`~repro.obs.heartbeat.HeartbeatEmitter` into the engine for
    serial ``--progress`` runs (the stealing pool attaches per-worker
    emitters itself); None keeps the hot loop at one attribute check.
    """
    if entry.kind != "OB":
        raise ValueError(
            f"{entry.name} is state-based; exhaustive exploration covers "
            "op-based entries only"
        )
    return _verify_scope(
        entry, programs, None, max_configurations, engine, reduction,
        symmetry, cache, jobs, instrumentation, spill, fp_store,
        oversubscribe, por, heartbeat,
    )


def exhaustive_verify_state(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    engine: str = "fast",
    reduction: Optional[bool] = None,
    symmetry: Optional[bool] = None,
    cache: bool = True,
    jobs: int = 1,
    instrumentation: Optional[Instrumentation] = None,
    spill: Optional[str] = None,
    fp_store: bool = False,
    oversubscribe: bool = False,
    por: str = "sleep",
    heartbeat: Optional[object] = None,
) -> ExhaustiveResult:
    """Bounded exhaustive verification of a state-based entry.

    Explores every interleaving of the programs with up to ``max_gossips``
    gossip steps (see :mod:`repro.runtime.explore_engine`) and checks the
    EO/TO candidate linearization plus convergence on each.  ``engine``,
    ``reduction``, ``symmetry``, ``cache``, ``jobs``, ``spill``, ``por``
    and ``instrumentation`` behave as in :func:`exhaustive_verify`.
    """
    if entry.kind != "SB":
        raise ValueError(f"{entry.name} is op-based; use exhaustive_verify")
    return _verify_scope(
        entry, programs, max_gossips, max_configurations, engine, reduction,
        symmetry, cache, jobs, instrumentation, spill, fp_store,
        oversubscribe, por, heartbeat,
    )


def _verify_scope(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    max_gossips: Optional[int],
    max_configurations: Optional[int],
    engine: str,
    reduction: Optional[bool],
    symmetry: Optional[bool],
    cache: bool,
    jobs: int,
    instrumentation: Optional[Instrumentation],
    spill: Optional[str],
    fp_store: bool,
    oversubscribe: bool,
    por: str,
    heartbeat: Optional[object],
) -> ExhaustiveResult:
    """The body :func:`exhaustive_verify` and
    :func:`exhaustive_verify_state` share once the entry's kind is
    checked (parameters in the latter's order; ``max_gossips`` is None
    for op-based entries): dispatch ``jobs > 1`` to the stealing pool,
    else run one serial scope."""
    if engine not in ("fast", "naive"):
        raise ValueError(f"unknown engine {engine!r}: use 'fast' or 'naive'")
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    if jobs > 1:
        if engine == "naive":
            raise ValueError("jobs > 1 requires the fast engine")
        from .steal import exhaustive_verify_steal

        return exhaustive_verify_steal(
            entry, programs, jobs=jobs, max_gossips=max_gossips,
            reduction=reduction, symmetry=symmetry, cache=cache,
            instrumentation=ins, spill=spill,
            max_configurations=max_configurations,
            oversubscribe=oversubscribe, por=por,
        )
    result = ExhaustiveResult(entry.name)
    visit = _make_visit(entry, result, cache and engine == "fast", ins)
    store: Optional[FingerprintStore] = None
    if (spill is not None or fp_store) and engine == "fast":
        store = FingerprintStore(spill_dir=spill)
    ins.journal_event("scope.start", entry=entry.name, family=entry.kind)
    if heartbeat is not None:
        heartbeat.begin_task(entry.name)
    make_system = _system_factory(entry, programs)
    if entry.kind == "OB":
        gossip: Dict[str, int] = {}
        explore, explore_naive = explore_op_programs, explore_op_programs_naive
    else:
        gossip = {"max_gossips": max_gossips}
        explore = explore_state_programs
        explore_naive = explore_state_programs_naive

    with ins.span("exhaustive.scope", entry=entry.name, kind=entry.kind):
        if engine == "naive":
            result.configurations = explore_naive(
                make_system, programs, visit,
                max_configurations=max_configurations, **gossip,
            )
        else:
            result.stats = ExploreStats()
            result.configurations = explore(
                make_system, programs, visit,
                max_configurations=max_configurations,
                reduction=entry.reduction if reduction is None else reduction,
                symmetry=entry.symmetry if symmetry is None else symmetry,
                stats=result.stats,
                instrumentation=ins,
                fp_store=store,
                por=por,
                heartbeat=heartbeat,
                **gossip,
            )
    _finish_scope(entry, result, store, ins, heartbeat)
    return result


def _finish_scope(
    entry: CRDTEntry,
    result: ExhaustiveResult,
    store: Optional[FingerprintStore],
    ins: Instrumentation,
    heartbeat: Optional[object],
) -> None:
    """Close out a serial scope: final beat, store stats, scope metrics."""
    if heartbeat is not None:
        heartbeat.emit()  # final beat: short scopes get at least one
    if store is not None:
        result.fp_store = store.stats
        if ins.enabled:
            ins.record_fp_store(store.stats, entry=entry.name)
            if store.stats.spilled:
                ins.journal_event(
                    "spill.promote", entry=entry.name,
                    spilled=store.stats.spilled,
                    evictions=store.stats.evictions,
                )
        store.close()
    if ins.enabled:
        if result.check_stats is not None:
            ins.record_check(result.check_stats, entry=entry.name)
        ins.record_result(entry.name, result)
        ins.journal_event(
            "scope.end", entry=entry.name, ok=result.ok,
            configurations=result.configurations,
        )


def standard_programs(entry: CRDTEntry) -> Dict[str, Program]:
    """A conflict-heavy two-replica program pair per data type."""
    name = entry.name
    if name == "G-Counter":
        return {
            "r1": [("inc", ()), ("read", ())],
            "r2": [("inc", ()), ("read", ())],
        }
    if "Counter" in name:
        return {
            "r1": [("inc", ()), ("read", ()), ("dec", ())],
            "r2": [("inc", ()), ("read", ())],
        }
    if "OR-Set" in name or name == "2P-Set (op)":
        if name == "2P-Set (op)":
            return {
                "r1": [("add", ("a",)), ("read", ())],
                "r2": [("add", ("b",)), ("read", ())],
            }
        return {
            "r1": [("add", ("a",)), ("remove", ("a",)), ("read", ())],
            "r2": [("add", ("a",)), ("read", ())],
        }
    if "LWW-Register" in name or name == "Multi-Value Reg.":
        return {
            "r1": [("write", ("a",)), ("read", ())],
            "r2": [("write", ("b",)), ("read", ())],
        }
    if name == "LWW-Element Set":
        return {
            "r1": [("add", ("a",)), ("remove", ("a",)), ("read", ())],
            "r2": [("add", ("a",)), ("read", ())],
        }
    if name == "2P-Set":
        return {
            "r1": [("add", ("a",)), ("read", ())],
            "r2": [("add", ("b",)), ("read", ())],
        }
    if name == "G-Set":
        return {
            "r1": [("add", ("a",)), ("read", ())],
            "r2": [("add", ("b",)), ("read", ())],
        }
    if name == "RGA":
        from ..core.sentinels import ROOT

        return {
            "r1": [("addAfter", (ROOT, "a")), ("read", ())],
            "r2": [("addAfter", (ROOT, "b")), ("read", ())],
        }
    if name == "RGA-addAt":
        return {
            "r1": [("addAt", ("a", 0)), ("read", ())],
            "r2": [("addAt", ("b", 0)), ("read", ())],
        }
    if name == "Wooki":
        from ..core.sentinels import BEGIN, END

        return {
            "r1": [("addBetween", (BEGIN, "a", END)), ("read", ())],
            "r2": [("addBetween", (BEGIN, "b", END)), ("read", ())],
        }
    raise KeyError(f"no standard programs for {name}")
