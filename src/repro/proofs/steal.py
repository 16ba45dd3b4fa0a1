"""Work-stealing parallel exhaustive verification — the one parallel
scheduler behind ``jobs > 1``.

* Workers pull ``(root-branch | replayed-path, sleep-set)`` tasks from a
  shared :class:`multiprocessing.Queue`.  The seed tasks are the root
  branches of every scope (orbit-filtered under symmetry, sleep seeds
  preserved; see ``_Engine._run_root_branch`` in
  :mod:`repro.runtime.explore_engine`).
* Under sleep sets, a worker whose DFS notices the pool is hungry — idle
  workers, or a task queue below its pending target — *splits*: an
  unexplored sibling subtree is handed back to the queue as a ``(path
  from root, inherited sleep set)`` task instead of being explored
  locally (see ``_Engine._dfs`` and ``_Engine._run_path``).  Test-apply
  keeps serial semantics: the spawned task carries exactly the sleep
  seeds the serial DFS would have descended with.
* Source-DPOR tasks never split.  Their completeness depends on race
  reversals landing on ancestor frames, and a stolen subtree cannot see
  the victim's frames, so a source run fans out by its root-branch seeds
  only (the root is an ``"ignore"`` frame: every root transition is its
  own seed, so no reversal there is ever needed).
* Each worker keeps one engine *session* per scope (domain, visited and
  expanded records, verdict caches) across all its tasks, so dedup warms
  up like a serial run's; sessions intern fingerprints as fixed-width
  digests through a :class:`~repro.runtime.fp_store.FingerprintStore`
  (optionally disk-spilled), and the deterministic merge unions the
  digest sets.

Determinism: the merged verdicts, distinct-configuration counts, and
deterministic metrics are identical to the serial engine's — stealing
only re-partitions *which worker* explores a subtree, never *whether* it
is explored (workers' visited records are local, so a subtree is at worst
re-explored, never skipped).  ``max_configurations`` becomes a shared
cross-worker budget (:class:`_SharedBudget`) whose three-valued claim
protocol guarantees the merged count stops at exactly the serial cap.

Termination uses an id-accounting protocol rather than queue draining:
every task has an id, every ack names the ids it spawned, and the
coordinator is done when the acked set equals the expected set (seeds
plus all spawned ids) — robust to acks arriving before their parent's
ack registers them.

Worker processes reconstruct their :class:`CRDTEntry` by *name* via
:func:`repro.proofs.registry.entry_by_name` — entry factories are lambdas
and do not pickle — so the pool covers registry entries only.
"""

import io
import multiprocessing as mp
import queue
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.ralin import CheckStats
from ..obs.heartbeat import HeartbeatEmitter
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..obs.progress import ProgressMonitor
from ..runtime.explore_engine import ExploreStats, Program, build_engine
from ..runtime.fp_store import FingerprintStore, FPStoreStats
from ..runtime.symmetry import build_group, rename_transition
from ..runtime.system import DEFAULT_OBJECT
from .exhaustive import (
    ExhaustiveResult,
    _make_visit,
    _system_factory,
    exhaustive_verify,
    exhaustive_verify_state,
)
from .parallel import (
    _obs_envelope,
    _require_registered,
    _worker_count,
    _worker_instrumentation,
    default_jobs,
)
from .registry import CRDTEntry, entry_by_name

#: A worker considers splitting on every Nth eligible DFS node — the
#: tick gate keeps the qsize/idle probes off the per-node hot path.
SPLIT_INTERVAL = 4


@dataclass
class StealStats:
    """Scheduler counters for one work-stealing pool run.

    ``timeline`` holds one ``(task_id, parent_id, scope_index, start,
    end)`` record per executed task and ``spawn_times`` maps a stolen
    task's id to the moment it was offloaded, both on
    ``time.perf_counter`` clocks; with one worker the timeline is a
    faithful serialization of the task DAG, which the bench suite
    replays through a list-scheduling simulator to model multi-worker
    makespan on machines without enough cores to measure it directly.
    """

    workers: int = 0
    seed_tasks: int = 0
    tasks: int = 0
    stolen_tasks: int = 0
    idle_seconds: float = 0.0
    wall_time: float = 0.0
    timeline: List[Tuple] = field(default_factory=list)
    spawn_times: Dict[Tuple, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "seed_tasks": self.seed_tasks,
            "tasks": self.tasks,
            "stolen_tasks": self.stolen_tasks,
            "idle_seconds": self.idle_seconds,
            "wall_time": self.wall_time,
        }


class _SharedBudget:
    """Exact cross-worker ``max_configurations`` cutoff.

    ``claim(fp)`` is three-valued (the engine's ``_report`` contract):

    * ``1`` — ``fp`` is newly claimed and counts against the cap; the
      claiming worker records and checks it.
    * ``0`` — another worker already claimed ``fp``; the caller keeps it
      in its local visited set (the merged union still counts it once)
      but does not re-check it.
    * ``-1`` — the cap was reached before this configuration; it must
      NOT enter any visited set, or the merged union would exceed the
      cap.

    The claimed set is the *merged* visited set by construction, so the
    merged count equals ``min(cap, serial distinct count)`` — exactly
    where the serial engine stops.
    """

    def __init__(self, cap: int, manager) -> None:
        self.cap = cap
        self._claimed = manager.dict()
        self._count = mp.Value("i", 0, lock=False)
        self._flag = mp.Value("b", 0, lock=False)
        self._lock = mp.Lock()

    def claim(self, fp: Any) -> int:
        with self._lock:
            if self._flag.value:
                return -1 if fp not in self._claimed else 0
            if fp in self._claimed:
                return 0
            if self._count.value >= self.cap:
                self._flag.value = 1
                return -1
            self._claimed[fp] = True
            self._count.value += 1
            if self._count.value >= self.cap:
                self._flag.value = 1
            return 1

    def exhausted(self) -> bool:
        # Lock-free flag read: the engine polls this per DFS node, and a
        # stale False only delays the stop by one claim round-trip.
        return bool(self._flag.value)


class _WorkerScheduler:
    """The engine-facing split hook of one worker.

    ``should_split`` fires when the pool looks hungry: an idle worker
    (the shared ``idle`` counter) or a task queue below
    ``pending_target``.  ``offload`` assigns the spawned task an id
    namespaced by this worker (``("w", worker_id, seq)``) so ids are
    unique without coordination, and records it for the parent task's
    ack.
    """

    def __init__(self, worker_id: int, task_q, idle,
                 pending_target: int, split_interval: int) -> None:
        self.worker_id = worker_id
        self.task_q = task_q
        self.idle = idle
        self.pending_target = pending_target
        self.split_interval = max(1, split_interval)
        self.spawn_times: Dict[Tuple, float] = {}
        self.spawned: List[Tuple] = []
        self.current_task: Optional[Tuple] = None
        self.scope_index: Optional[int] = None
        self._seq = 0
        self._tick = 0
        self._qsize_ok = True

    def begin_task(self, task_id: Tuple, scope_index: int) -> None:
        self.current_task = task_id
        self.scope_index = scope_index
        self.spawned = []

    def should_split(self, depth: int) -> bool:
        self._tick += 1
        if self._tick % self.split_interval:
            return False
        if self.idle.value > 0:
            return True
        if self._qsize_ok:
            try:
                return self.task_q.qsize() < self.pending_target
            except NotImplementedError:  # macOS has no sem_getvalue
                self._qsize_ok = False
        return False

    def offload(self, path: Sequence[Tuple], sleep: Any) -> None:
        self._seq += 1
        task_id = ("w", self.worker_id, self._seq)
        self.spawn_times[task_id] = time.perf_counter()
        self.spawned.append(task_id)
        self.task_q.put(
            (task_id, self.current_task, self.scope_index, None,
             tuple(path), frozenset(sleep))
        )


def _take(task_q, idle, stop, idle_box: List[float]):
    """Pull the next task; count the blocking wait as idle time.

    Returns ``None`` on the coordinator's sentinel or when ``stop`` is
    set (error abort).  The shared ``idle`` counter is raised only while
    actually blocked, so busy workers see an accurate hunger signal.
    """
    try:
        return task_q.get_nowait()
    except queue.Empty:
        pass
    started = time.perf_counter()
    with idle.get_lock():
        idle.value += 1
    try:
        while not stop.is_set():
            try:
                return task_q.get(timeout=0.02)
            except queue.Empty:
                continue
        return None
    finally:
        with idle.get_lock():
            idle.value -= 1
        idle_box[0] += time.perf_counter() - started


#: One scope's picklable build spec: ``(entry name, programs,
#: max_gossips, reduction, symmetry, cache, por)``.
_ScopeSpec = Tuple[str, Dict[str, Program], Optional[int], Optional[bool],
                   Optional[bool], bool, str]


def _scope_engine(entry: CRDTEntry, programs: Dict[str, Program],
                  max_gossips: Optional[int], visit, **options):
    """The exploration engine for one scope: the worker sessions' engine
    and the seed planner's root domain are built by this one call."""
    kind = "op" if entry.kind == "OB" else "state"
    return build_engine(kind, _system_factory(entry, programs), programs,
                        visit, max_gossips=max_gossips or 0, **options)


class _Session:
    """One worker's engine session for one scope.

    Created lazily on the first task of the scope and reused for every
    later one: the domain, visited/expanded records, fingerprint store
    and verdict caches all persist, so a worker that ends up with many
    tasks of one scope pays the serial run's cache economics.  Local
    visited records mean a subtree already explored by *another* worker
    may be re-explored here — wasted work, never missed work — which is
    why the merge unions fingerprint sets instead of summing counts.

    Only sleep-set sessions get the split hook: a source-DPOR task runs
    its whole subtree here (see the module docstring).
    """

    def __init__(self, spec: _ScopeSpec, budget, scheduler,
                 spill_dir: Optional[str], use_fp_store: bool,
                 ins: Instrumentation,
                 heartbeat: Optional[HeartbeatEmitter] = None) -> None:
        name, programs, max_gossips, reduction, symmetry, cache, por = spec
        entry = entry_by_name(name)
        self.entry = entry
        self.result = ExhaustiveResult(name)
        self.stats = ExploreStats()
        self.result.stats = self.stats
        visit = _make_visit(entry, self.result, cache, ins)
        self.store: Optional[FingerprintStore] = (
            FingerprintStore(spill_dir=spill_dir) if use_fp_store else None
        )
        self.kind = "op" if entry.kind == "OB" else "state"
        self.engine = _scope_engine(
            entry, programs, max_gossips, visit,
            reduction=entry.reduction if reduction is None else reduction,
            symmetry=entry.symmetry if symmetry is None else symmetry,
            stats=self.stats,
            fp_store=self.store,
            scheduler=scheduler if por == "sleep" else None,
            budget=budget,
            por=por,
            profile=ins.profile,
            journal=ins.journal,
            heartbeat=heartbeat,
        )

    def run(self, branch: Optional[int], path: Optional[Tuple],
            sleep: Any) -> None:
        self.engine.run(root_branch=branch, path=path,
                        sleep=frozenset(sleep) if sleep else frozenset())

    def harvest(self, scope_index: int, ins: Instrumentation):
        """Close out the session: ``(scope_index, result, fingerprints)``."""
        fps = set(self.engine._visited_fps)
        if self.store is not None:
            self.result.fp_store = self.store.stats
            if ins.enabled:
                ins.record_fp_store(self.store.stats, entry=self.entry.name)
                if self.store.stats.spilled:
                    ins.journal_event(
                        "spill.promote", entry=self.entry.name,
                        spilled=self.store.stats.spilled,
                        evictions=self.store.stats.evictions,
                    )
            self.store.close()
        if ins.enabled:
            ins.record_explore(self.stats, kind=self.kind)
            if self.result.check_stats is not None:
                ins.record_check(self.result.check_stats,
                                 entry=self.entry.name)
        return scope_index, self.result, fps


def _steal_worker_main(worker_id: int, scope_table: List[_ScopeSpec],
                       task_q, ack_q, idle, stop, budget,
                       obs: Optional[Dict[str, Any]],
                       spill_dir: Optional[str], use_fp_store: bool,
                       pending_target: int, split_interval: int,
                       hb_q=None, hb_interval: Optional[float] = None) -> None:
    """One worker process: pull, explore (splitting when hungry), ack.

    Exits on the coordinator's ``None`` sentinel (normal) or the
    ``stop`` event (abort); a crash ships an ``("err", ...)`` record so
    the coordinator can fail loudly instead of hanging.  With ``hb_q``
    the worker owns a :class:`HeartbeatEmitter` whose records travel to
    the coordinator's :class:`ProgressMonitor` through that queue.
    """
    ins = _worker_instrumentation(obs)
    scheduler = _WorkerScheduler(worker_id, task_q, idle,
                                 pending_target, split_interval)
    emitter: Optional[HeartbeatEmitter] = None
    if hb_q is not None:
        emitter = HeartbeatEmitter(
            worker=f"w{worker_id}", sink=hb_q.put, interval=hb_interval,
            queue_size=task_q.qsize,
        )
    sessions: Dict[int, _Session] = {}
    idle_box = [0.0]
    timeline: List[Tuple] = []
    try:
        while True:
            task = _take(task_q, idle, stop, idle_box)
            if task is None:
                break
            task_id, parent_id, scope_index, branch, path, sleep = task
            session = sessions.get(scope_index)
            if session is None:
                session = _Session(scope_table[scope_index], budget,
                                   scheduler, spill_dir, use_fp_store, ins,
                                   heartbeat=emitter)
                sessions[scope_index] = session
            scheduler.begin_task(task_id, scope_index)
            scope_name = scope_table[scope_index][0]
            if emitter is not None:
                emitter.begin_task(
                    f"{scope_name}:{':'.join(map(str, task_id))}",
                    session.stats, session.store,
                )
            ins.journal_event(
                "steal.claim", worker=worker_id, entry=scope_name,
                task=":".join(map(str, task_id)),
                stolen=task_id[0] == "w",
            )
            started = time.perf_counter()
            if budget is None or not budget.exhausted():
                with ins.span("steal.task", worker=worker_id,
                              scope=scope_index):
                    session.run(branch, path, sleep)
            timeline.append(
                (task_id, parent_id, scope_index, started,
                 time.perf_counter())
            )
            ack_q.put(("ack", task_id, list(scheduler.spawned)))
        if emitter is not None:
            emitter.emit()  # final beat: every worker reports at least once
        results = [
            sessions[index].harvest(index, ins)
            for index in sorted(sessions)
        ]
        payload = ins.worker_payload() if obs is not None else None
        ack_q.put(("done", worker_id, results, idle_box[0], timeline,
                   dict(scheduler.spawn_times), payload))
    except BaseException as exc:  # ship the failure; never hang the pool
        ack_q.put(("err", worker_id, f"{type(exc).__name__}: {exc}",
                   traceback.format_exc()))


def _symmetric_root_reps(
    entry: CRDTEntry,
    transitions: List[Tuple],
    programs: Dict[str, Program],
) -> List[int]:
    """Indices of one root branch per replica-permutation orbit.

    Two root transitions in the same orbit start subtrees whose
    configurations are replica-renamings of each other; with orbit dedup
    active inside every worker, seeding both would do the second
    subtree's work only to merge it away.  The kept representative is
    always the orbit's *first* branch, so its sleep-set seeds (the earlier
    branches) are preserved exactly as the serial engine builds them.
    """
    extra = (DEFAULT_OBJECT,) if entry.kind == "OB" else ()
    group = build_group(programs, extra_names=extra)
    if not group.enabled:
        return list(range(len(transitions)))
    seen_orbits = set()
    kept = []
    for index, transition in enumerate(transitions):
        orbit = min(
            rename_transition(transition, mapping) for mapping in group.maps
        )
        if orbit not in seen_orbits:
            seen_orbits.add(orbit)
            kept.append(index)
    return kept


def _seed_tasks(
    scopes: Sequence[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]],
    reduction: Optional[bool],
    symmetry: Optional[bool],
    cache: bool,
    por: str = "sleep",
) -> Tuple[List[_ScopeSpec], List[Tuple]]:
    """Root-branch seeds (orbit-filtered) plus the scope table."""
    scope_table: List[_ScopeSpec] = []
    seeds: List[Tuple] = []
    for scope_index, (entry, programs, max_gossips) in enumerate(scopes):
        _require_registered(entry)
        gossips = max_gossips if entry.kind == "SB" else None
        scope_table.append(
            (entry.name, programs, gossips, reduction, symmetry, cache, por)
        )
        # A seed's branch index must name the same transition in every
        # worker's domain, so read the root's out-edges from one.
        transitions = _scope_engine(
            entry, programs, gossips, lambda system, returns: None
        ).domain.transitions()
        branches = list(range(max(1, len(transitions))))
        if (entry.symmetry if symmetry is None else symmetry) and transitions:
            branches = _symmetric_root_reps(entry, transitions, programs)
        for branch in branches:
            seeds.append(
                (("s", scope_index, branch), None, scope_index, branch,
                 None, frozenset())
            )
    return scope_table, seeds


def _merge_branches(
    entry_name: str, outcomes: Iterable[Tuple[int, ExhaustiveResult, set]]
) -> ExhaustiveResult:
    """Fold one scope's per-worker session results into one result.

    Deterministic: sessions are combined in worker order, the
    distinct-configuration count is the size of the union of the
    workers' fingerprint sets (a configuration reachable in two subtrees
    counts once, exactly as serial deduplication would), additive
    exploration counters are summed and wall times are ``max``-ed
    (workers run concurrently).
    """
    merged = ExhaustiveResult(entry_name)
    merged.stats = ExploreStats()
    check_stats = CheckStats()
    saw_check_stats = False
    fingerprints: set = set()
    for _, result, branch_fps in sorted(outcomes, key=lambda item: item[0]):
        fingerprints |= branch_fps
        if not result.ok:
            merged.ok = False
        for failure in result.failures:
            if len(merged.failures) < 10:
                merged.failures.append(failure)
        stats = result.stats
        if stats is not None:
            merged.stats.states_visited += stats.states_visited
            merged.stats.states_deduped += stats.states_deduped
            merged.stats.branches_pruned += stats.branches_pruned
            merged.stats.commute_checks += stats.commute_checks
            merged.stats.snapshots += stats.snapshots
            merged.stats.deepcopies += stats.deepcopies
            merged.stats.peak_frontier = max(
                merged.stats.peak_frontier, stats.peak_frontier
            )
            merged.stats.wall_time = max(
                merged.stats.wall_time, stats.wall_time
            )
            merged.stats.capped |= stats.capped
            merged.stats.symmetry_group = max(
                merged.stats.symmetry_group, stats.symmetry_group
            )
            merged.stats.pinned_replicas = max(
                merged.stats.pinned_replicas, stats.pinned_replicas
            )
            merged.stats.state_fp_cache_peak = max(
                merged.stats.state_fp_cache_peak, stats.state_fp_cache_peak
            )
            merged.stats.steal_splits += stats.steal_splits
            merged.stats.steal_spawned += stats.steal_spawned
            merged.stats.dpor_races += stats.dpor_races
            merged.stats.dpor_redundant_avoided += (
                stats.dpor_redundant_avoided
            )
            merged.stats.dpor_full_expansions += stats.dpor_full_expansions
        if result.fp_store is not None:
            if merged.fp_store is None:
                merged.fp_store = FPStoreStats()
            merged.fp_store.merge(result.fp_store)
        if result.check_stats is not None:
            saw_check_stats = True
            check_stats.checks += result.check_stats.checks
            check_stats.verdict_hits += result.check_stats.verdict_hits
            check_stats.unkeyed += result.check_stats.unkeyed
            check_stats.frontier_hits += result.check_stats.frontier_hits
            check_stats.frontier_misses += result.check_stats.frontier_misses
            check_stats.frontier_unattached += (
                result.check_stats.frontier_unattached
            )
            check_stats.frontier_nodes = max(
                check_stats.frontier_nodes, result.check_stats.frontier_nodes
            )
            for cond, seconds in result.check_stats.cond_seconds.items():
                check_stats.cond_seconds[cond] = (
                    check_stats.cond_seconds.get(cond, 0.0) + seconds
                )
            for cond, count in result.check_stats.failed_conditions.items():
                check_stats.failed_conditions[cond] = (
                    check_stats.failed_conditions.get(cond, 0) + count
                )
    merged.configurations = len(fingerprints)
    merged.stats.configurations = merged.configurations
    if saw_check_stats:
        merged.check_stats = check_stats
    return merged


def _verify_scopes_inline(
    scopes: Sequence[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]],
    reduction: Optional[bool],
    symmetry: Optional[bool],
    cache: bool,
    max_configurations: Optional[int],
    spill: Optional[str],
    ins: Instrumentation,
    por: str = "sleep",
    heartbeat: Optional[HeartbeatEmitter] = None,
) -> Dict[str, ExhaustiveResult]:
    """Serial fallback when the effective pool is one worker.

    Spawning a single worker process would pay fork + pickle + queue
    costs to run exactly the serial algorithm, so don't: run it here.
    The serial engine *is* the semantics the pool must reproduce, which
    makes this fallback trivially exact.
    """
    merged: Dict[str, ExhaustiveResult] = {}
    for entry, programs, max_gossips in scopes:
        if entry.kind == "OB":
            result = exhaustive_verify(
                entry, programs, max_configurations=max_configurations,
                reduction=reduction, symmetry=symmetry, cache=cache,
                spill=spill, instrumentation=ins, por=por,
                heartbeat=heartbeat,
            )
        else:
            result = exhaustive_verify_state(
                entry, programs, max_gossips=max_gossips or 0,
                max_configurations=max_configurations,
                reduction=reduction, symmetry=symmetry, cache=cache,
                spill=spill, instrumentation=ins, por=por,
                heartbeat=heartbeat,
            )
        merged[entry.name] = result
    return merged


def verify_scopes_steal(
    scopes: Sequence[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]],
    jobs: Optional[int] = None,
    reduction: Optional[bool] = None,
    symmetry: Optional[bool] = None,
    cache: bool = True,
    max_configurations: Optional[int] = None,
    spill: Optional[str] = None,
    fp_store: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    oversubscribe: bool = False,
    pending_target: Optional[int] = None,
    split_interval: int = SPLIT_INTERVAL,
    stats_sink: Optional[Dict[str, Any]] = None,
    force_pool: bool = False,
    por: str = "sleep",
    progress: Optional[float] = None,
    progress_stream: Optional[Any] = None,
    heartbeat_log: Optional[str] = None,
) -> Dict[str, ExhaustiveResult]:
    """Run many exhaustive scopes through one work-stealing pool.

    ``scopes`` is a sequence of ``(entry, programs, max_gossips)`` triples
    (``max_gossips`` ignored for op-based entries).  Returns
    ``{entry.name: merged result}`` in input order, with verdicts and
    distinct-configuration counts identical to serial.

    * The pool has ``jobs`` workers, capped by cores (see
      :func:`repro.proofs.parallel._worker_count`).  Under ``por="sleep"``
      tasks split, so the seed count does not cap the pool; source-DPOR
      tasks never split, so there it is capped by the seed count.  An
      effective pool of one worker runs the serial algorithm inline.
    * ``max_configurations`` is honored exactly via the shared budget.
    * ``spill`` puts every worker's visited/expanded records behind a
      disk-spilling fingerprint store; ``fp_store=False`` turns digest
      interning off entirely (raw-fingerprint sets).
    * ``oversubscribe`` lifts the physical-core cap on the pool size.
    * ``stats_sink``, when a dict, receives the pool's
      :class:`StealStats` under ``"steal"`` (the bench harness reads the
      task timeline from it).
    * ``force_pool`` runs the queue/worker machinery even when the
      effective pool is one worker — the bench harness uses a
      single-worker forced-split run as a contention-free serialization
      of the task DAG (accurate per-task durations and spawn times),
      which it replays through a list-scheduling simulator to model
      multi-worker makespan on machines without enough cores to measure
      it directly.
    * ``progress`` (seconds) turns on live heartbeat rendering: workers
      emit :mod:`repro.obs.heartbeat` records through a side queue and
      the coordinator's :class:`ProgressMonitor` renders the fleet
      status line to ``progress_stream`` (stderr by default).
      ``heartbeat_log`` appends every record to a JSONL artifact, with
      or without rendering.  Both are presentation only — no effect on
      results or deterministic metrics.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    scope_table, seeds = _seed_tasks(scopes, reduction, symmetry, cache, por)
    workers = _worker_count(
        jobs or default_jobs(), None if por == "sleep" else len(seeds),
        oversubscribe,
    )
    order: List[str] = []
    for entry, _, _ in scopes:
        if entry.name not in order:
            order.append(entry.name)
    observe = progress is not None or heartbeat_log is not None
    if (workers <= 1 and not force_pool) or not seeds:
        monitor = emitter = None
        if observe:
            monitor = ProgressMonitor(
                interval=progress,
                stream=(progress_stream if progress is not None
                        else io.StringIO()),
                log_path=heartbeat_log,
            )
            emitter = HeartbeatEmitter(worker="w0", sink=monitor.ingest,
                                       interval=progress)
        try:
            merged = _verify_scopes_inline(
                scopes, reduction, symmetry, cache, max_configurations,
                spill, ins, por, heartbeat=emitter,
            )
        finally:
            if monitor is not None:
                monitor.close()
        if stats_sink is not None:
            stats_sink["steal"] = StealStats(
                workers=1, seed_tasks=len(seeds), tasks=len(seeds),
            )
        return merged

    use_fp_store = fp_store or spill is not None
    manager = mp.Manager() if max_configurations is not None else None
    budget = (
        _SharedBudget(max_configurations, manager)
        if manager is not None else None
    )
    task_q: Any = mp.Queue()
    ack_q: Any = mp.Queue()
    idle = mp.Value("i", 0)
    stop = mp.Event()
    obs = _obs_envelope(ins)
    target = pending_target if pending_target is not None else 2 * workers
    hb_q: Any = mp.Queue() if observe else None
    monitor = (
        ProgressMonitor(
            interval=progress,
            stream=(progress_stream if progress is not None
                    else io.StringIO()),
            log_path=heartbeat_log,
        )
        if observe else None
    )
    started = time.perf_counter()
    for name in order:
        ins.journal_event("scope.start", entry=name, workers=workers)
    for seed in seeds:
        task_q.put(seed)
    procs = [
        mp.Process(
            target=_steal_worker_main,
            args=(worker_id, scope_table, task_q, ack_q, idle, stop,
                  budget, obs, spill, use_fp_store, target, split_interval,
                  hb_q, progress),
            daemon=True,
        )
        for worker_id in range(workers)
    ]
    for proc in procs:
        proc.start()

    expected = {seed[0] for seed in seeds}
    acked: set = set()
    errors: List[str] = []
    dones: List[Tuple] = []
    done_workers: set = set()
    sent_sentinels = False
    try:
        while len(dones) < len(procs) and not errors:
            if not sent_sentinels and expected == acked:
                for _ in procs:
                    task_q.put(None)
                sent_sentinels = True
            if monitor is not None:
                monitor.drain(hb_q)
                monitor.maybe_render()
            try:
                message = ack_q.get(timeout=1.0)
            except queue.Empty:
                for worker_id, proc in enumerate(procs):
                    if not proc.is_alive() and worker_id not in done_workers:
                        errors.append(
                            f"worker {worker_id} died "
                            f"(exit code {proc.exitcode})"
                        )
                continue
            kind = message[0]
            if kind == "ack":
                _, task_id, spawned = message
                acked.add(task_id)
                expected.update(spawned)
            elif kind == "done":
                dones.append(message)
                done_workers.add(message[1])
            else:  # ("err", worker_id, summary, traceback)
                errors.append(f"worker {message[1]}: {message[2]}\n"
                              f"{message[3]}")
    finally:
        stop.set()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
        if monitor is not None:
            monitor.drain(hb_q)
            monitor.close()
            hb_q.close()
        task_q.close()
        ack_q.close()
        if manager is not None:
            manager.shutdown()
    if errors:
        raise RuntimeError(
            "work-stealing exploration failed: " + "; ".join(errors)
        )

    steal_stats = StealStats(
        workers=workers,
        seed_tasks=len(seeds),
        tasks=len(acked),
        stolen_tasks=sum(1 for task_id in acked if task_id[0] == "w"),
        wall_time=time.perf_counter() - started,
    )
    outcomes: Dict[str, List[Tuple[int, ExhaustiveResult, set]]] = {}
    for _, worker_id, results, idle_seconds, timeline, spawns, payload \
            in dones:
        ins.absorb_worker(payload)
        steal_stats.idle_seconds += idle_seconds
        steal_stats.timeline.extend(timeline)
        steal_stats.spawn_times.update(spawns)
        for scope_index, result, fps in results:
            name = scope_table[scope_index][0]
            outcomes.setdefault(name, []).append((worker_id, result, fps))
    with ins.span("steal.merge", scopes=len(order),
                  tasks=steal_stats.tasks):
        merged = {
            name: _merge_branches(name, outcomes.get(name, []))
            for name in order
        }
    if ins.enabled:
        ins.record_steal(steal_stats)
        for name, result in merged.items():
            ins.record_result(name, result)
            ins.journal_event("scope.end", entry=name, ok=result.ok,
                              configurations=result.configurations)
    if stats_sink is not None:
        stats_sink["steal"] = steal_stats
    return merged


def exhaustive_verify_steal(
    entry: CRDTEntry,
    programs: Dict[str, Program],
    jobs: Optional[int] = None,
    max_gossips: int = 3,
    reduction: Optional[bool] = None,
    symmetry: Optional[bool] = None,
    cache: bool = True,
    max_configurations: Optional[int] = None,
    spill: Optional[str] = None,
    fp_store: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    oversubscribe: bool = False,
    pending_target: Optional[int] = None,
    split_interval: int = SPLIT_INTERVAL,
    stats_sink: Optional[Dict[str, Any]] = None,
    force_pool: bool = False,
    por: str = "sleep",
    progress: Optional[float] = None,
    progress_stream: Optional[Any] = None,
    heartbeat_log: Optional[str] = None,
) -> ExhaustiveResult:
    """Work-stealing exhaustive verification of one registry entry."""
    gossips = max_gossips if entry.kind == "SB" else None
    merged = verify_scopes_steal(
        [(entry, programs, gossips)], jobs=jobs, reduction=reduction,
        symmetry=symmetry, cache=cache,
        max_configurations=max_configurations, spill=spill,
        fp_store=fp_store, instrumentation=instrumentation,
        oversubscribe=oversubscribe, pending_target=pending_target,
        split_interval=split_interval, stats_sink=stats_sink,
        force_pool=force_pool, por=por, progress=progress,
        progress_stream=progress_stream, heartbeat_log=heartbeat_log,
    )
    return merged[entry.name]
