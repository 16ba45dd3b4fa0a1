"""Process-parallel verification: shared pool helpers and the entry pool.

* **Across registry entries** — :func:`verify_entries_parallel` runs the
  Fig. 12 randomized harness (``verify_entry``) for several catalogue
  entries at once (the ``table --jobs N`` path), one
  :class:`concurrent.futures.ProcessPoolExecutor` task per entry.
* **Within and across exhaustive scopes** — the work-stealing pool of
  :mod:`repro.proofs.steal` (``exhaustive --jobs N``), which uses the
  pool-size, registry and observability helpers defined here.

Worker processes reconstruct their :class:`CRDTEntry` by *name* via
:func:`repro.proofs.registry.entry_by_name` — entry factories are lambdas
and do not pickle — so the parallel paths cover registry entries only.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from ..runtime.schedule import Program
from .exhaustive import standard_programs
from .registry import ALL_ENTRIES, CRDTEntry, entry_by_name
from .report import VerificationResult, verify_entry


def _obs_envelope(ins: Instrumentation) -> Optional[Dict[str, Any]]:
    """What a task carries so the worker can rebuild instrumentation.

    ``submitted`` is wall-clock (``time.time``), the only clock comparable
    across processes — the worker's first act is to observe
    ``now - submitted`` as ``parallel.queue_wait_seconds``.
    """
    if not ins.enabled:
        return None
    return {"trace": ins.trace_checks, "submitted": time.time()}


def _worker_instrumentation(
    obs: Optional[Dict[str, Any]]
) -> Instrumentation:
    """Worker-side handle: fresh and fully enabled, or the shared no-op."""
    if obs is None:
        return NULL_INSTRUMENTATION
    ins = Instrumentation.on(trace_checks=obs.get("trace", False))
    ins.metrics.histogram("parallel.queue_wait_seconds").observe(
        max(0.0, time.time() - obs["submitted"])
    )
    return ins


def default_jobs() -> int:
    """Worker count when ``--jobs`` is given without a value."""
    return os.cpu_count() or 1


def _worker_count(
    jobs: int, tasks: Optional[int], oversubscribe: bool = False
) -> int:
    """Effective pool size: ``jobs``, capped by tasks and physical cores.

    Verification workers are CPU-bound, so running more processes than
    cores never helps — it only adds context-switch and cache-contention
    overhead (measured ~15% on the exhaustive suite).  ``--jobs`` above
    ``os.cpu_count()`` is therefore treated as "use every core";
    ``oversubscribe=True`` lifts the core cap (tests and benches that
    need real multi-process behavior on small machines).  ``tasks`` caps
    the pool when the work cannot grow — idle processes would be pure
    fork overhead — and ``tasks=None`` means no cap (a splitting pool
    manufactures tasks for otherwise-idle workers).  The result is at
    least 1, so callers can treat it as a pool size unconditionally.
    """
    capped = jobs if oversubscribe else min(jobs, os.cpu_count() or jobs)
    if tasks is not None:
        capped = min(capped, tasks)
    return max(1, capped)


def _require_registered(entry: CRDTEntry) -> None:
    try:
        entry_by_name(entry.name)
    except KeyError:
        raise ValueError(
            f"parallel verification reconstructs entries by name in worker "
            f"processes; {entry.name!r} is not in the registry"
        ) from None


def _record_pool(ins: Instrumentation, tasks: int, workers: int) -> None:
    if ins.metrics is not None:
        ins.metrics.counter("parallel.tasks").inc(tasks)
        ins.metrics.gauge("parallel.workers", policy="max").set(workers)


def standard_scopes(
    max_gossips: int = 2,
) -> List[Tuple[CRDTEntry, Dict[str, Program], Optional[int]]]:
    """The standard exhaustive scope suite: every registry entry that has
    standard programs, op-based and state-based alike."""
    scopes = []
    for entry in ALL_ENTRIES:
        try:
            programs = standard_programs(entry)
        except KeyError:
            continue
        scopes.append(
            (entry, programs, max_gossips if entry.kind == "SB" else None)
        )
    return scopes


def _entry_worker(
    task: Tuple[str, int, int, int, Optional[Dict[str, Any]]]
) -> Tuple[VerificationResult, Optional[Dict[str, Any]]]:
    name, executions, operations, base_seed, obs = task
    ins = _worker_instrumentation(obs)
    with ins.span("parallel.entry", entry=name):
        result = verify_entry(entry_by_name(name), executions, operations,
                              base_seed, instrumentation=ins)
    return result, (ins.worker_payload() if obs is not None else None)


def verify_entries_parallel(
    entries: Sequence[CRDTEntry],
    executions: int = 10,
    operations: int = 10,
    jobs: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> List[VerificationResult]:
    """Parallel :func:`repro.proofs.report.verify_entry` over ``entries``.

    Results come back in input order; each worker runs one entry's whole
    randomized batch (seeds are unchanged, so results equal the serial
    harness's).  Worker metrics/trace payloads are absorbed into
    ``instrumentation``; the deterministic ``verify.executions`` /
    ``verify.operations`` counters are left to the caller
    (:meth:`Instrumentation.record_verification` per result), which keeps
    the serial and parallel table paths symmetric.
    """
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    jobs = jobs or default_jobs()
    for entry in entries:
        _require_registered(entry)
    obs = _obs_envelope(ins)
    tasks = [
        (entry.name, executions, operations, 0, obs) for entry in entries
    ]
    workers = _worker_count(jobs, len(tasks))
    _record_pool(ins, len(tasks), workers)
    if workers <= 1:
        outcomes = [_entry_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_entry_worker, tasks))
    results: List[VerificationResult] = []
    for result, payload in outcomes:
        ins.absorb_worker(payload)
        results.append(result)
    return results
