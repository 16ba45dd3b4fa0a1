"""Per-worker heartbeat records for in-flight exploration.

A long ``--jobs N`` campaign is silent between launch and verdict; the
heartbeat layer makes each worker emit a small liveness record every
``interval`` seconds: configurations/sec since the last beat, current
frontier depth, steal-queue length, dedup hit rate, spill-tier size,
and the task the worker is on.

The hot-path contract matches ``NULL_INSTRUMENTATION``: the engine
holds ``heartbeat = None`` and its DFS pays exactly one attribute check
when heartbeats are off.  When on, :meth:`HeartbeatEmitter.tick` is
still cheap — it counts nodes and only probes the clock every
``check_every`` ticks, emitting a record only when the interval has
elapsed.

Records travel through any ``sink(record)`` callable: a bound
``multiprocessing.Queue.put`` from a stealing worker, or
``ProgressMonitor.ingest`` directly in a serial run.  They are **work
artifacts** — rates and wall times vary run to run — and never touch
the deterministic metric totals.
"""

import os
import time
from typing import Any, Callable, Dict, Optional

#: Heartbeat JSONL schema identifier (the ``--heartbeat-log`` layout).
HEARTBEAT_SCHEMA = "repro.heartbeat/1"

#: Default seconds between records.
DEFAULT_INTERVAL = 2.0

#: Ticks between clock probes — keeps per-node cost to a counter
#: increment and a modulo on almost every DFS expansion.
TICK_CHECK = 256


def _ratio(part: float, whole: float) -> Optional[float]:
    return part / whole if whole else None


class HeartbeatEmitter:
    """Periodically summarizes one worker's live engine counters.

    The emitter observes an :class:`ExploreStats` (and optionally a
    :class:`FingerprintStore`) *by reference*: the engine mutates them,
    the emitter reads them when a beat is due.  ``queue_size`` is an
    optional zero-argument callable reporting the worker's local task
    backlog (steal queue); it may return None or raise
    ``NotImplementedError`` (``Queue.qsize`` on macOS) — both render as
    an unknown queue length.
    """

    __slots__ = ("worker", "sink", "interval", "queue_size", "_check",
                 "_stats", "_fp_store", "_task", "_ticks", "_last_beat",
                 "_last_configs")

    def __init__(self, worker: Optional[str] = None,
                 sink: Callable[[Dict[str, Any]], Any] = None,
                 interval: float = DEFAULT_INTERVAL,
                 queue_size: Optional[Callable[[], Optional[int]]] = None,
                 check_every: int = TICK_CHECK) -> None:
        self.worker = worker if worker is not None else f"pid{os.getpid()}"
        self.sink = sink if sink is not None else (lambda record: None)
        self.interval = max(
            float(DEFAULT_INTERVAL if interval is None else interval), 0.01
        )
        self.queue_size = queue_size
        self._check = max(int(check_every), 1)
        self._stats: Any = None
        self._fp_store: Any = None
        self._task: Optional[str] = None
        self._ticks = 0
        self._last_beat = time.perf_counter()
        self._last_configs = 0

    # -- wiring ---------------------------------------------------------

    def watch(self, stats: Any, fp_store: Any = None) -> None:
        """Bind the live counters the next beats should read."""
        self._stats = stats
        self._fp_store = fp_store
        self._last_configs = getattr(stats, "configurations", 0) or 0

    def begin_task(self, task: str, stats: Any = None,
                   fp_store: Any = None) -> None:
        """Note the task the worker is now on (shown on stall)."""
        self._task = task
        if stats is not None:
            self.watch(stats, fp_store)

    # -- the hot path ---------------------------------------------------

    def tick(self, depth: int) -> None:
        """Called per DFS expansion; emits when the interval elapsed."""
        self._ticks += 1
        if self._ticks % self._check:
            return
        now = time.perf_counter()
        if now - self._last_beat < self.interval:
            return
        self.emit(depth=depth, now=now)

    # -- record assembly ------------------------------------------------

    def emit(self, depth: Optional[int] = None,
             now: Optional[float] = None) -> Dict[str, Any]:
        """Build and sink one heartbeat record immediately."""
        if now is None:
            now = time.perf_counter()
        elapsed = max(now - self._last_beat, 1e-9)
        stats = self._stats
        configs = getattr(stats, "configurations", None)
        record: Dict[str, Any] = {
            "wall": time.time(),
            "worker": self.worker,
            "task": self._task,
            "configs": configs,
            "configs_per_sec": (
                (configs - self._last_configs) / elapsed
                if configs is not None else None
            ),
            "frontier": depth,
            "queue": self._queue_len(),
            "dedup_ratio": self._dedup_ratio(stats),
            "spill": self._spill_size(),
        }
        self._last_beat = now
        if configs is not None:
            self._last_configs = configs
        self.sink(record)
        return record

    def _queue_len(self) -> Optional[int]:
        if self.queue_size is None:
            return None
        try:
            return self.queue_size()
        except NotImplementedError:
            return None

    @staticmethod
    def _dedup_ratio(stats: Any) -> Optional[float]:
        if stats is None:
            return None
        visited = getattr(stats, "states_visited", 0) or 0
        deduped = getattr(stats, "states_deduped", 0) or 0
        return _ratio(deduped, visited + deduped)

    def _spill_size(self) -> Optional[int]:
        store = self._fp_store
        if store is None:
            return None
        stats = getattr(store, "stats", None)
        return getattr(stats, "spilled", None) if stats is not None else None


__all__ = [
    "DEFAULT_INTERVAL",
    "HEARTBEAT_SCHEMA",
    "HeartbeatEmitter",
    "TICK_CHECK",
]
