"""Heartbeat emission and parent-side progress rendering."""

import io
import json

from repro.obs.heartbeat import (
    DEFAULT_INTERVAL,
    HEARTBEAT_SCHEMA,
    HeartbeatEmitter,
)
from repro.obs.progress import ProgressMonitor


class FakeStats:
    def __init__(self, configurations=0, states_visited=0, states_deduped=0):
        self.configurations = configurations
        self.states_visited = states_visited
        self.states_deduped = states_deduped


class FakeStore:
    class stats:
        spilled = 7


class TestEmitter:
    def test_record_shape(self):
        records = []
        emitter = HeartbeatEmitter(worker="w0", sink=records.append,
                                   interval=0.0)
        stats = FakeStats(configurations=10, states_visited=6,
                          states_deduped=2)
        emitter.begin_task("Counter:s:0:1", stats, FakeStore())
        record = emitter.emit(depth=4)
        assert records == [record]
        assert record["worker"] == "w0"
        assert record["task"] == "Counter:s:0:1"
        assert record["configs"] == 10
        assert record["frontier"] == 4
        assert record["dedup_ratio"] == 2 / 8
        assert "pstate_ratio" not in record
        assert record["spill"] == 7
        assert record["configs_per_sec"] is not None

    def test_rate_is_delta_since_last_beat(self):
        emitter = HeartbeatEmitter(worker="w0", interval=0.0)
        stats = FakeStats(configurations=100)
        emitter.watch(stats)
        emitter.emit(now=emitter._last_beat + 1.0)
        stats.configurations = 250
        record = emitter.emit(now=emitter._last_beat + 1.0)
        assert abs(record["configs_per_sec"] - 150.0) < 1e-6

    def test_unwatched_emitter_reports_unknowns(self):
        record = HeartbeatEmitter(worker="w0").emit()
        assert record["configs"] is None
        assert record["configs_per_sec"] is None
        assert record["dedup_ratio"] is None
        assert record["spill"] is None
        assert record["queue"] is None

    def test_interval_clamp_keeps_explicit_zero_fast(self):
        # interval=0.0 must clamp to the 0.01 floor, NOT fall back to
        # the 2s default — `--progress 0` means "render every beat".
        assert HeartbeatEmitter(interval=0.0).interval == 0.01
        assert HeartbeatEmitter(interval=None).interval == DEFAULT_INTERVAL

    def test_queue_size_not_implemented_renders_unknown(self):
        def qsize():
            raise NotImplementedError  # Queue.qsize on macOS
        emitter = HeartbeatEmitter(worker="w0", queue_size=qsize)
        assert emitter.emit()["queue"] is None
        emitter.queue_size = lambda: 3
        assert emitter.emit()["queue"] == 3

    def test_tick_gates_on_counter_then_interval(self):
        records = []
        emitter = HeartbeatEmitter(worker="w0", sink=records.append,
                                   interval=0.0, check_every=4)
        emitter.watch(FakeStats())
        emitter._last_beat -= 1.0  # make the first clock probe due
        for depth in range(1, 4):
            emitter.tick(depth)
        assert records == []  # counter gate: no clock probe yet
        emitter.tick(4)
        assert len(records) == 1  # 4th tick probes, interval has elapsed


class TestProgressMonitor:
    def test_status_line_aggregates_fleet(self):
        monitor = ProgressMonitor(interval=0.0, stream=io.StringIO())
        monitor.feed({"worker": "w0", "configs": 30, "configs_per_sec": 10.0,
                      "frontier": 3, "queue": 1, "dedup_ratio": 0.5,
                      "spill": 2, "task": "a"})
        monitor.feed({"worker": "w1", "configs": 20, "configs_per_sec": 5.0,
                      "frontier": 5, "queue": 2, "dedup_ratio": 0.25,
                      "spill": None, "task": "b"})
        line = monitor.status_line()
        assert line.startswith("[progress] 2w · 50 cfg · 15 cfg/s")
        assert "depth 5" in line
        assert "queue 3" in line
        assert "dedup 38%" in line
        assert "spill 2" in line

    def test_unknown_fields_render_as_question_marks(self):
        monitor = ProgressMonitor(interval=0.0, stream=io.StringIO())
        monitor.feed({"worker": "w0", "configs": None,
                      "configs_per_sec": None, "frontier": None,
                      "queue": None, "dedup_ratio": None, "spill": None})
        line = monitor.status_line()
        assert "? cfg/s" in line and "depth ?" in line and "queue ?" in line

    def test_latest_record_per_worker_wins(self):
        monitor = ProgressMonitor(interval=0.0, stream=io.StringIO())
        monitor.feed({"worker": "w0", "configs": 10})
        monitor.feed({"worker": "w0", "configs": 99})
        assert "99 cfg" in monitor.status_line()

    def test_stall_detection_uses_fake_clock(self):
        now = [0.0]
        stream = io.StringIO()
        monitor = ProgressMonitor(interval=1.0, stream=stream,
                                  stall_factor=3.0, clock=lambda: now[0])
        monitor.feed({"worker": "w0", "task": "Counter:s:0:1", "configs": 1})
        now[0] = 10.0  # silent for 10s > 3 x 1s
        monitor.maybe_render(force=True)
        assert len(monitor.warnings) == 1
        assert "w0 silent for 10s" in monitor.warnings[0]
        assert "Counter:s:0:1" in monitor.warnings[0]
        assert "STALLED 1" in monitor.status_line()
        # A fresh beat un-stalls the worker.
        monitor.feed({"worker": "w0", "configs": 2})
        assert "STALLED" not in monitor.status_line()

    def test_log_writes_schema_header_then_records(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        monitor = ProgressMonitor(interval=0.0, stream=io.StringIO(),
                                  log_path=path)
        monitor.feed({"worker": "w0", "configs": 1})
        monitor.close()
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0] == {"schema": HEARTBEAT_SCHEMA}
        assert lines[1]["worker"] == "w0"

    def test_drain_consumes_queue_without_blocking(self):
        import queue
        q = queue.Queue()
        q.put({"worker": "w0", "configs": 1})
        q.put({"worker": "w1", "configs": 2})
        monitor = ProgressMonitor(interval=0.0, stream=io.StringIO())
        assert monitor.drain(q) == 2
        assert monitor.drain(q) == 0
        assert "2w" in monitor.status_line()

    def test_render_throttled_by_interval(self):
        now = [0.0]
        stream = io.StringIO()
        monitor = ProgressMonitor(interval=5.0, stream=stream,
                                  clock=lambda: now[0])
        now[0] = 6.0
        monitor.ingest({"worker": "w0", "configs": 1})  # due: renders
        monitor.ingest({"worker": "w0", "configs": 2})  # throttled
        assert stream.getvalue().count("[progress]") == 1
        monitor.close()  # force-renders the final state
        assert stream.getvalue().count("[progress]") == 2
