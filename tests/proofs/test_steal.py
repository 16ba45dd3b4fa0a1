"""Work-stealing pool vs serial: the exactness contract.

Stealing re-partitions *which worker* explores a subtree, never
*whether* it is explored, so every run — natural splitting, forced
splitting, symmetric scopes, shared budgets, spill tiers — must return
the serial verdict and the serial distinct-configuration count.  The
1-core fallback makes jobs>1 degenerate to the serial engine on small
machines, so these tests force real worker processes with
``oversubscribe=True`` and force splitting with a huge pending target.
Only sleep-set tasks split; source-DPOR tasks run whole root-branch
seeds, so forced splitting must leave a source run unsplit and exact.
"""

import os

import pytest

from repro.obs import Instrumentation, deterministic_totals
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import standard_scopes
from repro.proofs.registry import entry_by_name
from repro.proofs.steal import (
    StealStats,
    exhaustive_verify_steal,
    verify_scopes_steal,
)

#: Force real worker processes and aggressive splitting: a pending
#: target no real queue reaches makes every eligible DFS node split.
FORCE = dict(oversubscribe=True, pending_target=10**6, split_interval=1)

SYM_PROGRAMS = {
    "r1": [("inc", ()), ("read", ())],
    "r2": [("inc", ()), ("read", ())],
}

PORS = ("sleep", "source")

#: Every op-based standard scope, by entry name.
OP_NAMES = [entry.name for entry, _, _ in standard_scopes()
            if entry.kind == "OB"]


def _serial(entry, programs, max_gossips):
    if entry.kind == "OB":
        return exhaustive_verify(entry, programs)
    return exhaustive_verify_state(entry, programs, max_gossips=max_gossips)


class TestStealMatchesSerial:
    def test_all_scopes_one_pool(self):
        # The acceptance criterion: every registry entry through one
        # work-stealing pool returns the serial verdict and the serial
        # distinct-configuration count.
        scopes = standard_scopes()
        assert scopes
        sink = {}
        merged = verify_scopes_steal(
            scopes, jobs=3, oversubscribe=True, split_interval=2,
            stats_sink=sink,
        )
        assert list(merged) == [entry.name for entry, _, _ in scopes]
        assert sink["steal"].workers == 3
        for entry, programs, max_gossips in scopes:
            serial = _serial(entry, programs, max_gossips)
            assert merged[entry.name].ok == serial.ok, entry.name
            assert merged[entry.name].configurations \
                == serial.configurations, entry.name

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", OP_NAMES)
    @pytest.mark.parametrize("por", PORS)
    def test_forced_splitting_op_based(self, por, name, jobs):
        # jobs=1 is a one-worker forced pool: the whole task DAG runs in
        # one session, so any configuration a split loses stays lost.
        entry = entry_by_name(name)
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs, por=por)
        sink = {}
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=jobs, force_pool=True, stats_sink=sink,
            por=por, **FORCE
        )
        stats = sink["steal"]
        assert stats.tasks == stats.seed_tasks + stats.stolen_tasks
        assert len(stats.timeline) == stats.tasks
        assert set(stats.spawn_times) \
            == {t for t in (r[0] for r in stats.timeline) if t[0] == "w"}
        assert stolen.ok == serial.ok
        assert stolen.configurations == serial.configurations
        if por == "sleep":
            assert stats.stolen_tasks > 0  # splitting actually happened
            assert stolen.stats.steal_spawned > 0
        else:
            assert stats.stolen_tasks == 0  # source tasks never split
            assert stolen.stats.steal_spawned == 0

    def test_forced_splitting_state_based(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(entry, programs, max_gossips=2)
        sink = {}
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_gossips=2, stats_sink=sink, **FORCE
        )
        assert sink["steal"].stolen_tasks > 0
        assert stolen.ok == serial.ok
        assert stolen.configurations == serial.configurations

    @pytest.mark.parametrize("name", OP_NAMES)
    @pytest.mark.parametrize("por", PORS)
    def test_symmetry_on_and_off(self, por, name):
        # Both replicas run the standard r1 program, so the scope is
        # symmetric wherever the entry allows orbit dedup.
        entry = entry_by_name(name)
        program = standard_programs(entry)["r1"]
        programs = {"r1": program, "r2": program}
        on = exhaustive_verify(entry, programs, por=por)
        off = exhaustive_verify(entry, programs, symmetry=False, por=por)
        if entry.symmetry:
            assert on.configurations < off.configurations
        else:
            assert on.configurations == off.configurations
        for symmetry, serial in ((None, on), (False, off)):
            sink = {}
            stolen = exhaustive_verify_steal(
                entry, programs, jobs=2, symmetry=symmetry, por=por,
                stats_sink=sink, **FORCE
            )
            assert stolen.ok == serial.ok
            assert stolen.configurations == serial.configurations
            if por == "sleep":
                assert sink["steal"].stolen_tasks > 0
            else:
                assert sink["steal"].stolen_tasks == 0

    @pytest.mark.parametrize("por", PORS)
    def test_unsorted_replica_order(self, por):
        # Seeds name root branches by index into the domain's
        # transitions, which walk ``programs`` in its own order; a pinned
        # replica listed first must not shift the orbit filter's picks
        # (sorted seeds lost 51 of 183 configurations here).
        entry = entry_by_name("Counter")
        program = [("inc", ()), ("read", ())]
        programs = {"r3": [("read", ())], "r1": program, "r2": program}
        serial = exhaustive_verify(entry, programs, por=por)
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, por=por, **FORCE
        )
        assert stolen.ok == serial.ok
        assert stolen.configurations == serial.configurations

    @pytest.mark.parametrize("por", PORS)
    def test_unsorted_replica_order_gossip(self, por):
        # The state-based root also offers every ordered gossip pair;
        # seed indices must name the same gossip edge in every worker.
        entry = entry_by_name("G-Counter")
        program = [("inc", ()), ("read", ())]
        programs = {"r3": [("read", ())], "r1": program, "r2": program}
        serial = exhaustive_verify_state(entry, programs, max_gossips=1,
                                         por=por)
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_gossips=1, por=por, **FORCE
        )
        assert stolen.ok == serial.ok
        assert stolen.configurations == serial.configurations

    def test_raw_fingerprints_without_store(self):
        # fp_store=False falls back to raw-fingerprint sets (the static
        # path's representation); the merge must still be exact.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, fp_store=False, **FORCE
        )
        assert stolen.configurations == serial.configurations
        assert stolen.fp_store is None

    def test_spill_tier(self, tmp_path):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, spill=str(tmp_path), **FORCE
        )
        assert stolen.configurations == serial.configurations
        assert stolen.fp_store is not None
        assert stolen.fp_store.lookups > 0
        assert not list(tmp_path.iterdir())  # scratch files cleaned up


class TestSharedBudget:
    """``max_configurations`` is a cross-worker budget: parallel and
    serial stop at exactly the same count, stolen tasks included."""

    @pytest.mark.parametrize("cap", [1, 3, 7, 10**6])
    def test_exact_cutoff_op_based(self, cap):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(
            entry, programs, max_configurations=cap
        )
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_configurations=cap, **FORCE
        )
        assert stolen.configurations == serial.configurations
        assert stolen.stats.capped == serial.stats.capped

    def test_exact_cutoff_state_based(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(
            entry, programs, max_gossips=2, max_configurations=5
        )
        stolen = exhaustive_verify_steal(
            entry, programs, jobs=2, max_gossips=2, max_configurations=5,
            **FORCE
        )
        assert stolen.configurations == serial.configurations == 5
        assert stolen.stats.capped

    def test_cutoff_through_parallel_front_door(self):
        # The satellite: exhaustive_verify with jobs>1 and a budget used
        # to be rejected; the stealing path honors it exactly.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs, max_configurations=9)
        parallel = exhaustive_verify(
            entry, programs, jobs=2, max_configurations=9, oversubscribe=True
        )
        assert parallel.configurations == serial.configurations == 9


class TestPoolMechanics:
    def test_steal_workers_clamp(self, monkeypatch):
        # The pool size: seeds do not cap a splitting (sleep) pool, but
        # they cap a source pool, whose tasks never split — a one-seed
        # source scope runs inline however many jobs are asked for.
        def _boom(*args, **kwargs):
            raise AssertionError("mp.Process used for a 1-seed source scope")

        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 4)
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, SYM_PROGRAMS)
        sink = {}
        result = exhaustive_verify_steal(
            entry, SYM_PROGRAMS, jobs=2, stats_sink=sink, por="sleep"
        )
        assert sink["steal"].seed_tasks == 1
        assert sink["steal"].workers == 2
        assert result.configurations == serial.configurations
        monkeypatch.setattr("repro.proofs.steal.mp.Process", _boom)
        result = exhaustive_verify_steal(
            entry, SYM_PROGRAMS, jobs=8, stats_sink=sink, por="source"
        )
        assert sink["steal"].seed_tasks == 1
        assert sink["steal"].workers == 1
        assert result.configurations == serial.configurations

    def test_single_worker_runs_inline(self, monkeypatch):
        # One effective worker must not pay fork + pickle + queue costs:
        # the pool path is never entered.
        def _boom(*args, **kwargs):
            raise AssertionError("mp.Process used for a 1-worker pool")

        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 1)
        monkeypatch.setattr("repro.proofs.steal.mp.Process", _boom)
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        sink = {}
        result = exhaustive_verify_steal(
            entry, programs, jobs=8, stats_sink=sink
        )
        assert result.configurations \
            == exhaustive_verify(entry, programs).configurations
        assert isinstance(sink["steal"], StealStats)
        assert sink["steal"].workers == 1
        assert sink["steal"].stolen_tasks == 0

    def test_worker_error_propagates(self, monkeypatch):
        def _crash(worker_id, scope_table, task_q, ack_q, *rest):
            ack_q.put(("err", worker_id, "BoomError: injected", "trace"))

        monkeypatch.setattr(
            "repro.proofs.steal._steal_worker_main", _crash
        )
        entry = entry_by_name("Counter")
        with pytest.raises(RuntimeError, match="injected"):
            exhaustive_verify_steal(
                entry, standard_programs(entry), jobs=2, oversubscribe=True
            )

    def test_dead_worker_detected(self, monkeypatch):
        def _die(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(
            "repro.proofs.steal._steal_worker_main", _die
        )
        entry = entry_by_name("Counter")
        with pytest.raises(RuntimeError, match="died"):
            exhaustive_verify_steal(
                entry, standard_programs(entry), jobs=2, oversubscribe=True
            )


class TestDispatch:
    """The parallel front door routes to the stealing pool."""

    def test_default_routes_to_steal(self, monkeypatch):
        sentinel = object()
        seen = {}

        def _fake(entry, programs, **kwargs):
            seen.update(kwargs)
            return sentinel

        monkeypatch.setattr(
            "repro.proofs.steal.exhaustive_verify_steal", _fake
        )
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        assert exhaustive_verify(entry, programs, jobs=2) is sentinel
        assert seen["jobs"] == 2
        assert exhaustive_verify(
            entry, programs, jobs=2, spill="/tmp/x", max_configurations=4,
        ) is sentinel
        assert seen["spill"] == "/tmp/x"
        assert seen["max_configurations"] == 4
        state_entry = entry_by_name("G-Counter")
        assert exhaustive_verify_state(
            state_entry, standard_programs(state_entry), jobs=2,
            max_gossips=1,
        ) is sentinel
        assert seen["max_gossips"] == 1


class TestInstrumentation:
    def test_scheduler_and_store_instruments_emitted(self):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        ins = Instrumentation.on()
        exhaustive_verify_steal(
            entry, programs, jobs=2, instrumentation=ins, **FORCE
        )
        instruments = ins.metrics.snapshot()["instruments"]
        bare = {key.split("{", 1)[0] for key in instruments}
        assert "explore.steal.workers" in bare
        assert "explore.steal.stolen_tasks" in bare
        assert "explore.steal.idle_seconds" in bare
        assert "explore.fp_store.lookups" in bare
        assert instruments["explore.steal.workers"]["value"] == 2

    def test_deterministic_totals_match_serial(self):
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial_ins = Instrumentation.on()
        exhaustive_verify(entry, programs, instrumentation=serial_ins)
        steal_ins = Instrumentation.on()
        exhaustive_verify_steal(
            entry, programs, jobs=2, instrumentation=steal_ins, **FORCE
        )
        assert deterministic_totals(steal_ins.metrics.snapshot()) \
            == deterministic_totals(serial_ins.metrics.snapshot())
