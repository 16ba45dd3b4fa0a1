"""The process-parallel verification fan-out (:mod:`repro.proofs.parallel`).

The acceptance bar for the parallel pipeline is *bit-for-bit agreement*
with the serial checkers: same verdict and same distinct-configuration
count for every registry entry, on both sharding axes (whole-tree tasks
and frontier-split root branches).
"""

import dataclasses

import pytest

from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import (
    _worker_count,
    exhaustive_verify_parallel,
    standard_scopes,
    verify_entries_parallel,
    verify_scopes_parallel,
)
from repro.proofs.registry import ALL_ENTRIES, entry_by_name
from repro.proofs.report import verify_entry


def _serial(entry, programs, max_gossips):
    if entry.kind == "OB":
        return exhaustive_verify(entry, programs)
    return exhaustive_verify_state(entry, programs, max_gossips=max_gossips)


class TestScopesParallel:
    def test_matches_serial_on_every_registry_entry(self):
        # The acceptance criterion: for every registry entry with standard
        # programs, the parallel pipeline returns the serial verdict and
        # the serial distinct-configuration count.
        scopes = standard_scopes()
        assert scopes, "standard scope suite must not be empty"
        parallel = verify_scopes_parallel(scopes, jobs=2, oversubscribe=True)
        assert list(parallel) == [entry.name for entry, _, _ in scopes]
        for entry, programs, max_gossips in scopes:
            serial = _serial(entry, programs, max_gossips)
            merged = parallel[entry.name]
            assert merged.ok == serial.ok, entry.name
            assert merged.configurations == serial.configurations, entry.name

    def test_few_scopes_frontier_split_path(self):
        # One scope, four jobs: the adaptive granularity must switch to
        # frontier-split shards — and still merge to the serial answer.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        merged = verify_scopes_parallel(
            [(entry, programs, None)], jobs=4, oversubscribe=True
        )
        assert merged[entry.name].ok == serial.ok
        assert merged[entry.name].configurations == serial.configurations


class TestFrontierSplit:
    @pytest.mark.parametrize("name", ["Counter", "OR-Set"])
    def test_op_based_entry(self, name):
        entry = entry_by_name(name)
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        split = exhaustive_verify_parallel(
            entry, programs, jobs=3, oversubscribe=True
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations

    def test_state_based_entry(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(entry, programs, max_gossips=2)
        split = exhaustive_verify_parallel(
            entry, programs, jobs=3, max_gossips=2, oversubscribe=True
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations


class TestEntriesParallel:
    def test_matches_serial_randomized_harness(self):
        entries = ALL_ENTRIES[:4]
        serial = [verify_entry(e, executions=3, operations=5) for e in entries]
        parallel = verify_entries_parallel(
            entries, executions=3, operations=5, jobs=2
        )
        assert parallel == serial  # dataclass equality: every field


class TestGuards:
    def test_unregistered_entry_rejected(self):
        base = entry_by_name("Counter")
        rogue = dataclasses.replace(base, name="not-in-registry")
        with pytest.raises(ValueError, match="not in the registry"):
            exhaustive_verify_parallel(rogue, standard_programs(base), jobs=2)

    def test_worker_count_caps(self):
        assert _worker_count(1, 10) == 1
        assert _worker_count(8, 3) <= 3  # never more workers than tasks
        assert _worker_count(4, 0) == 1  # floor of one
        import os
        assert _worker_count(64, 64) <= (os.cpu_count() or 64)

    def test_worker_count_clamp_matrix(self, monkeypatch):
        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 4)
        # --jobs 0 maps to default_jobs() = all cores; with fewer tasks
        # than cores the pool must not spawn idle processes.
        from repro.proofs.parallel import default_jobs
        assert default_jobs() == 4
        assert _worker_count(default_jobs(), 2) == 2
        assert _worker_count(8, 100) == 4  # physical-core cap
        assert _worker_count(8, 100, oversubscribe=True) == 8  # cap lifted
        assert _worker_count(8, 3, oversubscribe=True) == 3  # task cap stays
        assert _worker_count(2, 1) == 1
        assert _worker_count(0, 10) == 1  # degenerate jobs floor to one
        monkeypatch.setattr(
            "repro.proofs.parallel.os.cpu_count", lambda: None
        )
        assert _worker_count(8, 100) == 8  # unknown core count: trust jobs

    def test_single_worker_runs_inline(self, monkeypatch):
        # One effective worker (task count or core cap) must run in the
        # calling process — no executor, no fork/pickle overhead.
        def _boom(*args, **kwargs):
            raise AssertionError("executor used for a 1-worker pool")

        monkeypatch.setattr(
            "repro.proofs.parallel.ProcessPoolExecutor", _boom
        )
        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 1)
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        inline = exhaustive_verify_parallel(
            entry, programs, jobs=4, steal=False
        )
        assert inline.configurations == serial.configurations
        results = verify_entries_parallel(
            ALL_ENTRIES[:2], executions=2, operations=4, jobs=1
        )
        assert results == [
            verify_entry(e, executions=2, operations=4)
            for e in ALL_ENTRIES[:2]
        ]


class TestSymmetricSharding:
    """Orbit-aware frontier split: symmetric root branches are not fanned
    out, and the merged result still equals the serial symmetric run."""

    SYM_PROGRAMS = {
        "r1": [("inc", ()), ("read", ())],
        "r2": [("inc", ()), ("read", ())],
    }

    def test_op_based_matches_serial_with_symmetry(self):
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, self.SYM_PROGRAMS)
        split = exhaustive_verify_parallel(
            entry, self.SYM_PROGRAMS, jobs=4, oversubscribe=True
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations
        assert split.stats.symmetry_group == 2

    def test_state_based_matches_serial_with_symmetry(self):
        entry = entry_by_name("G-Counter")
        serial = exhaustive_verify_state(
            entry, self.SYM_PROGRAMS, max_gossips=2
        )
        split = exhaustive_verify_parallel(
            entry, self.SYM_PROGRAMS, jobs=4, max_gossips=2,
            oversubscribe=True,
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations

    def test_symmetry_override_off_matches_serial(self):
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, self.SYM_PROGRAMS, symmetry=False)
        split = exhaustive_verify_parallel(
            entry, self.SYM_PROGRAMS, jobs=4, symmetry=False,
            oversubscribe=True,
        )
        assert split.configurations == serial.configurations
        assert split.configurations > exhaustive_verify_parallel(
            entry, self.SYM_PROGRAMS, jobs=4, oversubscribe=True
        ).configurations

    def test_symmetric_branches_are_skipped(self):
        from repro.proofs.parallel import _branch_tasks, _root_transitions

        entry = entry_by_name("Counter")
        transitions = _root_transitions("OB", self.SYM_PROGRAMS, None)
        assert len(transitions) == 2
        tasks = _branch_tasks(entry, self.SYM_PROGRAMS, None, None, None,
                              True)
        assert [task[6] for task in tasks] == [0]  # second branch ≅ first
        tasks_off = _branch_tasks(entry, self.SYM_PROGRAMS, None, None,
                                  False, True)
        assert [task[6] for task in tasks_off] == [0, 1]
