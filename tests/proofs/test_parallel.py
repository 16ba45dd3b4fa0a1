"""Process-parallel verification (:mod:`repro.proofs.parallel` and the
work-stealing pool of :mod:`repro.proofs.steal`).

The acceptance bar for the parallel pipeline is *bit-for-bit agreement*
with the serial checkers: same verdict and same distinct-configuration
count for every registry entry, whether a run carries many scopes or
one scope fanned out over its root-branch seeds.
"""

import dataclasses

import pytest

from repro.obs import Instrumentation
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
    standard_programs,
)
from repro.proofs.parallel import (
    _worker_count,
    standard_scopes,
    verify_entries_parallel,
)
from repro.proofs.registry import ALL_ENTRIES, entry_by_name
from repro.proofs.report import verify_entry
from repro.proofs.steal import (
    _seed_tasks,
    exhaustive_verify_steal,
    verify_scopes_steal,
)


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
        parallel = verify_scopes_steal(scopes, jobs=2, oversubscribe=True)
        assert list(parallel) == [entry.name for entry, _, _ in scopes]
        for entry, programs, max_gossips in scopes:
            serial = _serial(entry, programs, max_gossips)
            merged = parallel[entry.name]
            assert merged.ok == serial.ok, entry.name
            assert merged.configurations == serial.configurations, entry.name

    def test_few_scopes_frontier_split_path(self):
        # One scope, four jobs: the pool fans the scope out over its
        # root-branch seeds — and still merges to the serial answer.
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        merged = verify_scopes_steal(
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
        split = exhaustive_verify_steal(
            entry, programs, jobs=3, oversubscribe=True
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations

    def test_state_based_entry(self):
        entry = entry_by_name("G-Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify_state(entry, programs, max_gossips=2)
        split = exhaustive_verify_steal(
            entry, programs, jobs=3, max_gossips=2, oversubscribe=True
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations


class TestEntriesParallel:
    def test_matches_serial_randomized_harness(self, monkeypatch):
        # Two cores as far as the pool can tell, so a 1-core host still
        # runs a real two-process pool instead of collapsing inline.
        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 2)
        entries = ALL_ENTRIES[:4]
        serial = [verify_entry(e, executions=3, operations=5) for e in entries]
        ins = Instrumentation.on()
        parallel = verify_entries_parallel(
            entries, executions=3, operations=5, jobs=2, instrumentation=ins
        )
        assert parallel == serial  # dataclass equality: every field
        instruments = ins.metrics.snapshot()["instruments"]
        assert instruments["parallel.workers"]["value"] == 2


class TestGuards:
    def test_unregistered_entry_rejected(self):
        base = entry_by_name("Counter")
        rogue = dataclasses.replace(base, name="not-in-registry")
        with pytest.raises(ValueError, match="not in the registry"):
            exhaustive_verify_steal(rogue, standard_programs(base), jobs=2)

    def test_worker_count_caps(self):
        assert _worker_count(1, 10) == 1
        assert _worker_count(8, 3) <= 3  # never more workers than tasks
        assert _worker_count(4, 0) == 1  # floor of one
        import os
        assert _worker_count(64, 64) <= (os.cpu_count() or 64)
        assert _worker_count(64, None) <= (os.cpu_count() or 64)

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
        # tasks=None: a splitting pool (work-stealing under sleep sets)
        # makes its own tasks, so only jobs and cores cap it.
        assert _worker_count(8, None) == 4
        assert _worker_count(2, None) == 2
        assert _worker_count(8, None, oversubscribe=True) == 8
        assert _worker_count(0, None) == 1
        monkeypatch.setattr(
            "repro.proofs.parallel.os.cpu_count", lambda: None
        )
        assert _worker_count(8, 100) == 8  # unknown core count: trust jobs
        assert _worker_count(8, None) == 8

    def test_single_worker_runs_inline(self, monkeypatch):
        # One effective worker (task count or core cap) must run in the
        # calling process — no executor, no fork/pickle overhead.
        def _boom(*args, **kwargs):
            raise AssertionError("process pool used for a 1-worker pool")

        monkeypatch.setattr(
            "repro.proofs.parallel.ProcessPoolExecutor", _boom
        )
        monkeypatch.setattr("repro.proofs.steal.mp.Process", _boom)
        monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 1)
        entry = entry_by_name("Counter")
        programs = standard_programs(entry)
        serial = exhaustive_verify(entry, programs)
        inline = exhaustive_verify_steal(entry, programs, jobs=4)
        assert inline.configurations == serial.configurations
        results = verify_entries_parallel(
            ALL_ENTRIES[:2], executions=2, operations=4, jobs=1
        )
        assert results == [
            verify_entry(e, executions=2, operations=4)
            for e in ALL_ENTRIES[:2]
        ]


class TestSymmetricSharding:
    """Orbit-aware seeding: symmetric root branches are not fanned out,
    and the merged result still equals the serial symmetric run."""

    SYM_PROGRAMS = {
        "r1": [("inc", ()), ("read", ())],
        "r2": [("inc", ()), ("read", ())],
    }

    def test_op_based_matches_serial_with_symmetry(self):
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, self.SYM_PROGRAMS)
        split = exhaustive_verify_steal(
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
        split = exhaustive_verify_steal(
            entry, self.SYM_PROGRAMS, jobs=4, max_gossips=2,
            oversubscribe=True,
        )
        assert split.ok == serial.ok
        assert split.configurations == serial.configurations

    def test_symmetry_override_off_matches_serial(self):
        entry = entry_by_name("Counter")
        serial = exhaustive_verify(entry, self.SYM_PROGRAMS, symmetry=False)
        split = exhaustive_verify_steal(
            entry, self.SYM_PROGRAMS, jobs=4, symmetry=False,
            oversubscribe=True,
        )
        assert split.configurations == serial.configurations
        assert split.configurations > exhaustive_verify_steal(
            entry, self.SYM_PROGRAMS, jobs=4, oversubscribe=True
        ).configurations

    def test_symmetric_branches_are_skipped(self):
        entry = entry_by_name("Counter")
        scope = [(entry, self.SYM_PROGRAMS, None)]
        _, seeds = _seed_tasks(scope, None, None, True)
        assert [seed[3] for seed in seeds] == [0]  # second branch ≅ first
        _, seeds_off = _seed_tasks(scope, None, False, True)
        assert [seed[3] for seed in seeds_off] == [0, 1]
