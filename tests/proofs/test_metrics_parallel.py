"""Serial vs parallel metrics agreement (the observability contract).

The metrics layer splits instruments into two contracts
(``docs/observability.md``): *deterministic* instruments describe the
verification outcome and must be bit-for-bit identical between a serial
run and any ``--jobs N`` run — mirroring the verdict-equality suite in
``test_parallel.py`` — while *work* instruments describe machinery cost
and may exceed serial totals in the pool (workers re-explore
subtree-shared states).  This suite pins both directions: equality for
the deterministic section, and ≥-serial sanity for the work section.
"""

import pytest

from repro.obs import Instrumentation, deterministic_totals
from repro.proofs.exhaustive import (
    exhaustive_verify,
    exhaustive_verify_state,
)
from repro.proofs.parallel import standard_scopes, verify_entries_parallel
from repro.proofs.registry import ALL_ENTRIES
from repro.proofs.report import verify_entry
from repro.proofs.steal import verify_scopes_steal

SCOPES = standard_scopes()
JOBS = 4


def _serial_totals(scopes):
    ins = Instrumentation.on()
    for entry, programs, max_gossips in scopes:
        if entry.kind == "OB":
            exhaustive_verify(entry, programs, instrumentation=ins)
        else:
            exhaustive_verify_state(
                entry, programs, max_gossips=max_gossips,
                instrumentation=ins,
            )
    return ins


@pytest.mark.parametrize(
    "scope", SCOPES, ids=[entry.name for entry, _, _ in SCOPES]
)
def test_entry_deterministic_totals_match(scope):
    """Every registry entry: serial ≡ --jobs 4 deterministic counters."""
    serial = _serial_totals([scope])
    parallel = Instrumentation.on()
    verify_scopes_steal([scope], jobs=JOBS, instrumentation=parallel,
                        oversubscribe=True)
    assert deterministic_totals(parallel.metrics.snapshot()) \
        == deterministic_totals(serial.metrics.snapshot())


def test_suite_deterministic_totals_match_whole_tree_path():
    """All scopes through one pool: still identical."""
    serial = _serial_totals(SCOPES)
    parallel = Instrumentation.on()
    verify_scopes_steal(SCOPES, jobs=2, instrumentation=parallel,
                        oversubscribe=True)
    assert deterministic_totals(parallel.metrics.snapshot()) \
        == deterministic_totals(serial.metrics.snapshot())


def test_work_counters_at_least_serial():
    """The pool may re-explore states but never skips work."""
    scope = next(
        (entry, programs, gossips)
        for entry, programs, gossips in SCOPES if entry.name == "OR-Set"
    )
    serial = _serial_totals([scope])
    parallel = Instrumentation.on()
    verify_scopes_steal([scope], jobs=JOBS, instrumentation=parallel,
                        oversubscribe=True)
    serial_instruments = serial.metrics.snapshot()["instruments"]
    parallel_instruments = parallel.metrics.snapshot()["instruments"]
    for key in ("explore.states_visited{kind=op}",
                "check.checks{entry=OR-Set}"):
        assert parallel_instruments[key]["value"] \
            >= serial_instruments[key]["value"]


@pytest.mark.parametrize("por", ["sleep", "source"])
def test_explore_label_set_matches_serial(por):
    """Pool runs emit ``explore.*`` work counters under the serial label
    set, so every serial key exists in a pool artifact too."""
    scope = next(
        (entry, programs, gossips)
        for entry, programs, gossips in SCOPES if entry.name == "OR-Set"
    )
    serial = _serial_totals([scope])
    pool = Instrumentation.on()
    verify_scopes_steal([scope], jobs=JOBS, instrumentation=pool,
                        por=por, oversubscribe=True)

    def explore_keys(ins):
        return {
            key for key in ins.metrics.snapshot()["instruments"]
            if key.split("{", 1)[0] in (
                "explore.runs", "explore.configurations",
                "explore.states_visited", "explore.commute_checks",
            )
        }

    assert explore_keys(pool) == explore_keys(serial)


def test_table_deterministic_totals_match():
    """The randomized-harness path: serial and parallel table runs agree."""
    entries = ALL_ENTRIES[:4]
    serial = Instrumentation.on()
    for entry in entries:
        serial.record_verification(
            verify_entry(entry, executions=2, operations=6)
        )
    parallel = Instrumentation.on()
    results = verify_entries_parallel(
        entries, executions=2, operations=6, jobs=JOBS,
        instrumentation=parallel,
    )
    for result in results:
        parallel.record_verification(result)
    assert deterministic_totals(parallel.metrics.snapshot()) \
        == deterministic_totals(serial.metrics.snapshot())
