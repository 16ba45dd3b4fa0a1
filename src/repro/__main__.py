"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table``      — regenerate the Fig. 12 verification table.
* ``figures``    — replay every paper figure and print verdicts.
* ``scenario X`` — render one figure's execution (fig2, fig5a, fig8, fig9,
  fig10, fig10ts, fig14) as replica lanes + visibility.
* ``mutants``    — run mutation testing and print what caught each mutant.
* ``exhaustive`` — exhaustively verify all op-based CRDTs on the standard
  small-scope programs (``--scope`` selects one, ``--metrics`` writes the
  observability artifact).
* ``chaos``      — fault-injection soak: every registry entry under
  deterministic adversarial delivery (drop/duplicate/delay/stale,
  partitions, crash+recovery), with replayable failing-trace dumps.
* ``stats``      — render a ``--metrics`` artifact as a readable summary
  (``--phases`` breaks the engine wall into profiled phases).
* ``bench diff`` — compare two bench JSON artifacts with per-metric
  tolerances; nonzero exit on regression (the CI gate).

The exploration commands (``exhaustive``, ``chaos``) also take
``--progress [SECS]`` (live per-worker heartbeat line on stderr),
``--heartbeat-log PATH`` (heartbeat JSONL artifact) and
``--journal PATH`` (structured lifecycle-event journal) — all
presentation/diagnostic artifacts with no effect on verdicts or the
deterministic metric totals.
"""

import argparse
import io
import re
import sys

from .core.ralin import (
    check_ra_linearizable,
    execution_order_check,
    timestamp_order_check,
)
from .core.render import render_history, render_linearization
from .core.strong import check_strong_linearizable
from .obs import (
    HeartbeatEmitter,
    Instrumentation,
    ProgressMonitor,
    bench_diff_paths,
    read_artifact,
    write_artifact,
)
from .proofs import (
    ALL_ENTRIES,
    chaos_soak,
    default_plans,
    dump_trace,
    exhaustive_verify,
    format_chaos,
    parse_store_spec,
    plan_by_name,
    replay_trace,
    default_jobs,
    format_exhaustive,
    format_metrics,
    format_phases,
    format_store,
    format_table,
    mutant_catalogue,
    standard_programs,
    verify_entries_parallel,
    verify_entry,
    verify_mutant,
    verify_scopes_steal,
    verify_store,
)
from .runtime.composition import check_composed_ra_linearizable
from .scenarios import (
    fig2_rga_conflict,
    fig5a_orset,
    fig8_rga,
    fig9_two_orsets,
    fig10_two_rgas,
    fig14_addat,
)
from .specs import (
    AddAt1Spec,
    AddAt3Spec,
    ORSetRewriting,
    ORSetSpec,
    RGASpec,
    SetSpec,
    plain_set_view,
)

SCENARIOS = {
    "fig2": fig2_rga_conflict,
    "fig5a": fig5a_orset,
    "fig8": fig8_rga,
    "fig9": fig9_two_orsets,
    "fig10": lambda: fig10_two_rgas(shared_timestamps=False),
    "fig10ts": lambda: fig10_two_rgas(shared_timestamps=True),
    "fig14": fig14_addat,
}


def _instrumentation(args: argparse.Namespace) -> Instrumentation:
    """An enabled handle when ``--metrics`` or ``--journal`` was given,
    else the no-op."""
    if getattr(args, "metrics", None) or getattr(args, "journal", None):
        return Instrumentation.on(
            trace_checks=getattr(args, "trace_checks", False)
        )
    from .obs import NULL_INSTRUMENTATION

    return NULL_INSTRUMENTATION


def _emit_metrics(args: argparse.Namespace, ins: Instrumentation,
                  command: str, **meta) -> None:
    if getattr(args, "metrics", None) and ins.enabled:
        write_artifact(args.metrics, ins, command, meta)
        print(f"metrics artifact written to {args.metrics}")


def _emit_journal(args: argparse.Namespace, ins: Instrumentation) -> None:
    if getattr(args, "journal", None) and ins.journal is not None:
        ins.journal.dump(args.journal)
        print(f"journal written to {args.journal}")


def _progress_monitor(args: argparse.Namespace):
    """(monitor, emitter) for a serial run, or (None, None).

    The monitor renders to stderr only when ``--progress`` was given;
    with ``--heartbeat-log`` alone the records go to the JSONL file and
    the render stream is a discard buffer.
    """
    progress = getattr(args, "progress", None)
    log = getattr(args, "heartbeat_log", None)
    if progress is None and not log:
        return None, None
    monitor = ProgressMonitor(
        interval=progress,
        stream=(sys.stderr if progress is not None else io.StringIO()),
        log_path=log,
    )
    emitter = HeartbeatEmitter(worker="w0", sink=monitor.ingest,
                               interval=progress)
    return monitor, emitter


def cmd_table(args: argparse.Namespace) -> int:
    ins = _instrumentation(args)
    if args.jobs == 0:
        args.jobs = default_jobs()
    if args.jobs > 1:
        results = verify_entries_parallel(
            ALL_ENTRIES, executions=args.executions,
            operations=args.operations, jobs=args.jobs,
            instrumentation=ins,
        )
    else:
        with ins.span("table.serial", entries=len(ALL_ENTRIES)):
            results = [
                verify_entry(entry, executions=args.executions,
                             operations=args.operations,
                             instrumentation=ins)
                for entry in ALL_ENTRIES
            ]
    # The composed row: a small ⊗ts store verified with the per-object
    # compositional rule (Sec. 5), alongside the single-object entries.
    from .proofs.compositional import composed_table_entry

    results.append(composed_table_entry(instrumentation=ins))
    for result in results:
        ins.record_verification(result)
    print(format_table(results, title="Fig. 12 — verification table"))
    _emit_metrics(args, ins, "table", jobs=args.jobs,
                  executions=args.executions, operations=args.operations)
    return 0 if all(r.verified for r in results) else 1


def cmd_figures(_args: argparse.Namespace) -> int:
    ok = True

    fig5 = fig5a_orset()
    strong = check_strong_linearizable(
        fig5.history, SetSpec(), gamma=plain_set_view()
    )
    ra5 = check_ra_linearizable(
        fig5.history, ORSetSpec(), gamma=ORSetRewriting()
    )
    print(f"fig5a : strong-linearizable={strong is not None} (expect False)"
          f"  RA-linearizable={ra5.ok} (expect True)")
    ok &= strong is None and ra5.ok

    fig8 = fig8_rga()
    eo = execution_order_check(
        fig8.history, RGASpec(), fig8.system.generation_order
    )
    to = timestamp_order_check(
        fig8.history, RGASpec(), fig8.system.generation_order
    )
    print(f"fig8  : execution-order={eo.ok} (expect False)"
          f"  timestamp-order={to.ok} (expect True)")
    ok &= (not eo.ok) and to.ok

    fig9 = fig9_two_orsets()
    r9 = check_composed_ra_linearizable(
        fig9.history,
        {"o1": ORSetSpec(), "o2": ORSetSpec()},
        {"o1": ORSetRewriting(), "o2": ORSetRewriting()},
    )
    print(f"fig9  : composed RA-linearizable={r9.ok} (expect True)")
    ok &= r9.ok

    for shared, expect in ((False, False), (True, True)):
        scenario = fig10_two_rgas(shared_timestamps=shared)
        r10 = check_composed_ra_linearizable(
            scenario.history, {"o1": RGASpec(), "o2": RGASpec()}
        )
        flavour = "⊗ts" if shared else "⊗  "
        print(f"fig10 : under {flavour} RA-linearizable={r10.ok} "
              f"(expect {expect})")
        ok &= r10.ok is expect

    fig14 = fig14_addat()
    r1 = check_ra_linearizable(fig14.history, AddAt1Spec())
    r3 = check_ra_linearizable(fig14.history, AddAt3Spec())
    print(f"fig14 : addAt1={r1.ok} (expect False)  addAt3={r3.ok} "
          f"(expect True)")
    ok &= (not r1.ok) and r3.ok

    return 0 if ok else 1


def cmd_scenario(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.name]()
    print(render_history(
        scenario.history, scenario.system.generation_order, title=args.name
    ))
    return 0


def cmd_mutants(_args: argparse.Namespace) -> int:
    all_caught = True
    for name, make_crdt, base in mutant_catalogue():
        result = verify_mutant(make_crdt, base)
        caught = [] if result.verified else [
            check for check, flag in (
                ("commutativity/props", result.commutativity_ok),
                ("refinement/fold", result.refinement_ok),
                ("convergence", result.convergence_ok),
                ("RA-lin", result.ralin_ok),
            ) if not flag
        ]
        verdict = "CAUGHT by " + ", ".join(caught) if caught else "MISSED"
        print(f"{name:<35} {verdict}")
        all_caught &= bool(caught)
    return 0 if all_caught else 1


def _normalize_scope(name: str) -> str:
    """CLI scope key for an entry name: ``"2P-Set (op)"`` → ``2p_set_op``."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def cmd_exhaustive(args: argparse.Namespace) -> int:
    if args.store:
        return _cmd_exhaustive_store(args)
    entries = [entry for entry in ALL_ENTRIES if entry.kind == "OB"]
    if args.scope:
        wanted = _normalize_scope(args.scope)
        entries = [
            entry for entry in entries
            if _normalize_scope(entry.name) == wanted
        ]
        if not entries:
            available = ", ".join(
                _normalize_scope(entry.name)
                for entry in ALL_ENTRIES if entry.kind == "OB"
            )
            print(f"unknown scope {args.scope!r}; available: {available}",
                  file=sys.stderr)
            return 2
    ins = _instrumentation(args)
    if args.jobs == 0:
        args.jobs = default_jobs()
    symmetry = False if args.no_symmetry else None
    if args.jobs > 1:
        scopes = [(entry, standard_programs(entry), None) for entry in entries]
        merged = verify_scopes_steal(scopes, jobs=args.jobs,
                                     symmetry=symmetry, spill=args.spill,
                                     instrumentation=ins, por=args.por,
                                     progress=args.progress,
                                     heartbeat_log=args.heartbeat_log)
        results = [merged[entry.name] for entry in entries]
    else:
        monitor, emitter = _progress_monitor(args)
        try:
            results = [
                exhaustive_verify(entry, standard_programs(entry),
                                  symmetry=symmetry, spill=args.spill,
                                  instrumentation=ins, por=args.por,
                                  heartbeat=emitter)
                for entry in entries
            ]
        finally:
            if monitor is not None:
                monitor.close()
    print(format_exhaustive(
        results, title="Exhaustive small-scope verification"
    ))
    _emit_metrics(args, ins, "exhaustive", jobs=args.jobs,
                  scope=args.scope or "all")
    _emit_journal(args, ins)
    return 0 if all(result.ok for result in results) else 1


def _cmd_exhaustive_store(args: argparse.Namespace) -> int:
    """``repro exhaustive --store counter:2,orset:1`` — the compositional
    per-object proof rule (``--independent-clocks`` opts out of ⊗ts and
    takes the whole-store product escape hatch)."""
    try:
        store = parse_store_spec(
            args.store, shared_timestamps=not args.independent_clocks
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    ins = _instrumentation(args)
    if args.jobs == 0:
        args.jobs = default_jobs()
    symmetry = False if args.no_symmetry else None
    result = verify_store(
        store, jobs=args.jobs, symmetry=symmetry, spill=args.spill,
        por=args.por, instrumentation=ins,
        progress=args.progress, heartbeat_log=args.heartbeat_log,
    )
    print(format_store(
        result, title="Compositional store verification"
    ))
    _emit_metrics(args, ins, "exhaustive", jobs=args.jobs,
                  store=args.store)
    _emit_journal(args, ins)
    return 0 if result.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.replay:
        ins = _instrumentation(args)
        try:
            replay = replay_trace(args.replay, instrumentation=ins)
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot replay trace: {error}", file=sys.stderr)
            return 2
        print(f"replayed {replay.report.entry_name} "
              f"[{replay.report.plan.name} seed {replay.report.seed}]: "
              f"trace={'identical' if replay.trace_matches else 'DIVERGED'} "
              f"verdict={'identical' if replay.verdict_matches else 'DIVERGED'}")
        _emit_journal(args, ins)
        return 0 if replay.ok else 1

    entries = list(ALL_ENTRIES)
    if args.scope:
        wanted = _normalize_scope(args.scope)
        entries = [
            entry for entry in entries
            if _normalize_scope(entry.name) == wanted
        ]
        if not entries:
            available = ", ".join(
                _normalize_scope(entry.name) for entry in ALL_ENTRIES
            )
            print(f"unknown scope {args.scope!r}; available: {available}",
                  file=sys.stderr)
            return 2
    if args.plan:
        try:
            plans = [plan_by_name(args.plan)]
        except KeyError:
            available = ", ".join(plan.name for plan in default_plans())
            print(f"unknown plan {args.plan!r}; available: {available}",
                  file=sys.stderr)
            return 2
    else:
        plans = default_plans()
    ins = _instrumentation(args)
    reports = chaos_soak(
        entries, plans=plans, soak=args.soak, base_seed=args.seed,
        operations=args.operations, instrumentation=ins,
        progress=args.progress, heartbeat_log=args.heartbeat_log,
    )
    print(format_chaos(
        reports, title="Chaos soak — deterministic fault injection"
    ))
    failing = [report for report in reports if not report.ok]
    if failing and args.dump_trace:
        dump_trace(failing[0], args.dump_trace, operations=args.operations)
        print(f"failing trace dumped to {args.dump_trace} "
              f"(replay with: repro chaos --replay {args.dump_trace})")
    _emit_metrics(args, ins, "chaos", soak=args.soak, seed=args.seed,
                  scope=args.scope or "all", plan=args.plan or "all")
    _emit_journal(args, ins)
    return 0 if not failing else 1


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        artifact = read_artifact(args.path)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read metrics artifact: {error}", file=sys.stderr)
        return 2
    if args.phases:
        print(format_phases(artifact))
    else:
        print(format_metrics(artifact))
    return 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    sections = None
    if args.sections:
        sections = [s.strip() for s in args.sections.split(",") if s.strip()]
    try:
        report, code = bench_diff_paths(args.old, args.new,
                                        tolerance=args.tolerance,
                                        sections=sections)
    except (OSError, ValueError) as error:
        print(f"cannot diff bench artifacts: {error}", file=sys.stderr)
        return 2
    print(report)
    return code


def _add_observatory_flags(command: argparse.ArgumentParser) -> None:
    """The live-observability flags shared by the exploration commands."""
    command.add_argument(
        "--progress", nargs="?", const=2.0, type=float, default=None,
        metavar="SECS",
        help="render a live per-worker heartbeat line on stderr every "
             "SECS seconds (default 2.0); flags stalled workers",
    )
    command.add_argument(
        "--heartbeat-log", metavar="PATH", default=None,
        dest="heartbeat_log",
        help="append every heartbeat record to a JSONL artifact "
             "(works with or without --progress)",
    )
    command.add_argument(
        "--journal", metavar="PATH", default=None,
        help="dump the structured lifecycle-event journal (scope "
             "start/end, steal split/claim, spill promotion, DPOR "
             "reversals, budget exhaustion, chaos crash/replay) as JSONL",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replication-Aware Linearizability — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="regenerate the Fig. 12 table")
    table.add_argument("--executions", type=int, default=5)
    table.add_argument("--operations", type=int, default=10)
    table.add_argument(
        "--jobs", type=int, default=1,
        help="verify entries in N worker processes (1 = in-process, "
             "0 = all cores)",
    )
    table.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the observability artifact (JSON, or JSONL when PATH "
             "ends in .jsonl) after the run",
    )
    table.add_argument(
        "--trace-checks", action="store_true", dest="trace_checks",
        help="with --metrics, record one trace event per checked "
             "execution (verbose)",
    )
    table.set_defaults(fn=cmd_table)

    figures = sub.add_parser("figures", help="replay all paper figures")
    figures.set_defaults(fn=cmd_figures)

    scenario = sub.add_parser("scenario", help="render one figure")
    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.set_defaults(fn=cmd_scenario)

    mutants = sub.add_parser("mutants", help="run mutation testing")
    mutants.set_defaults(fn=cmd_mutants)

    exhaustive = sub.add_parser(
        "exhaustive", help="exhaustive small-scope verification"
    )
    exhaustive.add_argument(
        "--jobs", type=int, default=1,
        help="explore over N work-stealing worker processes "
             "(1 = in-process, 0 = all cores; see docs/performance.md)",
    )
    exhaustive.add_argument(
        "--no-symmetry", action="store_true", dest="no_symmetry",
        help="disable replica-orbit deduplication (count raw "
             "configurations instead of orbits; see docs/exploration.md)",
    )
    exhaustive.add_argument(
        "--por", choices=("sleep", "source"), default="source",
        help="partial-order-reduction flavor: 'source' (source-DPOR, the "
             "default) or 'sleep' (classic sleep sets); both give "
             "identical verdicts and distinct-configuration counts and "
             "sleep stays as a differential oracle",
    )
    exhaustive.add_argument(
        "--spill", metavar="DIR", default=None,
        help="intern fingerprints as fixed-width digests and spill the "
             "visited/expanded records to a scratch sqlite file under DIR "
             "(bounded-memory exploration for large scopes)",
    )
    exhaustive.add_argument(
        "--scope", default=None,
        help="verify a single scope, e.g. or_set, g_set, rga "
             "(entry name, lowercased, punctuation as underscores)",
    )
    exhaustive.add_argument(
        "--store", default=None, metavar="SPEC",
        help="verify a multi-object store compositionally, e.g. "
             "counter:2,orset:1 — one exhaustive scope per object plus "
             "the ⊗ts side condition (see docs/composition.md)",
    )
    exhaustive.add_argument(
        "--independent-clocks", action="store_true",
        dest="independent_clocks",
        help="with --store, compose with independent timestamp "
             "generators (⊗) instead of a shared clock (⊗ts); the "
             "compositional rule is unsound there, so the whole-store "
             "product exploration runs instead",
    )
    exhaustive.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the observability artifact (JSON, or JSONL when PATH "
             "ends in .jsonl) after the run",
    )
    exhaustive.add_argument(
        "--trace-checks", action="store_true", dest="trace_checks",
        help="with --metrics, record one trace event per checked "
             "configuration (verbose)",
    )
    _add_observatory_flags(exhaustive)
    exhaustive.set_defaults(fn=cmd_exhaustive)

    chaos = sub.add_parser(
        "chaos", help="fault-injection soak over the registry entries"
    )
    chaos.add_argument(
        "--scope", default=None,
        help="soak a single entry, e.g. or_set, pn_counter (entry name, "
             "lowercased, punctuation as underscores)",
    )
    chaos.add_argument(
        "--plan", default=None,
        help="run one named fault plan (baseline, high-loss, partition, "
             "crash); default: all of them",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed for the deterministic runs")
    chaos.add_argument(
        "--soak", type=int, default=1, metavar="N",
        help="seeds per (entry, plan) pair (seed, seed+1, ...)",
    )
    chaos.add_argument(
        "--operations", type=int, default=None,
        help="operations per run (default: the registry entry's budget)",
    )
    chaos.add_argument(
        "--dump-trace", metavar="PATH", default=None, dest="dump_trace",
        help="on failure, dump the first failing AdversaryTrace as "
             "replayable JSON",
    )
    chaos.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay a dumped trace and check determinism + verdict",
    )
    chaos.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the observability artifact (JSON, or JSONL when PATH "
             "ends in .jsonl) after the run",
    )
    _add_observatory_flags(chaos)
    chaos.set_defaults(fn=cmd_chaos)

    stats = sub.add_parser(
        "stats", help="render a --metrics artifact as a readable summary"
    )
    stats.add_argument("path", help="artifact written by --metrics")
    stats.add_argument(
        "--phases", action="store_true",
        help="render the phase-attribution profile (engine wall broken "
             "into snapshot/restore/apply/hb/commute/fingerprint/check)",
    )
    stats.set_defaults(fn=cmd_stats)

    bench = sub.add_parser(
        "bench", help="bench artifact utilities (regression gate)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    diff = bench_sub.add_parser(
        "diff",
        help="compare two bench JSON artifacts; exit 1 on regression",
    )
    diff.add_argument("old", help="baseline bench JSON (e.g. committed "
                                  "BENCH_explore.json)")
    diff.add_argument("new", help="candidate bench JSON to gate")
    diff.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help="relative tolerance for time/rate metrics (default 0.30); "
             "exact metrics (counts, verdicts) never tolerate drift",
    )
    diff.add_argument(
        "--sections", default=None, metavar="NAMES",
        help="comma-separated top-level sections to gate on (e.g. "
             "dpor_3r); other sections are ignored entirely",
    )
    diff.set_defaults(fn=cmd_bench_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
