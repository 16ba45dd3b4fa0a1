"""The three benchmark workloads: inputs, one pass, and its verdict checks.

Each workload is a closed loop run from one process: a pass calls its
verdict units one after another, the next call starting when the
previous verdict returns.  A unit is one public call into the system
(``explore_3r``: one ``exhaustive_verify`` scope; ``sample_check``: one
``verify_entry``, ``chaos_soak`` or ``verify_mutant`` call;
``cli_cold``: one fresh ``python -m repro`` process).  Every unit's
verdict is checked against ``expected.json``; a unit that raises or
runs past its time limit counts as failed instead of aborting the pass.

Run as a script (``python3 perfbench/workloads.py WORKLOAD SEED``) it
performs one workload's set-up in a fresh interpreter and exits; the
benchmark times that to get ``setup_s``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def expected(workload):
    """The fixed inputs and known answers of one workload."""
    return json.loads((HERE / "expected.json").read_text())[workload]


def ensure_importable():
    """Put the checkout's ``src`` on ``sys.path``; False if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def child_env():
    """Environment for child interpreters: the checkout's ``src`` on the
    path.  ``PYTHONHASHSEED`` is left as inherited (not pinned)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, limit_s, stdout=subprocess.DEVNULL):
    """Run a child interpreter to completion; (exit code, stdout, stderr).

    Waits in a blocking ``communicate``: ``subprocess.run(timeout=...)``
    polls for the exit with sleeps of up to 50 ms, which would quantize
    every timed child.  A timer kills the child's process group (its
    pool workers too) when it outlives ``limit_s``.
    """
    child = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                             env=child_env(), stdout=stdout,
                             stderr=subprocess.PIPE, start_new_session=True)
    watchdog = threading.Timer(
        limit_s, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    try:
        out, err = child.communicate()
    finally:
        watchdog.cancel()
    return child.returncode, out, err.decode(errors="replace")


class UnitResult:
    """One verdict unit: its verdict, latency, verdict count and counts."""

    __slots__ = ("name", "ok", "error", "latency_s", "verdicts", "counts")

    def __init__(self, name, ok, latency_s, verdicts, counts=None,
                 error=None):
        self.name = name
        self.ok = ok
        self.error = error
        self.latency_s = latency_s
        self.verdicts = verdicts
        self.counts = counts or {}


def run_unit(name, call, limit_s, tracer=None, unit_id=None, root=None):
    """Time ``call() -> (ok, verdicts, counts)``; exceptions and limit
    overruns become failed verdicts.  With a tracer the call runs inside
    a root span named ``root`` that all of its spans share."""
    span = None
    if tracer is not None:
        tracer.unit = unit_id
        span = tracer.open(root)
    start = time.perf_counter()
    try:
        ok, verdicts, counts = call()
        error = None
    except Exception as exc:  # a raising unit is a failed verdict
        ok, verdicts, counts = False, 0, {}
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
        tracer.unit = None
    if ok and latency > limit_s:
        ok, error = False, f"exceeded the {limit_s} s unit limit"
    return UnitResult(name, ok, latency, verdicts, counts, error)


def _program(steps):
    return [(method, tuple(args)) for method, args in steps]


class Explore3r:
    """Serial ``exhaustive_verify`` on three scopes with the CLI's POR."""

    name = "explore_3r"
    in_process = True
    unit_limit_s = 60.0
    #: Timed passes the tail latency is taken from: 33 scopes, 11 of each,
    #: so the tail (p69) lands on the slowest scope's own latencies.
    tail_passes = 11
    root_span = "explore_engine.scope"

    def setup(self, seed):
        # The seed is not consumed: the scopes are fixed inputs.
        from repro.__main__ import build_parser
        from repro.proofs import entry_by_name, exhaustive_verify

        self.verify = exhaustive_verify
        #: The POR flavour a CLI user gets, read from the parser so the
        #: benchmark follows the default when it changes.
        self.por = build_parser().parse_args(["exhaustive"]).por
        self.scopes = []
        for scope in expected(self.name)["scopes"]:
            programs = {replica: _program(steps)
                        for replica, steps in scope["programs"].items()}
            self.scopes.append(
                (scope, entry_by_name(scope["entry"]), programs))

    def run_pass(self, index, tracer=None):
        results = []
        for number, (scope, entry, programs) in enumerate(self.scopes):
            def call(scope=scope, entry=entry, programs=programs):
                result = self.verify(entry, programs, por=self.por)
                ok = (result.ok == scope["ok"]
                      and result.configurations == scope["configurations"])
                return ok, result.configurations, explore_counts(result)
            results.append(run_unit(
                scope["name"], call, self.unit_limit_s, tracer,
                f"{index}.{number}", self.root_span))
        return results


def explore_counts(result):
    """Summable engine counts from an :class:`ExhaustiveResult`."""
    stats = result.stats
    return {
        "configurations": result.configurations,
        "states_visited": stats.states_visited,
        "states_deduped": stats.states_deduped,
        "commute_checks": stats.commute_checks,
        "snapshots": stats.snapshots,
        "dpor_races": stats.dpor_races,
        "dpor_wakeup_fallbacks": stats.dpor_wakeup_fallbacks,
        "dpor_patch_cuts": stats.dpor_patch_cuts,
        "dpor_full_expansions": stats.dpor_full_expansions,
        "peak_frontier": stats.peak_frontier,
        "pstate_copied": stats.pstate_copied,
        "pstate_shared": stats.pstate_shared,
    }


class SampleCheck:
    """Random-execution checks, chaos soak and the mutant catalogue."""

    name = "sample_check"
    in_process = True
    unit_limit_s = 30.0
    #: Timed passes the tail latency is taken from: 355 calls (p97).
    tail_passes = 5

    def setup(self, seed):
        from repro.proofs import (
            chaos_soak,
            default_plans,
            entry_by_name,
            mutant_catalogue,
            verify_entry,
            verify_mutant,
        )

        spec = expected(self.name)
        self.seed = seed
        self.spec = spec
        self.verify_entry = verify_entry
        self.chaos_soak = chaos_soak
        self.verify_mutant = verify_mutant
        self.entries = [entry_by_name(name) for name in spec["entries"]]
        self.plans = default_plans()
        catalogue = {name: (make, base)
                     for name, make, base in mutant_catalogue()}
        self.mutants = [(name, catalogue.get(name))
                        for name in spec["mutants"]]

    def base_seed(self, index):
        """Pass ``index``'s first execution seed: disjoint per pass, a
        pure function of the benchmark seed."""
        executions = self.spec["executions"]
        return (self.seed * 100_003 + index * executions) % (2 ** 31)

    def run_pass(self, index, tracer=None):
        spec = self.spec
        base = self.base_seed(index)
        results = []
        serial = 0

        def unit(name, call, root):
            nonlocal serial
            results.append(run_unit(name, call, self.unit_limit_s, tracer,
                                    f"{index}.{serial}", root))
            serial += 1

        for entry in self.entries:
            def check(entry=entry):
                result = self.verify_entry(
                    entry, executions=spec["executions"],
                    operations=spec["operations"], base_seed=base)
                return result.verified, result.executions, {}
            unit(f"verify:{entry.name}", check, "report.verify_entry")
        for entry in self.entries:
            for plan in self.plans:
                def soak(entry=entry, plan=plan):
                    reports = self.chaos_soak(
                        [entry], plans=[plan], soak=spec["soak"],
                        base_seed=base)
                    return (all(report.ok for report in reports)
                            and len(reports) == spec["soak"],
                            len(reports), chaos_counts(reports))
                unit(f"chaos:{entry.name}/{plan.name}", soak,
                     "chaos.chaos_soak")
        for name, mutant in self.mutants:
            def catch(mutant=mutant):
                if mutant is None:
                    raise KeyError("mutant missing from the catalogue")
                make, base_name = mutant
                # Caught means the harness refused to verify the mutant.
                return not self.verify_mutant(make, base_name).verified, 1, {}
            unit(f"mutant:{name}", catch, "mutants.verify_mutant")
        return results

    def known_defects(self):
        """How many pinned known-defect executions still raise
        (``spec.frontier_exceeded``; see expected.json)."""
        from repro.core.errors import SpecViolation
        from repro.proofs import entry_by_name, plan_by_name

        reproduced = 0
        for defect in self.spec["known_defects"]:
            entry = entry_by_name(defect["entry"])
            try:
                if defect["call"] == "verify_entry":
                    self.verify_entry(
                        entry, executions=defect["executions"],
                        operations=defect["operations"],
                        base_seed=defect["seed"])
                else:
                    self.chaos_soak(
                        [entry], plans=[plan_by_name(defect["plan"])],
                        soak=defect["soak"], base_seed=defect["seed"])
            except SpecViolation:
                reproduced += 1
        return reproduced


def chaos_counts(reports):
    """Adversary counts summed over chaos reports (op- and state-based)."""
    counts = {"retransmits": 0, "dropped": 0, "duplicated": 0}
    for report in reports:
        stats = report.network_stats
        counts["retransmits"] += getattr(stats, "retransmissions", 0)
        counts["dropped"] += stats.drops
        counts["duplicated"] += stats.duplicates
    return counts


class CliCold:
    """Fresh ``python -m repro`` processes, one at a time."""

    name = "cli_cold"
    in_process = False
    unit_limit_s = 120.0
    #: Timed passes the tail latency is taken from: 44 commands, 11 of
    #: each, so the tail (p77) lands on the slowest command's latencies.
    tail_passes = 11

    def setup(self, seed):
        # The seed is not consumed: the commands are fixed inputs.  The
        # set-up is what every command pays before it dispatches.
        from repro.__main__ import build_parser

        build_parser()
        self.commands = expected(self.name)["commands"]

    def run_pass(self, index, tracer=None, metrics_dir=None):
        """One pass of commands.  With ``metrics_dir`` the ``exhaustive``
        commands write the CLI's ``--metrics`` artifact there, and each
        unit's counts are that artifact's instruments."""
        results = []
        for number, command in enumerate(self.commands):
            argv = list(command["args"])
            artifact = None
            if metrics_dir is not None and argv[0] == "exhaustive":
                artifact = metrics_dir / f"cli-{index}-{number}.json"
                argv += ["--metrics", str(artifact)]

            def call(argv=argv, command=command, artifact=artifact):
                code, _, err = run_child(["-m", "repro", *argv],
                                         self.unit_limit_s)
                if code != command["exit"]:
                    raise RuntimeError(
                        f"exit {code}, expected {command['exit']}: "
                        + err[-300:])
                counts = {}
                if artifact is not None:
                    counts = {"artifact": json.loads(artifact.read_text())}
                    artifact.unlink()
                return True, 1, counts
            results.append(run_unit(" ".join(command["args"]), call,
                                    self.unit_limit_s, tracer,
                                    f"{index}.{number}", "cli.command"))
        return results


WORKLOADS = {cls.name: cls for cls in (Explore3r, SampleCheck, CliCold)}


if __name__ == "__main__":
    # Set-up probe: one workload's set-up in this fresh interpreter.
    if not ensure_importable():
        sys.exit(2)
    WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
