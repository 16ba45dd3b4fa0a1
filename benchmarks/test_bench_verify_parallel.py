"""End-to-end verification pipeline benchmark (our measurement).

Runs the deep exhaustive scope suite (:mod:`verify_scope_suite`) three
ways and records the comparison in ``BENCH_verify.json``:

* **baseline** — the PR-1 tree (commit ``BASELINE_COMMIT``, the fast
  exploration engine *without* the incremental-checking caches),
  extracted with ``git archive`` into ``.bench/pr1`` and run serially;
* **serial** — the current tree with the frontier/verdict caches on
  (their defaults);
* **parallel** — the current tree through
  :func:`repro.proofs.steal.verify_scopes_steal` with ``jobs=4``.

Every leg is a fresh subprocess (cold caches, same interpreter), timed
inside the child so interpreter start-up is excluded; each leg runs
``REPEATS`` times and the minimum is kept, the standard way to damp
scheduler noise.  The benchmark asserts the acceptance criterion —
cached + ``--jobs 4`` at least 2x faster end-to-end than the PR-1
serial baseline — and that all three legs agree on every scope's
verdict and distinct-configuration count.

On a single-core runner the parallel leg degenerates to one worker
(see ``_worker_count``), so the recorded speedup there is the
incremental-checking gain plus pool overhead; multi-core runners add
real concurrency on top.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import emit
from verify_scope_suite import SCOPES

REPO = Path(__file__).resolve().parent.parent
SUITE = Path(__file__).resolve().parent / "verify_scope_suite.py"
JSON_PATH = REPO / "BENCH_verify.json"
BASELINE_DIR = REPO / ".bench" / "pr1"

#: "Add fast exploration engine for the exhaustive checkers" — the last
#: commit before the incremental-checking + parallel-pipeline work.
BASELINE_COMMIT = "8384223051553cd6232abffa5242694cfc076739"

REPEATS = 3
JOBS = 4


def _ensure_baseline_tree() -> bool:
    """Materialize the PR-1 ``src/`` tree under ``.bench/pr1``.

    Uses ``git archive`` (no worktree registration, no ``.git``); reuses
    a previous extraction.  Returns False when the commit is unavailable
    (shallow clone without history), letting the caller skip.
    """
    if (BASELINE_DIR / "src" / "repro" / "__init__.py").exists():
        return True
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(
        ["git", "archive", BASELINE_COMMIT, "src"],
        cwd=REPO, capture_output=True,
    )
    if archive.returncode != 0:
        return False
    extract = subprocess.run(
        ["tar", "-x"], cwd=BASELINE_DIR, input=archive.stdout,
        capture_output=True,
    )
    return extract.returncode == 0


def _run_leg(src_dir: Path, mode: str) -> dict:
    """Run one suite leg ``REPEATS`` times; keep the fastest."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    best = None
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, str(SUITE), mode, str(JOBS)],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        leg = json.loads(proc.stdout.strip().splitlines()[-1])
        if best is None or leg["seconds"] < best["seconds"]:
            best = leg
    return best


def test_verify_pipeline_speedup(benchmark):
    benchmark(lambda: None)  # timing happens in the subprocess legs
    import pytest
    if not _ensure_baseline_tree():
        pytest.skip(f"baseline commit {BASELINE_COMMIT[:12]} not available")

    baseline = _run_leg(BASELINE_DIR / "src", "serial")
    serial = _run_leg(REPO / "src", "serial")
    parallel = _run_leg(REPO / "src", "parallel")

    # Identical results across the baseline and both current pipelines:
    # same verdict and same distinct-configuration count for every scope.
    for leg in (serial, parallel):
        assert leg["verdicts"] == baseline["verdicts"]
        assert leg["configurations"] == baseline["configurations"]

    speedup_serial = baseline["seconds"] / serial["seconds"]
    speedup_parallel = baseline["seconds"] / parallel["seconds"]
    record = {
        "suite": [
            {"entry": name, "operations": sum(len(p) for p in programs.values()),
             "max_gossips": max_gossips}
            for name, programs, max_gossips in SCOPES
        ],
        "baseline_commit": BASELINE_COMMIT,
        "jobs": JOBS,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "baseline_seconds": baseline["seconds"],
        "serial_seconds": serial["seconds"],
        "parallel_seconds": parallel["seconds"],
        "speedup_serial": round(speedup_serial, 2),
        "speedup_parallel": round(speedup_parallel, 2),
        "verdicts": baseline["verdicts"],
        "configurations": baseline["configurations"],
        # Per-leg observability counters (verify_scope_suite.suite_metrics):
        # cache hit ratios and configurations/second.  The baseline tree
        # predates the caches, so its leg reports exploration counters only.
        "baseline_metrics": baseline.get("metrics"),
        "serial_metrics": serial.get("metrics"),
        "parallel_metrics": parallel.get("metrics"),
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        "Verification pipeline: PR-1 baseline vs incremental vs parallel",
        "\n".join([
            f"scopes: {len(SCOPES)}  "
            f"configs: {sum(baseline['configurations'])}",
            f"baseline (PR-1 serial) : {baseline['seconds']:8.2f}s",
            f"cached serial          : {serial['seconds']:8.2f}s "
            f"({speedup_serial:.2f}x)",
            f"cached + --jobs {JOBS}      : {parallel['seconds']:8.2f}s "
            f"({speedup_parallel:.2f}x)",
        ]),
    )
    assert speedup_parallel >= 2.0, (
        f"end-to-end speedup {speedup_parallel:.2f}x < 2x "
        f"(baseline {baseline['seconds']}s, parallel {parallel['seconds']}s)"
    )
