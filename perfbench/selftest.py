"""Self-test of the benchmark (not of the program).

Checks, from the root of a checkout::

    python3 perfbench/selftest.py

1. ``notes.json`` names only workloads and metrics that ``BENCHMARK.json``
   declares, and has notes for every workload.
2. One metric key set: every workload, untraced and traced, emits exactly
   the end-to-end or per-layer names of ``BENCHMARK.json`` (short runs),
   with ``correct`` true.
3. The pinned ``explore_3r`` answers in ``expected.json`` match the
   ``por="sleep"`` reference engine, never the flavour being timed.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.

Check 2 runs every workload in both modes and takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import OUT, ROOT, ensure_importable, expected  # noqa: E402


class SelfTestFailure(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def check_notes(bench):
    notes = json.loads((HERE / "notes.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    require(set(notes["workloads"]) == workloads, "notes: workload set")
    require(set(notes["end_to_end"]) == end_to_end, "notes: end-to-end set")
    predicted = set()
    for prediction in notes["predictions"]:
        unknown = set(prediction["metrics"]) - per_layer
        require(not unknown, f"notes: unknown per-layer metrics {unknown}")
        predicted |= set(prediction["metrics"])
        for workload, moved in prediction["moves"].items():
            require(workload in workloads, f"notes: workload {workload}")
            require(set(moved) <= end_to_end, f"notes: metrics {moved}")
        require(set(prediction["flat_on"]) <= workloads,
                f"notes: flat_on {prediction['flat_on']}")
    require(predicted == per_layer,
            f"notes: per-layer metrics without a prediction "
            f"{sorted(per_layer - predicted)}")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=180, text=True)


def check_key_sets(bench):
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(workload, trace)
            require(done.returncode == 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed",
                                    "metrics"}, f"result keys {set(result)}")
            declared = {m["name"]: m["unit"] for m in bench[section]}
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            require(emitted == declared,
                    f"{workload} trace={trace}: "
                    f"{sorted(set(emitted) ^ set(declared))}")
            require(result["correct"] and result["failed"] == 0,
                    f"{workload} trace={trace}: "
                    f"{done.stdout.splitlines()[-2][:2000]}")
            print(f"  {workload} trace={trace}: {len(emitted)} metrics ok")


def check_reference_answers(_bench):
    ensure_importable()
    from repro.proofs import entry_by_name, exhaustive_verify

    answers = expected("explore_3r")
    reference = answers["reference_por"]
    require(reference == "sleep", f"reference flavour {reference}")
    for scope in answers["scopes"]:
        programs = {replica: [(method, tuple(args)) for method, args in steps]
                    for replica, steps in scope["programs"].items()}
        result = exhaustive_verify(entry_by_name(scope["entry"]), programs,
                                   por=reference)
        require((result.ok, result.configurations)
                == (scope["ok"], scope["configurations"]),
                f"{scope['name']}: ok={result.ok} "
                f"configurations={result.configurations}")


def check_stripped_directory(bench):
    stripped = OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(HERE, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run_bench(bench["workloads"][0]["name"], 0, cwd=stripped)
        require(done.returncode != 0, "stripped directory: exit code 0")
        require(not done.stdout.strip(), "stripped directory: printed output")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [("notes name declared metrics", check_notes),
              ("one metric key set per mode", check_key_sets),
              ("known answers match the sleep reference",
               check_reference_answers),
              ("stripped directory exits non-zero", check_stripped_directory)]
    for title, check in checks:
        print(f"{title} ...", flush=True)
        try:
            check(bench)
        except SelfTestFailure as failure:
            print(f"FAILED: {failure}")
            return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
