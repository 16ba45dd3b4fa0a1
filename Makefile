# Convenience targets for the RA-linearizability reproduction.

PYTHON ?= python

.PHONY: install test bench bench-explore bench-dpor bench-steal bench-compose bench-verify bench-diff figures table mutants exhaustive chaos examples all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 invocation: works from a source checkout without installing.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Naive vs. fast exploration engine; refreshes BENCH_explore.json.
# Add -m slow for the 3-replica scopes (minutes).
bench-explore:
	$(PYTHON) -m pytest benchmarks/test_bench_explore_engine.py --benchmark-only -s

# Source-DPOR + persistent snapshots vs. the sleep-set engine on
# 3-replica scopes; merges the dpor_3r section into BENCH_explore.json.
bench-dpor:
	$(PYTHON) -m pytest benchmarks/test_bench_dpor.py --benchmark-only -s

# Work-stealing scheduler vs. static fan-out + fingerprint-store
# memory tiers; merges steal_3r / fp_store sections into
# BENCH_explore.json.  Add -m slow for the 4-replica spill scope.
bench-steal:
	$(PYTHON) -m pytest benchmarks/test_bench_steal.py --benchmark-only -s

# Compositional per-object proof rule vs whole-store product exploration
# on a 3-object ⊗ts store; merges the compose_3r section into
# BENCH_explore.json (see docs/composition.md).
bench-compose:
	$(PYTHON) -m pytest benchmarks/test_bench_compose.py --benchmark-only -s

# PR-1 serial baseline vs. incremental checking vs. --jobs 4; refreshes
# BENCH_verify.json.  Needs git history for the pinned baseline commit.
bench-verify:
	$(PYTHON) -m pytest benchmarks/test_bench_verify_parallel.py --benchmark-only -s

# Regression gate: compare freshly benched sections against the committed
# baselines.  OLD/NEW default to the self-compare smoke; override as
# `make bench-diff OLD=BENCH_explore.json NEW=/tmp/BENCH_explore.json`.
OLD ?= BENCH_explore.json
NEW ?= BENCH_explore.json
bench-diff:
	PYTHONPATH=src $(PYTHON) -m repro bench diff $(OLD) $(NEW)

figures:
	$(PYTHON) -m repro figures

table:
	$(PYTHON) -m repro table

mutants:
	$(PYTHON) -m repro mutants

exhaustive:
	$(PYTHON) -m repro exhaustive

# Deterministic fault-injection soak: every registry entry under every
# default plan (baseline / high-loss / partition / crash).
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done

all: test bench
