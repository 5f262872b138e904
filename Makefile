PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-exchange test-chaos lint bench bench-e2e-smoke bench-smoke bench-scaling bench-scaling-smoke bench-serve bench-serve-smoke bench-skew bench-skew-smoke bench-full

test:
	$(PYTHON) -m pytest -x -q

# Exchange-layer gate: lint the communication primitives, then run
# their unit tests plus the golden-equivalence suite that pins every
# operator's traffic ledger byte-for-byte.
test-exchange:
	$(PYTHON) -m repro lint src/repro/exchange
	$(PYTHON) -m pytest tests/test_exchange.py tests/test_exchange_golden.py -q

# Chaos gate: the fault-injection unit suite, then the full matrix —
# every registry operator, a small seed set, serial and threaded —
# checking row-identical output and byte-identical goodput ledgers.
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -q
	$(PYTHON) -m repro chaos seeds=0,1,2 workers=1,4

# Static analysis: the project's REP determinism/aliasing rules plus
# the whole-package REP007-REP011 dataflow pass always run; ruff and
# mypy run when installed (pip install -e .[dev]) and are mandatory in
# CI.
lint:
	$(PYTHON) -m repro lint --dataflow
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[dev]')"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Self-test of the repo benchmark (benchmarks/e2e/, the reference for
# performance claims): every workload at 1/50 size, checking the metric
# schema against BENCHMARK.json and every output against its
# reference.  Its timings mean nothing; the full run is
# `python3 benchmarks/e2e/run.py`.  The bench-* targets below are the
# legacy per-PR gates around BENCH_joins.json.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# Tiny-scale perf gate: writes BENCH_joins.json and fails if any fused
# kernel regresses more than 2x against benchmarks/bench_baseline.json.
bench-smoke:
	$(PYTHON) -m repro bench-smoke

# End-to-end wall-clock scaling curve (1 -> 8 workers) for the Fig. 3
# workload; merges a "scaling" section into BENCH_joins.json.
bench-scaling:
	$(PYTHON) -m repro bench-scaling

# CI-sized scaling gate: tiny workload at 1/2/4 workers.  Fails on any
# ledger divergence, missing phase-breakdown field, or (on hosts with
# >= 4 cores) a below-threshold speedup; 1-core runners skip only the
# speedup gate and still verify determinism.
bench-scaling-smoke:
	$(PYTHON) -m repro bench-scaling scaled_tuples=60000 repeats=2 warmup=1 worker_counts=1,2,4

# Concurrent query-service throughput: 100 mixed queries, one-at-a-time
# baseline vs warm pool + plan cache; merges a "serve" section into
# BENCH_joins.json with q/s, p50/p99 latency, and cache hit rate.
bench-serve:
	$(PYTHON) -m repro serve-bench

# CI-sized serve gate: fails when serve throughput drops below the
# one-at-a-time baseline (within tolerance), p99 exceeds the smoke
# bound, or the plan cache records no hits.  The 3x concurrency gate is
# core-gated: 1-core runners record why it was skipped.
bench-serve-smoke:
	$(PYTHON) -m repro serve-bench queries=40 scaled_tuples=6000 num_nodes=4 clients=4

# Skew ablation: plain 4TJ vs heavy-hitter-sharded 4TJ on the hot-key
# Zipf workload; merges a "skew" section into BENCH_joins.json.
bench-skew:
	$(PYTHON) -m repro bench-skew

# CI-sized skew gate: fails when sharding wins less than a 2x reduction
# in max bytes received at any node, spends more than 1.25x the total
# traffic of plain 4TJ, or the two operators' outputs diverge.  The
# smaller table pairs with a finer hot-key threshold so the gate stays
# sharp at reduced scale.
bench-skew-smoke:
	$(PYTHON) -m repro bench-skew scaled_tuples=30000 distinct_keys=3000 hot_fraction=0.02

# Full Figure 3 workload at 1/256 paper scale (slow, ~minutes).
bench-full:
	$(PYTHON) -m repro bench-smoke scaled_tuples=3906250 repeats=2 warmup=1 baseline_path=/dev/null
