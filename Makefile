PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-exchange test-schedule test-chaos examples lint bench bench-e2e-smoke

test:
	$(PYTHON) -m pytest -x -q

# Exchange-layer gate: lint the communication primitives and the join
# kernels (which own per-thread scratch tables), then run
# their unit tests, the network and profile tests of the one path that
# accounts every send, the placement/scatter tests, the
# golden-equivalence suite that pins every operator's traffic ledger
# byte-for-byte, the sort-merge oracle every operator's rows must
# match, the local join and counting kernels with the hash join
# that drains into them, the aggregation, semi-join and
# tracking-aware operators whose sends run in their own phase tasks, and
# the phase barrier's worker-count determinism tests —
# once as is, once with 2 workers over 64-row kernel chunks, so the
# chunk-merged grouping and the chunked probes run on inputs this small.
EXCHANGE_TESTS = tests/test_exchange.py tests/test_exchange_golden.py tests/test_storage.py \
	tests/test_oracle.py tests/test_network.py tests/test_timing.py \
	tests/test_local_join.py tests/test_grace_hash.py tests/test_query.py \
	tests/test_semijoin.py tests/test_tracking_aware.py tests/test_parallel.py
test-exchange:
	$(PYTHON) -m repro lint src/repro/exchange
	$(PYTHON) -m repro lint src/repro/joins
	$(PYTHON) -m pytest $(EXCHANGE_TESTS) -q
	REPRO_WORKERS=2 REPRO_KERNEL_CHUNK_ROWS=64 $(PYTHON) -m pytest $(EXCHANGE_TESTS) -q

# Schedule gate: the holder-column schedule kernel against its frozen
# segmented reference and the scalar oracle, and every operator that
# schedules — once as is, once with 2 workers over 64-row kernel
# chunks, so tables this small split into schedule blocks that pad to
# different holder widths.
SCHEDULE_TESTS = tests/test_schedule.py tests/test_track_join.py tests/test_skew.py \
	tests/test_balance.py tests/test_oracle.py
test-schedule:
	$(PYTHON) -m pytest $(SCHEDULE_TESTS) -q
	REPRO_WORKERS=2 REPRO_KERNEL_CHUNK_ROWS=64 $(PYTHON) -m pytest $(SCHEDULE_TESTS) -q

# Chaos gate: the fault-injection unit suite, then the full matrix —
# every registry operator, a small seed set, serial and threaded —
# checking row-identical output and byte-identical goodput ledgers.
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -q
	$(PYTHON) -m repro chaos seeds=0,1,2 workers=1,4

# Run every example script end to end; each exits non-zero on failure.
examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example > /dev/null; \
	done

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
# `python3 benchmarks/e2e/run.py`.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke
