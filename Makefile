# Canonical entry points for the test suite, the benchmarks, linting and a
# local mirror of the CI pipeline.
#
#   make test                  tier-1 unit suite (tests/)
#   make bench                 paper-figure benchmarks (benchmarks/)
#   make bench JOBS=4          ... fanned out to 4 worker processes
#   make bench CACHE=.repro-cache   ... with the on-disk cell cache
#   make perf                  perfbench on all four workloads (offline,
#                              online, grid, campaign); one metrics block each
#   make runtime-check         golden-digest equivalence (mirrors the CI
#                              runtime-equivalence job)
#   make runtime-goldens       re-pin tests/runtime/goldens.json (intentional
#                              behavior changes only)
#   make scenarios             list the registered scenarios
#   make scenario-smoke        smoke-run every registered scenario (CI job)
#   make distributed-smoke     same smoke tier through the tcp:// scheduler
#                              with 2 local workers (mirrors the CI job)
#   make distributed-smoke-inproc   same smoke tier over inproc:// comms
#                              (coroutine fleet, no sockets or forks)
#   make distributed-stress    stealing/speculation stress smoke: 32-worker
#                              inproc fleet, 1s speculation delay
#   make store-smoke           serial + inproc campaigns into one columnar
#                              store, then compare + validate (mirrors the
#                              CI store-smoke job; JSONL parts without
#                              pyarrow, Parquet with it)
#   make dashboard-smoke       run a campaign under a live dashboard with
#                              concurrent pollers, check every endpoint and
#                              prove the row digest identical to a serial,
#                              unobserved baseline (mirrors the CI job)
#   make telemetry-smoke       record a 4-worker tcp fleet with the flight
#                              recorder, assert digest parity vs serial,
#                              forwarded worker.* rows landed, and a
#                              non-empty phase attribution (mirrors the CI job)
#   make lint                  ruff check (byte-compilation fallback)
#   make ci                    lint + test + scenario smoke (mirrors CI)
#   make clean                 remove caches and stale bytecode

PYTHON ?= python
JOBS ?=
CACHE ?=

BENCH_ENV = $(if $(JOBS),REPRO_JOBS=$(JOBS)) $(if $(CACHE),REPRO_CACHE_DIR=$(CACHE))

.PHONY: test bench perf scenarios scenario-smoke distributed-smoke distributed-smoke-inproc distributed-stress store-smoke dashboard-smoke telemetry-smoke lint ci clean runtime-check runtime-goldens

# Port the distributed smoke tier binds its campaign schedulers on.
DIST_PORT ?= 7641

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(BENCH_ENV) $(PYTHON) -m pytest benchmarks -q

# The repository's benchmark (perfbench/README.md): each workload's sweeps
# timed end to end on this machine, every row checked.  Compare two revisions
# by running this on both checkouts of the same machine; a wall time from
# another machine is not evidence.
perf:
	@for workload in offline online grid campaign; do \
		echo "== perfbench $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seconds 20 || exit $$?; \
	done

# Prove the unified runtime is bit-identical to the pinned goldens
# (tests/runtime/goldens.json: the legacy simulators, one case per workload
# class and every scenario's smoke tier; mirrors the CI runtime-equivalence
# job).  Regenerate the goldens with `make runtime-goldens` ONLY for an
# intentional behavior change, and say so in the commit message.
runtime-check:
	$(PYTHON) -m pytest tests/runtime -q

runtime-goldens:
	PYTHONPATH=src $(PYTHON) -m repro.runtime.golden capture

scenarios:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios list

# Smoke-run every registered scenario at tiny sizes, exactly like the CI
# scenario-smoke job (an unregistered or broken scenario fails here).
scenario-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke

# The same smoke tier scheduled over the tcp:// distributed runtime:
# two long-lived local workers serve every campaign in turn (they retry
# until each per-scenario scheduler binds, and self-reap via --max-idle
# once the run is over). Mirrors the CI distributed-smoke job; digests
# must match a plain `make scenario-smoke`.
distributed-smoke:
	@PYTHONPATH=src $(PYTHON) -m repro.distributed worker tcp://127.0.0.1:$(DIST_PORT) --max-idle 10 & \
	PYTHONPATH=src $(PYTHON) -m repro.distributed worker tcp://127.0.0.1:$(DIST_PORT) --max-idle 10 & \
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke \
		--executor tcp://127.0.0.1:$(DIST_PORT); \
	STATUS=$$?; wait; exit $$STATUS

# The same smoke tier over inproc:// comms: the scheduler and a coroutine
# worker fleet share one process and event loop -- no sockets, no forks --
# but the frames, scheduling (stealing + speculation) and digests are the
# same.  Mirrors the CI distributed-smoke inproc matrix leg.
distributed-smoke-inproc:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke \
		--executor inproc://

# Stress leg: a 32-worker inproc fleet with an aggressive 1s speculation
# delay, so stealing AND speculative re-execution actually fire while the
# digests are checked (mirrors the CI distributed-stress job).
distributed-stress:
	PYTHONPATH=src $(PYTHON) -m repro.distributed run --all --smoke \
		--comm inproc --workers 32 --speculation-delay 1

# Land the same smoke campaigns twice -- once serial, once over inproc://
# comms -- in ONE columnar store, then prove the two campaigns are
# cell-for-cell identical with the compare query and re-check the paper's
# ratio bounds with the validation rules.  Part files are Parquet when the
# [analytics] extra (pyarrow) is installed and JSONL otherwise, so the
# target works in a bare checkout too.
STORE_DIR ?= .store-smoke
STORE_SCENARIOS ?= fig2.bicriteria mix.rigid-moldable

store-smoke:
	rm -rf $(STORE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run $(STORE_SCENARIOS) --smoke \
		--store $(STORE_DIR) --campaign serial
	PYTHONPATH=src $(PYTHON) -m repro.distributed run $(STORE_SCENARIOS) --smoke \
		--comm inproc --store $(STORE_DIR) --campaign inproc
	PYTHONPATH=src $(PYTHON) -m repro.store info --store $(STORE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.store compare --store $(STORE_DIR) \
		--metric cmax_ratio --campaign-a serial --campaign-b inproc
	PYTHONPATH=src $(PYTHON) -m repro.store validate --store $(STORE_DIR)

# Observation must not perturb results: run one scenario through an inproc
# fleet while HTTP pollers hammer a live dashboard, check every endpoint
# (status, topics, events, scenario index, Gantt SVG), and require the row
# digest to be bit-identical to a serial, unobserved baseline.  Mirrors
# the CI dashboard-smoke job.
dashboard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.dashboard smoke

# The distributed telemetry pipeline end to end: a recorded 4-worker tcp
# fleet must yield the same digest as an unobserved serial run, forwarded
# worker.* span events must land in the flight-recorder store, and the
# phase-attribution query must be non-empty.
# Mirrors the CI telemetry-smoke job.
telemetry-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.telemetry smoke --workers 4 --comm tcp

# ruff when available (the CI lint job installs it); plain byte-compilation
# otherwise so the target always catches syntax errors.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not found: falling back to byte-compilation only"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

ci:
	$(MAKE) lint
	$(MAKE) test
	$(MAKE) scenario-smoke

clean:
	rm -rf .pytest_cache .benchmarks .repro-cache .store-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
	find . -name "*.py[co]" -delete
