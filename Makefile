# Tier-1 verification is `make check`: build, format check (when
# ocamlformat is available — the sealed container does not ship it),
# and the full test suite.

.PHONY: all build test fmt check golden-update fuzz isegen-fuzz reconfig-fuzz mlgp-fuzz faults parallel-stress metrics-smoke daemon-smoke chaos clean

all: build

build:
	dune build

test:
	dune runtest

# `dune build @fmt` requires ocamlformat; skip with a notice when the
# toolchain lacks it so `make check` stays runnable everywhere.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

check: build fmt test

# Regenerate the golden corpus (test/golden/) after a *deliberate*
# output change: re-emit the request set, record the sequential
# solver's responses as the new expected outputs, and re-record the
# untimed experiments' text (test/golden/experiments/; f5.3 is checked
# by CI, the rest by test_golden).  Review the diff — the goldens exist
# to make silent drift loud.
GOLDEN_EXPERIMENTS = t3.1 f3.1 f3.2 f3.3 f3.4 t4.1 f4.4 t5.1 t5.2 f5.3 \
  f6.4 t6.2 f6.10 t7.1 f7.4 a2 a3
golden-update: build
	dune exec test/golden_gen.exe > test/golden/cases.jsonl
	dune exec bin/isecustom.exe -- batch --no-cache --sequential \
	  --out test/golden/expected.jsonl test/golden/cases.jsonl
	for id in $(GOLDEN_EXPERIMENTS); do \
	  dune exec bin/isecustom.exe -- experiment --no-cache $$id \
	    > test/golden/experiments/$$id.txt || exit 1; \
	done

# Property-based differential fuzzing (lib/check): every solver vs its
# brute-force oracle on SEED-replayable random instances, BUDGET cases
# per property.  Failures shrink to repro-*.json (git-ignored).
SEED ?= 42
BUDGET ?= 1000
fuzz:
	dune exec bin/isecustom.exe -- check --seed $(SEED) --budget $(BUDGET)

# The ISEGEN differential suite alone: iterative-generator legality,
# the 90%-of-oracle floor on small DFGs, anytime guard cuts, the
# auto-dispatch switch and the hardware cost backends.
isegen-fuzz:
	dune exec bin/isecustom.exe -- check --suite isegen --seed $(SEED) \
	  --budget $(BUDGET)

# The Chapter 6-7 differential suite alone: every reconfig and
# rtreconfig solver against its kept reference (Check.Oracle), and the
# index-based evaluators against Problem/Model on random placements.
reconfig-fuzz:
	dune exec bin/isecustom.exe -- check --suite reconfig --seed $(SEED) \
	  --budget $(BUDGET)

# The Chapter 5 differential suite alone: MLGP against its kept
# reference (Check.Oracle.Mlgp_ref) on random DFGs and Blockgen blocks,
# with and without refinement, under tight port limits.
mlgp-fuzz:
	dune exec bin/isecustom.exe -- check --suite iterative --seed $(SEED) \
	  --budget $(BUDGET)

# Fault-injection run (lib/engine/fault): first fire every injection
# point deterministically and assert each is survived, then run the
# whole differential suite with random faults raining on the cache,
# the worker pool and the resource guards — everything must still pass
# (properties that assert exactness skip themselves under injection).
FAULT_SPEC ?= seed=42,cache.write=0.2,cache.read=0.2,cache.truncate=0.2,parallel.worker=0.2,guard.exhaust=0.01
faults: build
	dune exec bin/isecustom.exe -- check faults
	dune exec bin/isecustom.exe -- check --seed $(SEED) --budget 200 \
	  --fault-spec "$(FAULT_SPEC)"

# Pool stress: the work-stealing pool's own test binary, the pooled
# map_result == sequential-fold property at 4 jobs under random fault
# specs, and the full fault-injection run.
parallel-stress: build
	dune exec test/test_pool.exe
	dune exec bin/isecustom.exe -- check --suite parallel --seed $(SEED) \
	  --budget 200
	$(MAKE) faults

# Observability smoke: scrape /metrics + /healthz from a live
# `serve --metrics-port` daemon after two golden batch passes, assert
# warm cache hits on a `stats --prometheus` rerun, then assert a
# faulted run leaves a crash flight recording (scripts/metrics_smoke.sh).
metrics-smoke: build
	sh scripts/metrics_smoke.sh

# Daemon smoke: run the golden corpus through a live `isecustom serve`
# via `batch --connect` (cold and memo-warm), require byte-identity
# with the sequential reference, scrape the daemon metric families,
# then SIGTERM and require a graceful drain (scripts/daemon_smoke.sh).
daemon-smoke: build
	sh scripts/daemon_smoke.sh

# Chaos harness: a live `isecustom serve` under seeded fault injection
# vs hostile clients (garbage, oversized, slow-loris, aborts), a
# SIGKILL client storm and a SIGKILLed sibling cache writer — surviving
# responses must stay byte-identical to the golden corpus, with no
# wedged threads, no fd leaks and a clean drain afterwards
# (scripts/chaos_smoke.sh; seed via CHAOS_SEED, bounded ~30s).
CHAOS_SEED ?= 42
chaos: build
	CHAOS_SEED=$(CHAOS_SEED) sh scripts/chaos_smoke.sh

clean:
	dune clean
