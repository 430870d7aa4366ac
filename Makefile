# Convenience targets; everything is plain dune underneath.
SHELL := /bin/bash

.PHONY: all build test bench perfcheck doc lint check telemetry replay-smoke hytm-smoke profile-smoke cache-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Hot-path lint: the event engine, coherence protocol and HTM value
# layer must stay free of polymorphic compare/max/min, generic Hashtbl
# and Printf (see tools/lint.ml for the rules and the waiver pragmas).
lint:
	dune exec tools/lint.exe -- .

# Correctness checkers (lib/check): exhaustively explore every event
# interleaving of the small canned scenarios, fuzz 200 seeded random
# schedules per scenario, and verify that each deliberately injected
# protocol mutation is caught by both the sanitizer and the explorer.
check:
	dune exec bin/lockiller_sim.exe -- check

# API docs (doc/index.mld + the interface docstrings). odoc is an
# optional dev dependency, so the target degrades to a notice when it
# is absent; when it runs, any odoc warning (broken {!reference},
# missing docstring markup, bad .mld syntax) fails the build.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  out=$$(dune build @doc 2>&1); status=$$?; \
	  if [ -n "$$out" ]; then printf '%s\n' "$$out"; fi; \
	  if [ $$status -ne 0 ]; then exit $$status; fi; \
	  if printf '%s' "$$out" | grep -qi warning; then \
	    echo "make doc: odoc warnings are treated as errors"; exit 1; \
	  fi; \
	  echo "docs built: _build/default/_doc/_html/index.html"; \
	else \
	  echo "make doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# Telemetry smoke: one sampled run exporting both the time series and
# a Perfetto trace with counter tracks, validated by the JSON checker
# (the same checks the cram suite pins byte-for-byte).
telemetry:
	rm -rf _build/telemetry-smoke && mkdir -p _build/telemetry-smoke
	dune exec bin/lockiller_sim.exe -- run -s LockillerTM -w intruder \
	  -t 4 --cores 4 --scale 0.1 --sample-interval 256 \
	  --telemetry _build/telemetry-smoke/tel.json \
	  --trace-events _build/telemetry-smoke/trace.json > /dev/null
	dune exec test/json_check.exe < _build/telemetry-smoke/tel.json
	dune exec test/json_check.exe -- --trace \
	  < _build/telemetry-smoke/trace.json
	dune exec bin/lockiller_sim.exe -- top _build/telemetry-smoke/tel.json \
	  --once > /dev/null
	rm -rf _build/telemetry-smoke
	@echo "telemetry smoke: OK"

# Replay smoke: generate an open-loop trace, replay it against two
# systems, validate the result JSON (including the open-loop block)
# with the checker, and diff the two with 'compare'. A second replay of
# the same trace must be byte-identical to the first — open-loop runs
# are as deterministic as closed-loop ones.
replay-smoke:
	rm -rf _build/replay-smoke && mkdir -p _build/replay-smoke
	dune exec bin/lockiller_sim.exe -- gen-trace --users 4000 \
	  --duration 200000 --seed 7 -o _build/replay-smoke/t.lkt
	dune exec bin/lockiller_sim.exe -- replay _build/replay-smoke/t.lkt \
	  --threads 8 --format json > _build/replay-smoke/lockiller.json
	dune exec bin/lockiller_sim.exe -- replay _build/replay-smoke/t.lkt \
	  --threads 8 -s Baseline --format json > _build/replay-smoke/base.json
	dune exec test/json_check.exe -- --result \
	  < _build/replay-smoke/lockiller.json
	dune exec test/json_check.exe -- --result \
	  < _build/replay-smoke/base.json
	dune exec bin/lockiller_sim.exe -- compare \
	  _build/replay-smoke/base.json _build/replay-smoke/lockiller.json \
	  > /dev/null
	dune exec bin/lockiller_sim.exe -- replay _build/replay-smoke/t.lkt \
	  --threads 8 --format json > _build/replay-smoke/lockiller2.json
	cmp _build/replay-smoke/lockiller.json _build/replay-smoke/lockiller2.json
	rm -rf _build/replay-smoke
	@echo "replay smoke: OK"

# Hybrid-TM smoke: the HyTM instrumentation-cost sweep (docs/HYBRID.md)
# on a tiny configuration, validated by the JSON checker, then rerun
# with a different worker count — the two outputs must be
# byte-identical: the TL2 software path and the global version clock
# are as deterministic as the rest of the model, and --jobs is an
# execution detail that may never leak into the result.
hytm-smoke:
	rm -rf _build/hytm-smoke && mkdir -p _build/hytm-smoke
	dune exec bin/lockiller_sim.exe -- experiment hytm --cores 4 \
	  --threads 2 --scale 0.1 --jobs 2 --no-cache --format json \
	  > _build/hytm-smoke/a.json
	dune exec test/json_check.exe < _build/hytm-smoke/a.json
	dune exec bin/lockiller_sim.exe -- experiment hytm --cores 4 \
	  --threads 2 --scale 0.1 --jobs 1 --no-cache --format json \
	  > _build/hytm-smoke/b.json
	cmp _build/hytm-smoke/a.json _build/hytm-smoke/b.json
	rm -rf _build/hytm-smoke
	@echo "hytm smoke: OK"

# Causal-profiler smoke: the profile subcommand end to end — text
# report, JSON validated by the checker, then the same profiled run
# re-executed on the heap event queue: the two JSON documents must be
# byte-identical, because the profiler folds the deterministic ledger
# stream and never observes engine-internal execution details.
profile-smoke:
	rm -rf _build/profile-smoke && mkdir -p _build/profile-smoke
	dune exec bin/lockiller_sim.exe -- profile -s LockillerTM -w intruder \
	  -t 8 --cores 8 --scale 0.2 > _build/profile-smoke/p.txt
	grep -q "wasted" _build/profile-smoke/p.txt
	dune exec bin/lockiller_sim.exe -- profile -s LockillerTM -w intruder \
	  -t 8 --cores 8 --scale 0.2 --format json \
	  > _build/profile-smoke/wheel.json
	dune exec test/json_check.exe < _build/profile-smoke/wheel.json
	dune exec bin/lockiller_sim.exe -- profile -s LockillerTM -w intruder \
	  -t 8 --cores 8 --scale 0.2 --format json --queue-backend heap \
	  > _build/profile-smoke/heap.json
	cmp _build/profile-smoke/wheel.json _build/profile-smoke/heap.json
	rm -rf _build/profile-smoke
	@echo "profile smoke: OK"

# Perf regression gate: rerun the event-engine microbenchmarks and
# compare against the committed baseline — a 2x band on the
# deterministic allocation metrics (tight enough to catch a
# reintroduced hot-loop allocation) and a 3x band on wall-clock
# throughput (wide enough for host CPU steal; a lost wheel fast path
# costs 4x and more).
perfcheck:
	dune exec bench/main.exe -- --micro --format json --scale 0.1
	dune exec bench/perfcheck.exe -- BENCH_micro.json bench/baseline.json

# Result-cache smoke: a cold-vs-warm run of the parallel experiment
# harness against a throwaway cache. The warm run must report zero
# simulations and print the same tables; the diff filters the
# nondeterministic lines: render/wall times ("rendered in", "perf:")
# and the cache-hit counts ("simulations:").
cache-smoke:
	rm -rf _build/cache-smoke && mkdir -p _build/cache-smoke
	dune exec bench/main.exe -- fig7 --scale 0.1 --jobs 2 \
	  --cache-dir _build/cache-smoke/cache > _build/cache-smoke/cold.out
	dune exec bench/main.exe -- fig7 --scale 0.1 --jobs 2 \
	  --cache-dir _build/cache-smoke/cache > _build/cache-smoke/warm.out
	grep -q "(simulations: 0," _build/cache-smoke/warm.out
	diff <(grep -v "rendered in\|simulations:\|perf:" _build/cache-smoke/cold.out) \
	     <(grep -v "rendered in\|simulations:\|perf:" _build/cache-smoke/warm.out)
	rm -rf _build/cache-smoke
	@echo "cache smoke: OK"

# What CI runs: full build + every test suite, the checkers, the
# smokes and finally the perf gate.
ci:
	dune build
	$(MAKE) lint
	dune runtest
	$(MAKE) check
	$(MAKE) doc
	$(MAKE) cache-smoke
	$(MAKE) telemetry
	$(MAKE) replay-smoke
	$(MAKE) hytm-smoke
	$(MAKE) profile-smoke
	$(MAKE) perfcheck

clean:
	dune clean
