# Developer entry points. `make check` is the pre-merge gate: format
# (when ocamlformat is installed), build, full test suite, the simlint
# determinism gate, and a 10k-tick end-to-end smoke that a run report is
# written and parses.

.PHONY: all build test fmt lint baseline-update check smoke fuzz-smoke mc-smoke \
	sweep-smoke bench-smoke bench-scale bench-diff trace-smoke perf-smoke clean

# Worker count for the parallel targets below. Results are byte-identical
# for any J (see DESIGN.md, "Parallel execution & determinism contract"),
# so this only affects wall-clock.
J ?= 2

# Relative-slowdown gate for bench-diff: an experiment regresses when its
# fresh median exceeds THRESHOLD x the committed median. CI passes a more
# generous value (shared runners are noisy); see .github/workflows/ci.yml.
BENCH_THRESHOLD ?= 1.5

all: build

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# Determinism & simulation-hygiene gate (rules D001-D018; see DESIGN.md).
# Exits non-zero on any finding that is neither suppressed in-source nor
# listed in tools/simlint/baseline.json, or when a baseline entry is
# stale. Also emits the SARIF 2.1.0 form for CI code-scanning upload.
# Optionally restrict to a rule subset: make lint RULES=D014,D016
lint: build
	dune exec tools/simlint/main.exe -- --root . --sarif _build/simlint.sarif $(if $(RULES),--only $(RULES))

# Re-record tools/simlint/baseline.json from the current findings
# (deterministic output; review the diff before committing).
baseline-update: build
	dune exec tools/simlint/main.exe -- --root . --baseline-update

smoke: build
	dune exec bin/dinersim.exe -- extract --horizon 10000 --report /tmp/dinersim-smoke.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke.json

# Bounded schedule-fuzzing campaign over the real algorithms (fixed root
# seed, so the exact same configs every time; -j only changes wall-clock,
# never the report body). Exits non-zero if any run violates a dining
# property.
fuzz-smoke: build
	dune exec bin/dinersim.exe -- fuzz --runs 200 --seed 0xF5EED --max-horizon 6000 \
		-j $(J) --report /tmp/dinersim-fuzz-smoke.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-fuzz-smoke.json

# Bounded exhaustive model check of a known-good instance: every one of
# the 256 schedules a dls(delta=2,phi=1) adversary can produce for wf on
# a pair within 12 ticks, all dining monitors green. Exits non-zero on
# any violation; the dinersim-mc/1 report is re-parsed as a round-trip
# check (and uploaded as a CI artifact).
mc-smoke: build
	dune exec bin/dinersim.exe -- check --algo wf --topology pair --horizon 12 \
		--delta 2 --phi 1 --eat-ticks 1 --seed 0x5EED -j $(J) \
		--out /tmp/dinersim-mc-repro --report /tmp/dinersim-mc-smoke.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-mc-smoke.json

# Stress grids of the two ◇P-based schedulers: 648 (topology, adversary,
# crash pattern, seed) configs each through the dining registry, checking
# wait-freedom and ◇WX on every run. sweep.exe exits non-zero on any
# failing config. Reports go under _build/; their body is byte-identical
# for any J.
sweep-smoke: build
	dune exec stress/sweep.exe -- wf _build/sweep-smoke-wf.json -j $(J)
	dune exec stress/sweep.exe -- kfair _build/sweep-smoke-kfair.json -j $(J)

# Refresh the committed benchmark snapshot. Medians over --trials runs;
# the extra trials execute on the worker pool, and the recorded `jobs`
# field documents the pool width used for the refresh.
bench-smoke: build
	dune exec bench/main.exe -- --trials 3 -j $(J)

# Engine scaling curve, n = 10^2..10^5 (ring of hygienic diners, fixed
# total proc-tick budget — see DESIGN.md "Engine at scale"). Written to
# its own file so a partial-suite run never clobbers the committed
# full-suite snapshot that bench-diff compares against; the scale keys
# also live in the full suite, so regressions are gated there.
bench-scale: build
	dune exec bench/main.exe -- scale2 scale3 scale4 scale5 \
		--trials 3 -j $(J) --out _build/bench-scale.json

# Perf-regression gate: stash the committed snapshot, run a fresh
# bench-smoke (which overwrites BENCH_dining.json in place), and diff the
# two medians. Exits non-zero when any experiment slowed down by more
# than BENCH_THRESHOLD x, or dropped out of the suite. The machine diff
# lands in _build/benchdiff.json (uploaded as a CI artifact).
bench-diff: build
	cp BENCH_dining.json _build/bench-baseline.json
	$(MAKE) bench-smoke
	dune exec tools/benchdiff/main.exe -- _build/bench-baseline.json BENCH_dining.json \
		--threshold $(BENCH_THRESHOLD) --json _build/benchdiff.json

# End-to-end smoke of the Perfetto exporter: render a corpus repro
# artifact and a freshly streamed JSONL trace, then sanity-check both
# documents parse back.
trace-smoke: build
	dune exec bin/dinersim.exe -- trace test/corpus/family-sync.json \
		-o /tmp/dinersim-trace-smoke.perfetto.json
	dune exec bin/dinersim.exe -- dining --seed 41 --horizon 3000 \
		--trace-out /tmp/dinersim-trace-smoke.jsonl > /dev/null
	dune exec bin/dinersim.exe -- trace /tmp/dinersim-trace-smoke.jsonl

# One untimed pass over each workload of the repo benchmark (BENCHMARK.json,
# perfbench/): --seconds 0 runs a single repetition and --trace 0 skips the
# per-layer run. Each workload checks its own outputs; fails unless the
# last line of every run reports "correct": true.
PERF_WORKLOADS = dining-long scale-ring mc-check

perf-smoke: build
	@for w in $(PERF_WORKLOADS); do \
		echo "perf-smoke: $$w"; \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 0 --trace 0 \
			> _build/perf-smoke-$$w.txt || exit 1; \
		tail -n 1 _build/perf-smoke-$$w.txt | python3 -c \
			'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)' \
			|| { cat _build/perf-smoke-$$w.txt; echo "perf-smoke: $$w is not correct"; exit 1; }; \
	done

check: fmt build test lint smoke fuzz-smoke mc-smoke trace-smoke
	@echo "check: OK"

clean:
	dune clean
