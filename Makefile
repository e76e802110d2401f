# Record-Boundary Discovery in Web Documents — build targets.

GO ?= go

.PHONY: all build test testshort race shuffle cover cover-pipeline cover-eval bench bench-smoke bench-gate throughput-gate evalrun quality-gate cluster obs-smoke obs-gates wrapper-smoke membership-smoke fuzz chaos experiments corpus examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

testshort:
	$(GO) test -short ./...

# The CI configuration (.github/workflows/ci.yml) runs this; the metrics
# registry and HTTP middleware are exercised concurrently by their tests.
race:
	$(GO) test -race ./...

# Shuffled double run: catches inter-test ordering dependencies and
# leftover-state bugs that a fixed order hides. CI runs this on every push.
shuffle:
	$(GO) test -shuffle=on -count=2 ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Coverage gate for the bulk-ingestion engine: the resumability and retry
# invariants live there, so its statement coverage must stay at or above 80%.
cover-pipeline:
	$(GO) test -coverprofile=pipeline_cover.out ./internal/pipeline/
	@total=$$($(GO) tool cover -func=pipeline_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/pipeline statement coverage: $$total%"; \
	awk "BEGIN{exit !($$total >= 80.0)}" || { \
		echo "FAIL: internal/pipeline coverage $$total% is below the 80% floor"; exit 1; }

# Coverage gate for the evaluation harness: the leaderboard, the
# structural-match metric, and the quality gate decide what "no worse than
# the baseline" means, so their statement coverage must stay at or above 80%.
cover-eval:
	$(GO) test -coverprofile=eval_cover.out ./internal/eval/
	@total=$$($(GO) tool cover -func=eval_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/eval statement coverage: $$total%"; \
	awk "BEGIN{exit !($$total >= 80.0)}" || { \
		echo "FAIL: internal/eval coverage $$total% is below the 80% floor"; exit 1; }

# Full benchmark run, archived as BENCH_<n>.json (next free index) via
# cmd/benchjson so runs can be diffed across commits. CI runs the cheaper
# bench-smoke variant on every push. Raw output goes under the git-ignored
# $(BENCH_DIR) — only the distilled BENCH_<n>.json belongs in the tree.
BENCH_DIR ?= .bench
bench:
	mkdir -p $(BENCH_DIR)
	$(GO) test -bench=. -benchmem ./... | tee $(BENCH_DIR)/bench_output.txt
	n=0; for f in BENCH_*.json; do \
		[ -e "$$f" ] || continue; \
		i=$${f#BENCH_}; i=$${i%.json}; \
		case "$$i" in *[!0-9]*) continue;; esac; \
		[ "$$i" -ge "$$n" ] && n=$$((i+1)); \
	done; \
	$(GO) run ./cmd/benchjson -in $(BENCH_DIR)/bench_output.txt -out BENCH_$$n.json && \
	echo "wrote BENCH_$$n.json"

# The one-iteration smoke CI runs: catches benchmarks that crash or hang
# without paying for a full measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Perf-regression gate: a fresh measurement of the core benchmarks compared
# against the newest committed BENCH_<n>.json; any benchmark more than 30%
# slower than the baseline fails (speed-ups and new benchmarks are
# informational). Each benchmark is measured 3 times and benchjson folds
# the repeats to the fastest run, so a GC cycle or scheduler hiccup landing
# inside one timed window cannot fail the gate on its own.
# BENCH_BASELINE / BENCH_TOLERANCE override the defaults.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCH_TOLERANCE ?= 0.30
bench-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_<n>.json baseline committed"; exit 1; }
	@echo "comparing against $(BENCH_BASELINE) (tolerance $(BENCH_TOLERANCE))"
	mkdir -p $(BENCH_DIR)
	$(GO) test -bench=. -benchmem -count=3 -run='^$$' . ./internal/core/ ./internal/heuristic/ | \
		tee $(BENCH_DIR)/bench_gate_output.txt | \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)

# Throughput gate for the byte-level hot path: the whole-corpus MB/s
# macro-benchmark compared against the committed baseline. benchjson diffs
# SetBytes benchmarks on MB/s (payload-invariant), so corpus growth does not
# read as a regression; a real throughput loss beyond the tolerance fails.
# CI runs this as its own job — see .github/workflows/ci.yml.
throughput-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_<n>.json baseline committed"; exit 1; }
	@echo "comparing against $(BENCH_BASELINE) (tolerance $(BENCH_TOLERANCE))"
	mkdir -p $(BENCH_DIR)
	$(GO) test -bench='^BenchmarkCorpusThroughput$$' -benchmem -count=3 -run='^$$' . | \
		tee $(BENCH_DIR)/throughput_gate_output.txt | \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)

# Full leaderboard run over the 220-document corpus, archived as
# QUALITY_<n>.json (next free index) — the quality counterpart of `bench`.
# Commit the new file alongside the code change that justified it.
evalrun:
	n=0; for f in QUALITY_*.json; do \
		[ -e "$$f" ] || continue; \
		i=$${f#QUALITY_}; i=$${i%.json}; \
		case "$$i" in *[!0-9]*) continue;; esac; \
		[ "$$i" -ge "$$n" ] && n=$$((i+1)); \
	done; \
	$(GO) run ./cmd/evalrun -out QUALITY_$$n.json

# Quality-regression gate: a fresh leaderboard run compared against the
# newest committed QUALITY_<n>.json; any tracked extractor whose F1 (exact
# or forgiving) dropped more than 2 absolute points fails (improvements and
# new extractors are informational). Everything is deterministic, so unlike
# bench-gate there is no noise to fold away.
# QUALITY_BASELINE / QUALITY_TOLERANCE override the defaults.
QUALITY_BASELINE ?= $(lastword $(sort $(wildcard QUALITY_*.json)))
QUALITY_TOLERANCE ?= 0.02
quality-gate:
	@test -n "$(QUALITY_BASELINE)" || { echo "no QUALITY_<n>.json baseline committed"; exit 1; }
	@echo "comparing against $(QUALITY_BASELINE) (tolerance $(QUALITY_TOLERANCE))"
	$(GO) run ./cmd/evalrun -compare $(QUALITY_BASELINE) -tolerance $(QUALITY_TOLERANCE)

# The cluster-mode serving tier (see docs/SCALING.md) under the race
# detector: routing/conformance suites, the chaos scenarios (hedging, peer
# death, total backend loss), and the cmd/serve cluster-mode boot test.
cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestClusterConformance' -v .
	$(GO) test -race -run 'TestServeCluster' ./cmd/serve/

# Observability smoke (see docs/OBSERVABILITY.md): boots cmd/serve in
# cluster mode, makes a traced request, and checks /metrics and
# /metrics/cluster parse as Prometheus exposition and /debug/traces returns
# the stitched trace — plus the trace/federation unit suites under -race.
obs-smoke:
	$(GO) test -race -run 'TestObservabilitySmoke' -v ./cmd/serve/
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'Trace|Federat|Explain' ./internal/cluster/

# What instrumentation costs (see docs/OBSERVABILITY.md), without -race:
# the race detector's own allocations and slowdown make these gates skip
# there. A repeated registry lookup allocates nothing, a warmed registry
# adds no allocation to discovery, the deployed cache-miss ceiling, and
# the in-run observed/bare throughput ratios.
obs-gates:
	$(GO) test -count=1 -run 'TestRepeatedLookupAllocs' ./internal/obs/
	$(GO) test -count=1 -run 'TestDiscoverAllocs|TestDiscoverCacheMissAllocs|TestObservedThroughputGate' -v .

# Learned-wrapper smoke (see docs/WRAPPER.md): boots cmd/serve with a
# wrapper store on disk, sends the same document twice, and checks the
# second answer came byte-identical off the template fast path — then
# restarts on the same journal and checks the wrapper survived. Plus the
# store/fingerprint unit suites and the fast-path conformance layer, all
# under -race.
wrapper-smoke:
	$(GO) test -race -run 'TestWrapperSmoke' -v ./cmd/serve/
	$(GO) test -race ./internal/template/
	$(GO) test -race -run 'TestTemplateFastPathConformance' .

# Dynamic-membership smoke (see docs/MEMBERSHIP.md): boots a three-node
# gossip fleet on ephemeral ports, proves every node answers byte-identical
# to a single node, kills one node, restarts it under the same name, and
# requires it to rejoin warm — wrapper state pulled from a neighbor, result
# cache replayed from its journal. Plus the membership/state-transfer unit
# suites and the root churn-conformance layer, all under -race.
membership-smoke:
	$(GO) test -race -run 'TestMembershipSmoke' -v ./cmd/serve/
	$(GO) test -race ./internal/membership/
	$(GO) test -race -run 'TestChurn' .

# Brief fuzz sessions over every fuzz target (seeds always run under `test`).
fuzz:
	$(GO) test -fuzz='^FuzzTokenize$$' -fuzztime=30s ./internal/htmlparse/
	$(GO) test -fuzz='^FuzzTokenizeXML$$' -fuzztime=30s ./internal/htmlparse/
	$(GO) test -fuzz='^FuzzDecodeEntities$$' -fuzztime=30s ./internal/htmlparse/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzParseXML$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzByteVsStringParse$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/ontology/
	$(GO) test -fuzz='^FuzzDiscoverRequest$$' -fuzztime=30s ./internal/httpapi/
	$(GO) test -fuzz='^FuzzDecodeRequestVsEncodingJSON$$' -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz='^FuzzFingerprintDoc$$' -fuzztime=30s ./internal/template/
	$(GO) test -fuzz='^FuzzRecognizeVsReference$$' -fuzztime=30s ./internal/recognizer/

# The fault-injection chaos suite (see docs/ROBUSTNESS.md) under the race
# detector: isolated heuristic panics, mid-batch cancellation, load
# shedding, resource limits, and singleflight dedup.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/httpapi/
	$(GO) test -race -run 'Panic|Canceled|Fault|Limits' ./internal/core/ ./internal/tagtree/

# Regenerate every table of the paper, plus quality, scaling, and the
# threshold ablation.
experiments:
	$(GO) run ./cmd/experiments -scaling -ablation

corpus:
	$(GO) run ./cmd/gencorpus -out corpus

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/obituaries
	$(GO) run ./examples/carads
	$(GO) run ./examples/jobads
	$(GO) run ./examples/courses
	$(GO) run ./examples/xmlfeed

clean:
	rm -rf corpus cover.out pipeline_cover.out eval_cover.out test_output.txt bench_output.txt $(BENCH_DIR)
