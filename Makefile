GO ?= go

.PHONY: build test vet lint race chaos storm obs-smoke wire-smoke serve-smoke check bench bench-smoke bench-run pairs profile bench-json bench-compare loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the determinism contracts of
# DESIGN.md §9, enforced by cmd/lbvet, plus a gofmt gate.
lint:
	$(GO) run ./cmd/lbvet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Full race-detector pass; includes the obs-instrumented chaos tests,
# which is how we prove the tracer and metrics add no data races.
race:
	$(GO) test -race ./...

# The fault-injection part of `race`, on its own: seeded drop/dup/
# delay/straggler plans against the transport, the ack/retry layer, and
# the distributed balancer end-to-end (including the faulted-equals-
# fault-free and delay-window bit-determinism checks, and the
# 1024-rank collective storm); plus the inbox ownership tests, the
# exhaustive interleaving check of its state word, and the 2 000-phase
# service soak (its allocation bounds are checked without -race).
chaos:
	$(GO) test -race -run 'Chaos|Fault|Determinism|Ownership|Owned|StateWord|Soak' ./...

# Just the paper-scale collective stress: 1024 ranks storm the k-ary
# reduction tree (barriers, vector reduces, a scalar max) interleaved
# with epoch traffic under a 10% drop/dup plan with delayed delivery,
# race detector on.
storm:
	$(GO) test -race -count=1 -run 'TestChaosTreeCollectiveStorm1024$$' ./internal/amt/

# Observability smoke: record frames from short distributed runs on the
# real runtime (8 ranks: exact load vector; 1024 ranks: the 64 cells of
# the load summary), replay them through the lbtop renderer, and assert
# the layout goldens (internal/dash/testdata/obs_smoke*.golden; rerun
# with -update-golden after intentional schema or layout changes). Then
# the PR 7 deadlock scenario: a stream on one node of a two-node
# unix-socket job must get every frame and change no result.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsSmoke|TestRenderGolden' ./internal/dash/
	$(GO) test -count=1 -run 'TestOneNodeWatching' ./internal/lb/tempered/

# Wire smoke: one binary against itself, every job launched from a peers
# file, the only rendezvous, which names where each node listens. A real
# 2-process Unix-socket job (two `lbplay -distributed -node k` processes,
# OS sockets, separate address spaces) must produce the same
# protocol-determined DistResult as the in-memory single-process run —
# the multi-process determinism claim of DESIGN.md §10, checked end to
# end with the shipped binary — and a 3-process TCP job on fixed loopback
# ports, started in the order 2, 1, 0, must print the in-memory run's
# imbalance line on every node.
# Rounds is pinned to 1: see the determinism argument in §10.
WIRE_SMOKE_ARGS = -distributed -ranks 12 -tasks 60 -seed 3 -rounds 1
WIRE_SMOKE_UNIX = $(WIRE_SMOKE_ARGS) -transport unix -nodes 2 -peers .wire-smoke/peers
WIRE_SMOKE_TCP = $(WIRE_SMOKE_ARGS) -transport tcp -nodes 3 -peers .wire-smoke/tcp-peers
wire-smoke:
	@rm -rf .wire-smoke && mkdir .wire-smoke
	$(GO) build -o .wire-smoke/ ./cmd/lbplay
	./.wire-smoke/lbplay $(WIRE_SMOKE_ARGS) -result .wire-smoke/memory.json 2>/dev/null | grep '^imbalance' > .wire-smoke/memory.txt
	@printf '0 .wire-smoke/n0.sock\n1 .wire-smoke/n1.sock\n' > .wire-smoke/peers
	./.wire-smoke/lbplay $(WIRE_SMOKE_UNIX) -node 1 >/dev/null 2>&1 & \
	./.wire-smoke/lbplay $(WIRE_SMOKE_UNIX) -node 0 -result .wire-smoke/wire.json >/dev/null 2>&1 && wait
	diff .wire-smoke/memory.json .wire-smoke/wire.json
	@printf '0 127.0.0.1:39099\n1 127.0.0.1:39100\n2 127.0.0.1:39101\n' > .wire-smoke/tcp-peers
	for k in 2 1 0; do ./.wire-smoke/lbplay $(WIRE_SMOKE_TCP) -node $$k 2>/dev/null | grep '^imbalance' > .wire-smoke/tcp$$k.txt & done; wait
	for k in 0 1 2; do diff .wire-smoke/memory.txt .wire-smoke/tcp$$k.txt || exit 1; done
	@rm -rf .wire-smoke
	@echo "wire-smoke: 2-process unix-socket DistResult identical to in-memory; 3-process tcp job from one peers file agrees on every node"

# Serve smoke: a short deterministic run of the online balancer
# service must reproduce the committed trigger-decision log byte for
# byte (cmd/lbserve/testdata/serve_smoke.golden), and the same run over
# Unix- and TCP-socket clusters must match the in-memory log exactly —
# the rank-identical trigger claim of DESIGN.md §11, checked with the
# shipped binary. Then the tuner: `-tune forecast` on the same scenario
# runs that service once per candidate, so its forecast:headroom=1 row
# must carry the fires and total cost of the golden's summary line.
# Regenerate the golden with lbserve after intentional format or
# scenario changes.
SERVE_SMOKE_SCENARIO = -scenario burst -ranks 8 -phases 24 -items 48 -seed 7
SERVE_SMOKE_ARGS = $(SERVE_SMOKE_SCENARIO) -trigger forecast
serve-smoke:
	@rm -rf .serve-smoke && mkdir .serve-smoke
	$(GO) build -o .serve-smoke/ ./cmd/lbserve
	./.serve-smoke/lbserve $(SERVE_SMOKE_ARGS) > .serve-smoke/memory.log
	diff cmd/lbserve/testdata/serve_smoke.golden .serve-smoke/memory.log
	./.serve-smoke/lbserve $(SERVE_SMOKE_ARGS) -transport unix -nodes 3 > .serve-smoke/unix.log
	diff .serve-smoke/memory.log .serve-smoke/unix.log
	./.serve-smoke/lbserve $(SERVE_SMOKE_ARGS) -transport tcp -nodes 2 > .serve-smoke/tcp.log
	diff .serve-smoke/memory.log .serve-smoke/tcp.log
	./.serve-smoke/lbserve $(SERVE_SMOKE_SCENARIO) -tune forecast | awk '$$1 == "forecast:headroom=1" { print $$3, $$9 }' > .serve-smoke/tuned.txt
	awk '/^# fires/ { print $$3, $$11 }' cmd/lbserve/testdata/serve_smoke.golden | diff - .serve-smoke/tuned.txt
	@rm -rf .serve-smoke
	@echo "serve-smoke: trigger log matches golden, is identical on memory/unix/tcp, and is the tuner's row"

# The CI gate: static analysis (go vet and the project's lbvet
# analyzers), the race-enabled suite (of which chaos and storm are
# subsets, kept as targets for local use), the observability, wire and
# serve smokes, one iteration of every benchmark of the root package and
# inside internal/ (so they cannot rot), and the benchmark regression diff
# against the committed trajectory.
check: vet lint race obs-smoke wire-smoke serve-smoke bench-smoke bench-compare

bench:
	$(GO) test -bench . -benchmem ./...

# Run each benchmark of the root package — the harness of every E and A
# row of DESIGN.md §4 — and of the internal packages once: a
# compile-and-run check, not a measurement. BenchmarkRow is skipped: its
# sub-benchmarks are the BENCH_lb.json rows, which bench-compare runs.
bench-smoke:
	$(GO) test -run '^$$' -skip Row -bench . -benchtime 1x . ./internal/...

# One run of the repository's benchmark (BENCHMARK.json, bench/README.md)
# on this checkout: a wrapper around bench/run.sh and nothing else, so a
# performance claim is the same one command on the parent commit and on
# the change. TRACE=1 prints the per-layer metrics instead.
WORKLOAD ?= serve_burst_64_unix
SEED ?= 1
TRACE ?= 0
bench-run:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 26 --trace $(TRACE)

# A performance claim's evidence: N alternating pairs of bench-run, this
# checkout against PARENT — a checkout of the parent commit (git clone,
# then check the sha out) — on seeds SEED, SEED+1, …; the order flips with
# the seed's parity. Prints every pair, then each side's quartiles and
# the pairs it won, per end-to-end metric (scripts/pairs.sh).
N ?= 10
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=<parent checkout> [WORKLOAD=$(WORKLOAD) SEED=$(SEED) N=$(N)]"; exit 2; }
	sh scripts/pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(N)

# CPU and allocation profiles of root-package benchmarks matching BENCH
# (BenchmarkPaperCase is workload A of bench/, which has no profile flag;
# BenchmarkRow/<name> is one BENCH_lb.json row), written with the test
# binary under $(TMPDIR) — never into the repo:
#   make profile BENCH=PaperCase BENCHTIME=2x
#   make profile BENCH='Row/gossip_epoch_1024' BENCHTIME=25x
# and prints the two commands that read them: CPU time, and bytes
# allocated per site (alloc_space).
BENCH ?= PaperCase
BENCHTIME ?= 1x
TMPDIR ?= /tmp
PROFILE_DIR = $(TMPDIR)/temperedlb-profile
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/temperedlb.test .
	$(PROFILE_DIR)/temperedlb.test -test.run '^$$' -test.bench '$(BENCH)' -test.benchtime $(BENCHTIME) -test.benchmem \
		-test.outputdir $(PROFILE_DIR) -test.cpuprofile cpu.prof -test.memprofile mem.prof
	@echo "profiles: $(PROFILE_DIR)/cpu.prof $(PROFILE_DIR)/mem.prof (binary $(PROFILE_DIR)/temperedlb.test)"
	@echo "  cpu:   $(GO) tool pprof -top $(PROFILE_DIR)/temperedlb.test $(PROFILE_DIR)/cpu.prof"
	@echo "  alloc: $(GO) tool pprof -sample_index=alloc_space -top $(PROFILE_DIR)/temperedlb.test $(PROFILE_DIR)/mem.prof"

# Regenerate BENCH_lb.json, the machine-readable perf trajectory
# (ns/op, B/op, allocs/op per recorded configuration).
bench-json:
	BENCH_JSON=1 $(GO) test -run TestWriteBenchJSON -v .

# Rerun the BENCH_lb.json suite and fail on >20% B/op or allocs/op
# regression against the committed file (override the tolerance with
# BENCH_TOLERANCE=0.30); ns/op deltas are logged, not gated — they
# depend on the host that recorded the file.
bench-compare:
	BENCH_COMPARE=1 $(GO) test -run TestBenchCompare -v .

# How much code there is: non-test Go lines per package (bench/ is the
# benchmark, not the product; go list already skips testdata and
# dot-directories), their total, the number of identifiers the root
# package exports (package-level funcs, types, vars and consts of the
# gofmt-formatted non-test files), and the command-line flags declared
# under cmd/ (every x.Int / x.StringVar / … call, on any receiver, that
# names its flag; a name declared twice is a vocabulary drifting apart —
# the shared ones live once in cmd/internal/cli), the non-test interface
# types, and four option counts: the exported fields a caller can set on
# the balancer (core.Config and core.EngineConfig), on a fault plan
# (comm.FaultSpec) and on a socket transport (wire.Config) — a line
# `A, B int` counts two — and the binaries (directories under cmd/ other
# than internal). A PR that says "simpler" or "fewer options" quotes this.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | grep -v '^temperedlb/bench ' | \
	while read pkg dir files; do \
		printf '%-40s %6d\n' $$pkg $$(cd $$dir && cat $$files | wc -l); \
	done | awk '{ print; total += $$2 } END { printf "%-40s %6d\n", "total", total }'
	@ls *.go | grep -v _test.go | xargs awk ' \
		/^func [A-Z]/ || /^(type|var|const) [A-Z]/ { n++ } \
		/^(type|var|const) \($$/ { group = 1; next } \
		/^\)/ { group = 0 } \
		group && /^\t[A-Z]/ { sub(/=.*/, ""); n += split($$0, names, ",") } \
		END { printf "%-40s %6d\n", "temperedlb exported identifiers", n }'
	@find cmd -name '*.go' ! -name '*_test.go' | xargs grep -ohE \
		'\b[a-zA-Z_]+\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(([^"()]*, )?"[^"]+"' | \
		sed 's/"$$//; s/.*"//' | sort | uniq -c | \
		awk '{ n += $$1 } END { printf "%-40s %6s\n", "flag declarations / distinct names", n " / " NR }'
	@{ find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v _test.go; } | \
		xargs grep -hE '^type [A-Za-z]* interface' | \
		awk 'END { printf "%-40s %6d\n", "interface types (non-test)", NR }'
	@awk '/^type Config struct/ { on = 1; next } on && /^}/ { exit } \
		on && /^\t[A-Z]/ { n++; while (sub(/^\t[A-Za-z0-9_]+, */, "\t")) n++ } \
		END { printf "%-40s %6d\n", "core.Config fields", n }' internal/core/config.go
	@awk '/^type EngineConfig struct/ { on = 1; next } on && /^}/ { exit } \
		on && /^\t[A-Z]/ { n++; while (sub(/^\t[A-Za-z0-9_]+, */, "\t")) n++ } \
		END { printf "%-40s %6d\n", "core.EngineConfig fields", n }' internal/core/engine.go
	@awk '/^type FaultSpec struct/ { on = 1; next } on && /^}/ { exit } \
		on && /^\t[A-Z]/ { n++; while (sub(/^\t[A-Za-z0-9_]+, */, "\t")) n++ } \
		END { printf "%-40s %6d\n", "comm.FaultSpec fields", n }' internal/comm/fault.go
	@awk '/^type Config struct/ { on = 1; next } on && /^}/ { exit } \
		on && /^\t[A-Z]/ { n++; while (sub(/^\t[A-Za-z0-9_]+, */, "\t")) n++ } \
		END { printf "%-40s %6d\n", "wire.Config fields", n }' internal/comm/wire/transport.go
	@ls cmd | grep -vc '^internal$$' | awk '{ printf "%-40s %6d\n", "binaries", $$1 }'
