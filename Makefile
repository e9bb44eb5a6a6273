GO ?= go

.PHONY: build test race vet fmt bench bench-json bench-par bench-compare bench-smoke fuzz-smoke loc no-string-keys one-forwarding-rule one-clock one-route daemon-smoke obs-smoke cluster-smoke durable-smoke chaos check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The bounded package runs in short mode: its three-subchain differential
# against the built encodings takes a minute under the race detector and
# races nothing; `make test` runs it in full.
race:
	$(GO) test -race ./internal/obs/... ./internal/sched/... ./internal/psioa/... ./internal/pca/... ./internal/core/... ./internal/insight/... ./internal/engine/... ./internal/cluster/... ./cmd/dsed/...
	$(GO) test -race -short ./internal/bounded/...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would change a Go file that git tracks (or would
# track: untracked files that are not ignored count too), and lists them.
fmt:
	@out=$$(git ls-files -co --exclude-standard '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-json runs the full experiment suite and records machine-readable
# results (id, verdict, pass, elapsed_us, table rows — one JSON object per
# line). Compare two recordings with scripts/bench_compare.sh; see
# docs/PERFORMANCE.md.
bench-json:
	$(GO) run ./cmd/dsebench -json BENCH_16.json

# bench-par runs the kernels across worker counts (1, 2, 4, 8) at GOMAXPROCS
# 1 and at the host default: the sharded expansion, the DAG collapse, and
# the substream sampler. Results are byte-identical at every worker count,
# so the only thing that moves between the runs is wall clock.
bench-par:
	GOMAXPROCS=1 $(GO) test -bench='Parallel|DAG' -benchtime=1x -run='^$$' .
	$(GO) test -bench='Parallel|DAG' -benchtime=1x -run='^$$' .

# bench-compare fails when the current recording (BENCH_16.json) regresses
# more than 20% against the previous baseline (BENCH_15.json).
bench-compare:
	sh scripts/bench_compare.sh BENCH_15.json BENCH_16.json

# no-string-keys guards the interned measure core's representation
# boundary: string-keyed maps are banned from the kernel files, the
# execution measure's views included. See docs/PERFORMANCE.md ("The
# interned core", "A pointer-free expansion tree").
no-string-keys:
	sh scripts/no_string_keys.sh

# one-forwarding-rule guards the one rule for automaton views: a view
# says what it views with Inner(), psioa follows Inner to the shared
# product table and to the compatibility checker (psioa.CompatAt), and no
# other code probes for CompatAt. See docs/PERFORMANCE.md ("One
# table-sharing rule").
one-forwarding-rule:
	sh scripts/one_forwarding_rule.sh

# one-clock guards the one timing mechanism: outside internal/obs a timed
# layer is timed by an obs.Call (obs.Enter … End) alone, whose one clock
# read pair feeds the span, the "<layer>.us" histogram and the job meter.
# See docs/OBSERVABILITY.md ("Timed layers").
one-clock:
	sh scripts/one_clock.sh

# one-route guards the one exact route: whether an exact answer comes from
# the state-collapsed DAG or the expansion tree is decided by insight.Exact
# alone, so outside internal/insight and internal/sched no code asks for
# the depth-oblivious capability, runs the DAG kernel or reads its
# exactness rule (E20 compares the kernels on purpose). See docs/ENGINE.md
# ("Exact routes").
one-route:
	sh scripts/one_route.sh

# bench-smoke is the short-mode wiring for check: one fast experiment
# through the -json path, self-compared through bench_compare.sh, so the
# recording and comparison tooling cannot rot.
bench-smoke:
	$(GO) run ./cmd/dsebench -only E1 -json .bench_smoke.json >/dev/null
	sh scripts/bench_compare.sh .bench_smoke.json .bench_smoke.json
	rm -f .bench_smoke.json

# fuzz-smoke runs each fuzz target for ten seconds past its checked-in
# corpus (testdata/fuzz in its package), which plain `go test` already
# replays: the prefix-ranked Priority against a reference that expands
# each template over the world's whole alphabet, the column-held
# expansion tree against a reference tree of fragments sorted by key, the
# state-collapsed DAG's exactness rule against the tree's aggregates, the
# walk of every automaton that shares a product's table against the
# same automaton walked through Sig and Trans, the one-walk Validate
# against its Explore-and-Trans version on faulty generated worlds, and
# the preserving and intrinsic transitions of generated configurations
# with creation and destruction against their key round trip through
# FromKey and Reduce. FuzzCDFSearch holds the samplers' closure-free CDF
# search and their sure-draw test to sort.Search on generated prefix sums.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzPriorityTemplates -fuzztime=10s ./internal/sched/
	$(GO) test -run '^$$' -fuzz=FuzzExpansionTree -fuzztime=10s ./internal/sched/
	$(GO) test -run '^$$' -fuzz=FuzzDAGExecs -fuzztime=10s ./internal/sched/
	$(GO) test -run '^$$' -fuzz=FuzzSharedWalk -fuzztime=10s ./internal/psioa/
	$(GO) test -run '^$$' -fuzz=FuzzValidateWalk -fuzztime=10s ./internal/psioa/
	$(GO) test -run '^$$' -fuzz=FuzzIntrinsicTrans -fuzztime=10s ./internal/pca/
	$(GO) test -run '^$$' -fuzz=FuzzCDFSearch -fuzztime=10s ./internal/measure/

# daemon-smoke starts dsed on a scratch port and runs a check through the
# HTTP API twice, asserting the second run hits the memoization cache.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# obs-smoke drives the telemetry-v2 surface end to end: dsecheck -explain
# with a JSONL trace (validated against the documented event-kind table),
# and dsed's /v1/metrics?format=prom (validated by scripts/prom_check.sh)
# and /v1/debug. See docs/OBSERVABILITY.md.
obs-smoke:
	sh scripts/obs_smoke.sh

# cluster-smoke starts a 1-coordinator + 2-worker dsed cluster on scratch
# ports and runs a two-environment check through the coordinator twice: the
# answers must be byte-identical and the second pass served from the
# workers' content-addressed stores. See docs/CLUSTER.md.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# durable-smoke SIGKILLs a dsed with a durable store directory mid-queue
# and restarts it: zero lost jobs, at least one result served from disk
# instead of recomputed. See docs/DURABILITY.md.
durable-smoke:
	sh scripts/durable_smoke.sh

# chaos runs the fault-injected suite under the race detector: worker
# panics, transient job faults, cache eviction, slow operations and queue
# saturation, through both the engine and the daemon's HTTP surface. See
# docs/ROBUSTNESS.md for the fault-point catalogue.
chaos:
	$(GO) test -race -run Chaos ./internal/engine/... ./internal/sched/... ./internal/cluster/... ./cmd/dsed/...
	$(GO) test -race ./internal/resilience/...

# loc prints the line count of non-test Go outside bench/, the size
# figure ROADMAP.md tracks. It is informational and not part of check.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l

# check is the tier-1 gate plus static analysis and formatting, the
# race-sensitive packages, the chaos suite, the bench tooling smoke, the
# fuzz smokes, the parallel-kernel smoke, the baseline comparison, and the
# daemon, cluster, and durability end-to-end smokes; run before every
# commit.
check: build vet fmt no-string-keys one-forwarding-rule one-clock one-route test race chaos bench-smoke fuzz-smoke bench-par bench-compare daemon-smoke obs-smoke cluster-smoke durable-smoke

clean:
	$(GO) clean ./...
	rm -f *.test cpu.prof mem.prof trace.jsonl metrics.json .bench_smoke.json
