GO ?= go

.PHONY: build test vet fmt-check staticcheck race alloc-budget bench bench-pair bench-smoke fuzz-smoke metrics-lint soak simulate loc-diff unused-exports verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-clean, naming the files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs when the binary is installed (CI installs it; local
# builds without it skip with a note rather than fail — the repo takes
# no dependency on having it present).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# alloc-budget runs the heap-allocation budgets of the request path (the
# handler chain on cache hits, on misses and on votes, the report cache's
# own share of a miss: TestDoMissAllocPin, the repo calls
# under it, storedb's tree writer and snapshot load under those, wire's
# XML codec and its XML view reader: TestXMLCodecAllocPins, its in-place
# binary lookup reader: TestBinaryLookupViewAllocPin, and a batch shipped
# to a replica: TestShipBatchAllocPin), one lookup a codec and one XML
# vote over a real socket with net/http's heads counted (internal/client's
# TestLoopbackAllocBudget)
# and storedb's TestLoadedIndexFootprint (the loaded index's live bytes
# an entry beyond its keys and values, and what the load allocates)
# without the race detector, under which they skip: the budgets are
# enforced by name, not by verify happening to run plain `go test` too.
alloc-budget:
	$(GO) test -count=1 -run='AllocBudget|AllocPin|Footprint' ./internal/server ./internal/client ./internal/repcache ./internal/repo ./internal/storedb ./internal/wire ./internal/replication

bench:
	$(GO) test -bench=. -benchmem .

# bench-pair is the paired-run rule bench/README.md asks of a change that
# claims a gain: PAIRS alternating pairs of `go run ./bench` on BASE
# (unpacked into a temporary directory) and on this tree, then both
# medians, both quartile ranges and the pairs won, per gated metric and
# then per per-layer metric (reported, not gated); with METRIC set, that
# metric's verdict comes first. About 40 s a run; not part of verify.
#   make bench-pair BASE=HEAD~1 WORKLOAD=lookup_hot [PAIRS=10] [METRIC=server_allocs_per_op]
PAIRS ?= 10
bench-pair:
	@$(GO) run ./scripts/benchpair -base '$(BASE)' -workload '$(WORKLOAD)' -pairs $(PAIRS) -metric '$(METRIC)'

# bench-smoke runs the E19–E25 benchmarks once each as cheap tripwires
# on the absolute claims each still makes: E19 the fast lane begins zero
# write transactions; E20 adaptive admission vs the static cap; E21 zero
# acked-write loss over the fault grid and fsyncs/write under group
# commit; E22 zero dual-acks under partition; E23 the binary protocol's
# speed and byte claims vs XML; E24 the instrumentation-overhead budget
# vs DisableTelemetry; E25 scrub detection + replica repair and a commit
# p99 below the modeled compaction stall.
bench-smoke:
	$(GO) test -run=NONE -bench='E19|E20|E21|E22|E23|E24|E25' -benchtime=1x .

# metrics-lint checks every registered metric against the naming and
# shape rules (counters end in _total, non-empty help, valid label
# names, histograms with buckets) by running the registry lint over the
# full server registration.
metrics-lint:
	$(GO) test -run='TestMetricsLint' ./internal/server

# fuzz-smoke gives the fuzzers a short budget each: mutated WAL tails
# (CRC flips, truncations, spliced frames) against the recovery prefix
# property, mutated checksummed snapshots (the same mutator discipline)
# against the block decoder and the scrub verifier, the in-memory
# B+tree's writers (puts, deletes, begins, publishes) against a map model
# with every version they leave behind re-read, mutated binary wire
# frames against the frame codec, mutated session call and answer frames
# against the session reader and codec, mutated XML documents against the
# hand-written decoders' agreement with encoding/xml, and the report
# cache's Do/probe/invalidations over a 4-bit key hash against a model,
# on top of the deterministic corpora the test suite always replays.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWALTail -fuzztime=15s ./internal/storedb
	$(GO) test -run='^$$' -fuzz=FuzzSnapshot -fuzztime=15s ./internal/storedb
	$(GO) test -run='^$$' -fuzz=FuzzTree -fuzztime=15s ./internal/storedb
	$(GO) test -run='^$$' -fuzz=FuzzBinaryFrame -fuzztime=15s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzSessionFrame -fuzztime=15s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzXMLDecode -fuzztime=15s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzCache -fuzztime=15s ./internal/repcache

# soak runs the generated schedules fifty times: TestDiskSchedules (single
# disk node: faults, flips, crashes, repairs) and TestTierSchedules (three
# nodes: votes, cuts, promotions, rejoins), fifty fresh seeds each, logged,
# on top of the pinned ones. About three and a half minutes; not part of
# verify.
soak:
	$(GO) test -count=50 -run 'TestDiskSchedules|TestTierSchedules' ./internal/simulation

simulate:
	$(GO) run ./cmd/simulate -exp all -quick

# loc-diff prints non-test Go lines per package at BASE and in the
# working tree, with the delta (ROADMAP aim 2: net-negative is the
# default expectation). Informational; not part of verify.
#   make loc-diff BASE=HEAD~1
loc-diff:
	@sh scripts/loc-diff.sh '$(BASE)'

# unused-exports fails on an exported function or method under internal/
# that no non-test code of the module uses. It type-checks the module as
# one program (scripts/unusedexports), so a name shared by several
# functions is judged per function; methods of the types softreputation.go
# aliases (the library's API) and implementations of an interface method
# count as used, and a test seam stays by a "Test seam:" line giving its
# reason in its doc comment (at most five). Part of verify.
unused-exports:
	@$(GO) run ./scripts/unusedexports

# verify is the gate for every change, locally and in CI: tier-1 (build
# + test, which includes storedb's TestStateCoherentAfterEveryTransition:
# one predicate over every way the store changes committed state) plus
# vet, the gofmt check, staticcheck, the race detector, the allocation
# budgets (TestShipBatchAllocPin among them), the metrics lint, the
# unused-exports check, the benchmark smoke, and the fuzz smoke. The
# race detector runs the storage corruption and repair tests and both
# generated-schedule tests (TestDiskSchedules, and TestTierSchedules at a
# quarter of its schedules).
verify: build vet fmt-check staticcheck race test alloc-budget metrics-lint unused-exports bench-smoke fuzz-smoke
	@echo "verify: OK"
