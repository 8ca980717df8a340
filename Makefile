GO ?= go
STATICCHECK ?= staticcheck

# Minimum acceptable total statement coverage for `make cover` (percent).
COVER_MIN ?= 70.0
# Benchmark-regression gate: geomean slowdown beyond this ratio fails.
BENCH_THRESHOLD ?= 1.10
# Allocation gate: any gated benchmark whose allocs/op grows beyond this
# ratio of its baseline fails (allocs are near-deterministic, so this is
# tight).
ALLOC_THRESHOLD ?= 1.10

.PHONY: build test vet perfbench-vet race staticcheck check cover fmt \
	figures smoke checkpoint-smoke campaign-smoke bench benchcheck \
	benchbaseline leakcheck campaign contract-matrix contract-matrix-update

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The benchmark harness is a nested module that the root ./... never
# compiles; vetting it catches an exported-name change that breaks it.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# The engine and service are concurrent; the race detector is part of the
# standard gate, not an extra.
race:
	$(GO) test -race ./...

# Runs staticcheck when the binary is on PATH; skips (successfully) when it
# is not, so `make check` works in minimal containers. CI installs it.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

check: vet staticcheck race cover contract-matrix

# Coverage gate: run the full suite with a merged statement-coverage profile
# and fail when the total drops below COVER_MIN.
cover:
	$(GO) test ./... -coverprofile=coverage.out -count=1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total statement coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t + 0 < m + 0) ? 1 : 0 }' || \
		{ echo "coverage gate: FAIL: $$total% < $(COVER_MIN)%"; exit 1; }

# Benchmark-regression gate for the simulator hot path. Compares the gated
# benchmarks (./sim, median of 6 counts) against the committed
# BENCH_baseline.json and fails on a >10% geomean slowdown or on any gated
# benchmark's allocs/op growing past ALLOC_THRESHOLD. Absolute ns/op is
# machine-dependent: after an intentional perf change, or when moving the
# reference machine, refresh the baseline with `make benchbaseline` and
# commit the resulting BENCH_baseline.json alongside the change.
benchcheck:
	$(GO) test -run '^$$' -bench . -benchmem -count=6 ./sim | \
		$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json \
			-threshold $(BENCH_THRESHOLD) -alloc-threshold $(ALLOC_THRESHOLD)

benchbaseline:
	$(GO) test -run '^$$' -bench . -benchmem -count=6 ./sim | \
		$(GO) run ./cmd/benchcheck -write BENCH_baseline.json

# Full benchmark sweep (paper figures included); informational, not a gate.
bench:
	$(GO) test -run '^$$' -bench . ./...

# Differential leakage sweep over the scheme matrix plus the mutation
# gauntlet; `cmd/leakcheck -h` documents the flags.
leakcheck:
	$(GO) run ./cmd/leakcheck -seeds 256

# Coverage-guided leakage campaign over the default scheme matrix with a
# persistent corpus; the nightly CI job caches CAMPAIGN_CORPUS across runs
# so every night extends the same exploration instead of restarting it.
CAMPAIGN_BUDGET ?= 256
CAMPAIGN_CORPUS ?= .campaign/corpus.dgcf
campaign:
	@mkdir -p $(dir $(CAMPAIGN_CORPUS))
	$(GO) run ./cmd/leakcheck -campaign -budget $(CAMPAIGN_BUDGET) \
		-corpus $(CAMPAIGN_CORPUS)

# Campaign end-to-end smoke: fresh run, kill-and-restart resume against the
# same corpus file, and refusal of corrupted or wrong-version corpora.
campaign-smoke:
	./scripts/campaign-smoke.sh

# Contract-matrix gate: evaluate the full observer lattice per scheme and
# diff the verdict matrix against the committed golden. Also asserts every
# planted mutation of the gauntlet downgrades at least one contract cell.
# After an intentional contract change, regenerate the golden with
# `make contract-matrix-update` and commit the JSON alongside the change.
CONTRACT_GOLDEN = internal/leakcheck/testdata/contract_matrix.json
contract-matrix:
	$(GO) run ./cmd/leakcheck -contracts -seeds 48 -golden $(CONTRACT_GOLDEN)

contract-matrix-update:
	$(GO) run ./cmd/leakcheck -contracts -seeds 48 -mutations=false \
		-golden $(CONTRACT_GOLDEN) -update-golden

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

figures:
	$(GO) run ./cmd/figures -scale test

# End-to-end smoke: start doppeld, run one traced simulation through the
# HTTP API, and assert the Prometheus endpoint exposes simulator metrics.
smoke:
	./scripts/smoke.sh

# Checkpoint end-to-end smoke: warm a workload once with doppelsim, restore
# the snapshot under every scheme, and assert warm == cold architectural
# checksums plus refusal of a corrupted file.
checkpoint-smoke:
	./scripts/checkpoint-smoke.sh
