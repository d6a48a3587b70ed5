# hierdet — build/test/experiment entry points. Standard library only; no
# network access required for any target.

GO ?= go

.PHONY: all build test test-short race cover bench bench-pair profile fuzz figures alpha examples smoke smoke-metrics soak loc fmt vet lint clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One bench per paper artifact (Table I, Figures 4–5) plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Paired, alternating benchmark runs of a parent commit against this checkout:
# per metric, both medians, quartiles and pairs won (scripts/bench_pair.sh;
# BENCH_SECONDS and BENCH_SEED0 pass through the environment).
#   make bench-pair PARENT=HEAD~1 WORKLOAD=paced_latency
# WORKLOAD=all runs every workload BENCHMARK.json names, a table each, and
# ends with the (workload, metric) pairs outside their bound or unresolved.
PAIRS ?= 10
bench-pair:
	./scripts/bench_pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Where the live runtime's time and bytes go under steady load: CPU and
# allocation profiles of BenchmarkLiveSteady (bench/ itself has no profile
# flag) and their -top listings; the profiles and the test binary stay in
# $(PROFILE_OUT) for `go tool pprof -list`.
PROFILE_OUT ?= profile-out
profile:
	mkdir -p $(PROFILE_OUT)
	$(GO) test -run '^$$' -bench BenchmarkLiveSteady -benchtime 20x -o $(PROFILE_OUT)/livenet.test \
		-outputdir $(PROFILE_OUT) -cpuprofile cpu.prof -memprofile mem.prof ./internal/livenet/
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_OUT)/livenet.test $(PROFILE_OUT)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 40 $(PROFILE_OUT)/livenet.test $(PROFILE_OUT)/mem.prof

# Short fuzz passes over the wire codecs, the Less kernel, the span rule and
# the TCP acknowledgement stream. Patterns are anchored: a bare
# FuzzDecodeReport would match both FuzzDecodeReport and FuzzDecodeReportV2,
# and `go test -fuzz` refuses ambiguous patterns.
fuzz:
	$(GO) test -run FuzzUnmarshalBinary -fuzz FuzzUnmarshalBinary -fuzztime 30s ./internal/vclock/
	$(GO) test -run FuzzDecodeDelta -fuzz FuzzDecodeDelta -fuzztime 30s ./internal/vclock/
	$(GO) test -run FuzzDeltaCodecMatchesReference -fuzz FuzzDeltaCodecMatchesReference -fuzztime 30s ./internal/vclock/
	$(GO) test -run FuzzLessMatchesScalar -fuzz FuzzLessMatchesScalar -fuzztime 30s ./internal/vclock/
	$(GO) test -run FuzzSpanVerdictMatchesFullScan -fuzz FuzzSpanVerdictMatchesFullScan -fuzztime 30s ./internal/interval/
	$(GO) test -run 'FuzzDecodeReport$$' -fuzz 'FuzzDecodeReport$$' -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeReportV2 -fuzz FuzzDecodeReportV2 -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeReportBatch -fuzz FuzzDecodeReportBatch -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeHeartbeat -fuzz FuzzDecodeHeartbeat -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeAttach -fuzz FuzzDecodeAttach -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeTrace -fuzz FuzzDecodeTrace -fuzztime 30s ./internal/replay/
	$(GO) test -run FuzzAckStream -fuzz FuzzAckStream -fuzztime 30s ./internal/transport/tcptransport/

# Regenerate the paper's evaluation artifacts.
figures:
	$(GO) run ./cmd/figures

alpha:
	$(GO) run ./cmd/alpha

examples:
	@for ex in examples/*/; do \
		echo "== $$ex"; \
		$(GO) run ./$$ex || exit 1; \
	done

# Multi-process failover proof: seven hierdet-node OS processes over TCP,
# one SIGKILLed mid-run, detection counts checked against the in-memory
# reference. Localhost sockets only.
smoke:
	timeout 180 $(GO) run ./examples/distributed

# Observability proof: three hierdet-node OS processes, /metrics scraped off
# node 0's pprof endpoint and checked for every exposition plane.
smoke-metrics:
	timeout 180 ./scripts/metrics_smoke.sh

# Chaos/soak lane: randomized kill/partition schedules under load, every run
# recorded as a trace, replayed and invariant-checked; the failing run's
# trace survives in $(SOAK_OUT) for `hierdet-chaos -replay` triage.
SOAK_DURATION ?= 60s
SOAK_OUT ?= chaos-artifacts
soak:
	$(GO) run ./cmd/hierdet-chaos -duration $(SOAK_DURATION) -out $(SOAK_OUT)

# Non-test Go lines of the live runtime's layers (ROADMAP item 2's budget);
# fails when the total exceeds scripts/loc_budget.
# `./scripts/loc.sh <ref>` counts a commit instead of the working tree.
loc:
	@./scripts/loc.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# vet plus staticcheck when it's on PATH (CI installs it; locally optional).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz
