GO ?= go

.PHONY: check fmt vet lint build cross test race bench bench-compare fuzz cover identity

## check: the full CI gate — formatting, vet, invariant lint, build
## (native, and arm64 for the portable row kernel), tests, race detector.
check: fmt vet lint build cross test race

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: the repo's invariant analyzers (cmd/llmfi-vet): determinism,
## hook purity, copy-on-write weight discipline, float64 checksum math,
## context-first cancellation, lock discipline (guardedby), atomic
## access consistency (atomicmix), goroutine lifecycle (golife), and
## wire-schema hygiene (wireschema). Suppress individual findings with
## //llmfi:allow <analyzer> <reason>; audit the suppression budget with
## `go run ./cmd/llmfi-vet -suppressions ./...`.
lint:
	$(GO) run ./cmd/llmfi-vet ./...

build:
	$(GO) build ./...

## cross: the row kernel's assembly is amd64-only; the portable kernel
## must compile and vet clean where the .s file does not.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/model/

test:
	$(GO) test ./...

## race: the whole suite under the race detector, then the tests that
## share state across goroutines again, failing fast on the first race —
## the row kernel (with its continuation entry), the sharded decode step,
## forks of one shared Prefix, the checksum table; the campaign runtime;
## serving with its prefix cache; the fan-in and recorders. CI runs this
## target, so the lists live here only.
race:
	$(GO) test -race ./...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(RowKernel|BatchStep|LoopSharded|StackedForward|ForkAt|Prefix|AdmitFork|TableConcurrent)' \
		./internal/tensor/ ./internal/model/ ./internal/gen/ ./internal/abft/
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(Runner|Trace|Resume|Checkpoint|Batched|FastForward|ScoresDrops)' ./internal/core/
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(Serve|PrefixCache|Handler|Loadgen)' ./internal/serve/...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(FanIn|Recorder|SpanWriter|FleetTrace|LeaseTrace|HistConcurrent)' \
		./internal/fabric/ ./internal/obs/ ./internal/prom/

## bench: the repository benchmark (benchmark/, the contract in
## BENCHMARK.json): six workloads, each in a fresh child process, three
## plain runs and one traced run, one report — campaign_serial vs
## campaign_batched is the width-1 vs width-16 decode-loop comparison.
## BENCH_OUT names the report file. Two older single-purpose emitters
## still record what the report has no row for yet: ABFT off vs
## site-only vs all-layer checking (BENCH_3.json) and
## serving-under-faults latency/SLO/detection (BENCH_6.json); plus the
## figure reproductions in bench_test.go. Seed-path, streaming, tracing
## and span-plane cost are the report's ops_per_s@campaign_serial,
## obs.overhead_frac and core.batch_speedup_vs_serial rows.
BENCH_OUT ?= /tmp/llmfi-bench.json
bench:
	$(GO) run ./benchmark -trace 1 -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	BENCH3_JSON_OUT=$(CURDIR)/BENCH_3.json $(GO) test -run '^TestEmitABFTBenchJSON$$' -v ./internal/core/
	BENCH6_JSON_OUT=$(CURDIR)/BENCH_6.json $(GO) test -run '^TestEmitServeBenchJSON$$' -v ./internal/serve/

## bench-compare: compare two `make bench` reports metric by metric —
## make bench-compare A=/tmp/parent.json B=/tmp/change.json
## A perf PR's paired runs are one workload at a time, the same command
## in a checkout of each commit, alternating which side goes first:
## go run ./benchmark --workload campaign_batched --seed N --seconds 12 --trace 0|1
bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

## fuzz: short smoke sessions of the fuzz targets (also run in CI).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzHalfRoundTrip$$' -fuzztime 10s ./internal/numerics/
	$(GO) test -run '^$$' -fuzz '^FuzzFlipBits$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzGenerateRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRowKernel$$' -fuzztime 10s ./internal/tensor/

## cover: the detection-layer coverage gate enforced by CI — the ABFT and
## mitigation packages must stay above 85% combined.
cover:
	$(GO) test -coverprofile=$(CURDIR)/coverage.out \
		-coverpkg=./internal/abft,./internal/mitigate \
		./internal/abft ./internal/mitigate
	@total=$$($(GO) tool cover -func=$(CURDIR)/coverage.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "abft+mitigate combined coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 85.0) ? 0 : 1 }' \
		|| { echo "coverage $$total% below the 85% gate"; exit 1; }

## identity: the check a refactor that claims "no bit changed" owes — build
## cmd/llmfi from REF (a `git archive` snapshot in a temp dir: nothing to
## fetch, nothing left behind) and from this tree, run each campaign below
## through both, and cmp stdout and the per-trial CSV. They cover the
## decode loop at width 8 and 1 under site ABFT (rows forked post-prompt),
## the same loop unobserved (rows fast-forwarded to their strike: width 8
## and 1, MoE with its expert trace, and the math suite's EOS stops and
## reasoning window), memory faults under all-layer correcting ABFT,
## multiple-choice scoring, MoE beam search, gate-only MoE memory faults,
## and the checksum table's three other shapes: site-only ABFT under
## memory faults on the whole-model path (dense with correct-skip, MoE
## with its expert layers) and all-layer ABFT on MoE rows; a few seconds
## on two cores.
## make identity REF=HEAD~1
REF ?= HEAD~1
define IDENTITY_CAMPAIGNS
-model QwenS -suite wmt16-like -fault 2bits-comp -trials 300 -decode-batch 8 -abft
-model QwenS -suite wmt16-like -fault 2bits-comp -trials 300 -decode-batch 1 -abft
-model QwenS -suite wmt16-like -fault 2bits-comp -trials 300 -decode-batch 8
-model QwenS -suite wmt16-like -fault 1bit-comp -trials 300
-model moe -suite wmt16-like -fault 2bits-comp -trials 120
-model math-qwens -suite gsm8k -fault 2bits-comp -trials 300
-model math-qwens -suite gsm8k -fault 2bits-mem -trials 300 -abft -abft-all -abft-policy correct
-model QwenS -suite mmlu -fault 1bit-comp -trials 300
-model moe -suite wmt16-like -fault 2bits-comp -trials 120 -beams 3
-model moe -suite wmt16-like -fault 2bits-mem -trials 120 -gate-only
-model QwenS -suite wmt16-like -fault 2bits-mem -trials 120 -abft -abft-policy correct-skip
-model moe -suite wmt16-like -fault 2bits-mem -trials 120 -abft
-model moe -suite wmt16-like -fault 2bits-comp -trials 120 -abft -abft-all -decode-batch 4
endef
export IDENTITY_CAMPAIGNS
identity:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/ref"; git archive $(REF) | tar -x -C "$$tmp/ref"; \
	(cd "$$tmp/ref" && $(GO) build -o "$$tmp/llmfi.ref" ./cmd/llmfi); \
	$(GO) build -o "$$tmp/llmfi.new" ./cmd/llmfi; \
	printf '%s\n' "$$IDENTITY_CAMPAIGNS" > "$$tmp/campaigns"; \
	while read -r args; do \
		for side in ref new; do \
			"$$tmp/llmfi.$$side" $$args -instances 4 -seed 7 -pretrained $(CURDIR)/pretrained \
				-csv "$$tmp/$$side.csv" > "$$tmp/$$side.out"; \
		done; \
		cmp "$$tmp/ref.out" "$$tmp/new.out" && cmp "$$tmp/ref.csv" "$$tmp/new.csv" \
			|| { echo "DIFFERS from $(REF): $$args"; exit 1; }; \
		echo "identical to $(REF) ($$(wc -l < "$$tmp/new.csv") csv lines): $$args"; \
	done < "$$tmp/campaigns"
