GO ?= go

.PHONY: check fmt vet lint build cross test race examples bench bench-compare fuzz cover identity figures-identity pretrain-identity

## check: the full CI gate — formatting, vet, invariant lint, build
## (native, and arm64 for the portable row kernel), tests, race detector.
check: fmt vet lint build cross test race

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: the repo's invariant analyzers (cmd/llmfi-vet): determinism,
## hook purity, float64 checksum math,
## context-first cancellation, lock discipline (guardedby), atomic
## access consistency (atomicmix), goroutine lifecycle (golife), and
## wire-schema hygiene (wireschema). Suppress individual findings with
## //llmfi:allow <analyzer> <reason>; audit the suppression budget with
## `go run ./cmd/llmfi-vet -suppressions ./...`.
lint:
	$(GO) run ./cmd/llmfi-vet ./...

build:
	$(GO) build ./...

## cross: the row kernel, Q·K, exp, SiLU, softmax max/scale, ABFT
## checksum lanes and BF16 rounding assembly is amd64-only; the Go
## fallbacks must compile and vet clean where the .s files do not. The
## portable Q·K, softmax and checksum loops must also round every product
## on its own there: the arm64 listing (-gcflags=-S, replayed from the
## build cache) of each function in NO_FMA must exist and hold no fused
## multiply-add.
NO_FMA = internal/model:scoreKeysPortable internal/tensor:maxRowPortable internal/tensor:scaleRowPortable \
	internal/tensor:checkRow1 internal/tensor:checkRow4From
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/model/ ./internal/numerics/
	@set -e; for fn in $(NO_FMA); do \
		dir=$${fn%%:*}; sym=repro/$$dir.$${fn#*:}; \
		listing=$$(GOARCH=arm64 $(GO) build -gcflags="repro/$$dir=-S" ./$$dir 2>&1 \
			| awk -v f="$$sym" '$$1 == f && $$2 == "STEXT" { on = 1; next } /^[^ \t]/ { on = 0 } on'); \
		[ -n "$$listing" ] || { echo "cross: no arm64 listing of $$sym"; exit 1; }; \
		if echo "$$listing" | grep -Eq 'FN?M(ADD|SUB)'; then \
			echo "cross: $$sym fuses a multiply-add on arm64:"; echo "$$listing" | grep -E 'FN?M(ADD|SUB)'; exit 1; fi; \
		echo "cross: no fused multiply-add in $$sym on arm64"; \
	done

test:
	$(GO) test ./...

## race: the whole suite under the race detector, then the tests that
## share state across goroutines again, failing fast on the first race —
## the row kernel (with its continuation entry), two decode lanes over
## one model with every row's checker on one shared checksum table,
## the sharded prefill (a prompt's rows in shards under a strike and a
## correcting checker), a state's observers beside an unarmed state of
## the same model, forks of one shared Prefix in time and in depth,
## depth planes recorded on a state that reads a Prefix,
## the checksum table, one checker called on a prefill's shards at once
## (one call per layer and shard, against one position per pass),
## rows reading different weight strikes over one model's weights;
## the campaign runtime, its baseline evaluated beside the pool and its
## workers' lanes; serving with its lanes and its prefix cache, whose
## entries injected requests fork as clean decodes, in time and in depth
## (lanes reading one entry's planes at once); the fan-in and
## recorders. CI runs this target, so the lists live here only.
race:
	$(GO) test -race ./...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(RowKernel|BatchStep|LoopSharded|StackedForward|StateObservers|ForkAt|Prefix|DepthFork|RecordDepth|AdmitFork|TableConcurrent|CheckerConcurrent|CheckerSpans|StrikeRowsShareNoWrite)' \
		./internal/tensor/ ./internal/model/ ./internal/gen/ ./internal/abft/ ./internal/faults/
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(Runner|Trace|Resume|Checkpoint|Batched|FastForward|ScoresDrops|TrialsOverlapBaseline|PipelinedBaselineStream|CancelDuringBaseline)' ./internal/core/
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(Serve|PrefixCache|Handler|Loadgen)' ./internal/serve/...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(FanIn|Recorder|SpanWriter|FleetTrace|LeaseTrace|HistConcurrent)' \
		./internal/fabric/ ./internal/obs/ ./internal/prom/

## examples: run every program under examples/ end to end — each arms its
## faults on the states it runs, the way library callers do (about a
## second each).
EXAMPLES = $(sort $(dir $(wildcard examples/*/main.go)))
examples:
	@set -e; for ex in $(EXAMPLES); do echo "== $$ex"; $(GO) run ./$$ex; done

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
	$(GO) test -run '^$$' -fuzz '^FuzzRoundSlice$$' -fuzztime 10s ./internal/numerics/
	$(GO) test -run '^$$' -fuzz '^FuzzFlipBits$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzGenerateRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRowKernel$$' -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckSpan$$' -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzSiLUMul$$' -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzSoftmaxRow$$' -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzScoreKeys$$' -fuzztime 10s ./internal/model/

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
## reasoning window), memory-fault rows — each prefilling its prompt
## under its own strike, on a depth fork — under all-layer correcting
## ABFT, multiple-choice scoring, MoE beam search, gate-only MoE memory
## faults, and the checksum table's three other shapes: site-only ABFT
## under memory faults (dense with correct-skip, MoE with its expert
## layers) and all-layer ABFT on MoE rows; then the depth fork's ledger —
## all-layer correct-skip ABFT on MoE memory faults, whose routed expert
## layers it counts, and a dense tolerance so tight that clean checks
## flag and every trial falls back to the whole inference; memory faults
## on multiple-choice rows, and under FP16 beam search, the row
## prefilling its prompt under its strike; then memory-fault rows stacked
## at width 8 (math suite, all-layer correct) and 4 (MoE, all-layer
## correct-skip); multiple-choice rows stacked at width 8 (transient
## faults, all-layer correct) and 4 (MoE memory faults, all-layer
## correct-skip); beam rows stacked at width 8 (MoE transient faults,
## all-layer correct) and 4 (FP16 memory faults, all-layer correct-skip);
## then transient-fault rows forked in time and depth — FP16 at width 8,
## and the math suite under all-layer correcting ABFT, whose skipped
## checks the ledger counts from each row's fork position; last, one
## worker's MoE memory-fault rows under all-layer correcting ABFT, whose
## multiple-choice prompts are long enough for the prefill to run in
## shards over the worker's two or more threads (forwardStack) — routing
## each row's experts into its own trace slot; then one worker's
## transient and MoE memory-fault rows at width 16 and 8 under all-layer
## ABFT, which run as decode lanes — one-thread loops splitting the width
## (poolShape) — only on a host with 2 or more cores; a few seconds on
## two cores.
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
-model moe -suite wmt16-like -fault 2bits-mem -trials 120 -abft -abft-all -abft-policy correct-skip
-model QwenS -suite wmt16-like -fault 2bits-mem -trials 120 -abft -abft-all -abft-tol 1e-12
-model QwenS -suite mmlu -fault 2bits-mem -trials 120
-model QwenS -suite wmt16-like -fault 2bits-mem -dtype FP16 -beams 3 -trials 120
-model math-qwens -suite gsm8k -fault 2bits-mem -trials 300 -decode-batch 8 -abft -abft-all -abft-policy correct
-model moe -suite wmt16-like -fault 2bits-mem -trials 120 -decode-batch 4 -abft -abft-all -abft-policy correct-skip
-model QwenS -suite mmlu -fault 2bits-comp -trials 300 -decode-batch 8 -abft -abft-all -abft-policy correct
-model moe -suite arc -fault 2bits-mem -trials 120 -decode-batch 4 -abft -abft-all -abft-policy correct-skip
-model moe -suite wmt16-like -fault 2bits-comp -trials 120 -beams 3 -decode-batch 8 -abft -abft-all -abft-policy correct
-model QwenS -suite wmt16-like -fault 2bits-mem -dtype FP16 -beams 3 -trials 120 -decode-batch 4 -abft -abft-all -abft-policy correct-skip
-model QwenS -suite wmt16-like -fault 1bit-comp -dtype FP16 -trials 300 -decode-batch 8
-model math-qwens -suite gsm8k -fault 2bits-comp -trials 300 -abft -abft-all -abft-policy correct
-model moe -suite hellaswag -fault 2bits-mem -trials 120 -workers 1 -abft -abft-all -abft-policy correct
-model QwenS -suite wmt16-like -fault 2bits-comp -trials 300 -workers 1 -decode-batch 16 -abft -abft-all
-model moe -suite wmt16-like -fault 2bits-mem -trials 120 -workers 1 -decode-batch 8 -abft -abft-all -abft-policy correct-skip
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

## figures-identity: identity's counterpart for the figures — build
## cmd/figures from REF and from this tree the same way, run every
## experiment through both at -trials 12 -instances 3, and diff each
## experiment's key numbers. Keys that measure wall time differ from run
## to run of one binary and are dropped from both sides first:
## fig_abft.overhead_frac and fig_serving's *_ms and *slo_violation_rate.
## make figures-identity REF=HEAD~1
FIGURES_WALL_KEYS = fig_abft\.overhead_frac|fig_serving\.[^ ]*(_ms|slo_violation_rate)
figures-identity:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/ref"; git archive $(REF) | tar -x -C "$$tmp/ref"; \
	(cd "$$tmp/ref" && $(GO) build -o "$$tmp/figures.ref" ./cmd/figures); \
	$(GO) build -o "$$tmp/figures.new" ./cmd/figures; \
	for side in ref new; do \
		"$$tmp/figures.$$side" -all -trials 12 -instances 3 -pretrained $(CURDIR)/pretrained > "$$tmp/$$side.out"; \
		awk '/^key numbers:/ { k = 1; next } k && /^  / { print; next } { k = 0 }' "$$tmp/$$side.out" \
			| grep -Ev '^  ($(FIGURES_WALL_KEYS)) ' > "$$tmp/$$side.keys"; \
	done; \
	diff "$$tmp/ref.keys" "$$tmp/new.keys" || { echo "key numbers DIFFER from $(REF)"; exit 1; }; \
	echo "key numbers identical to $(REF): $$(wc -l < "$$tmp/new.keys") keys, $$(sed 's/^  \([^.]*\)\..*/\1/' "$$tmp/new.keys" | sort -u | wc -l) experiments"

## pretrain-identity: the embedded checkpoints are a function of the
## committed trainer. Retrain every cmd/pretrain job — or only those named
## in PRETRAIN_ONLY — into a temp dir and cmp each .gob with pretrained/.
## A checkpoint change on purpose regenerates pretrained/ in the same
## change. Training multiplies and adds as inference does, so the bits
## hold on amd64 only. All thirteen jobs take several minutes on two
## cores; CI runs xlsum-qwens, a few seconds.
## make pretrain-identity PRETRAIN_ONLY="xlsum-qwens wmt-qwens"
PRETRAIN_ONLY ?=
pretrain-identity:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/pretrain" ./cmd/pretrain; \
	if [ -z "$(PRETRAIN_ONLY)" ]; then "$$tmp/pretrain" -out "$$tmp/out"; \
	else for job in $(PRETRAIN_ONLY); do "$$tmp/pretrain" -out "$$tmp/out" -only $$job; done; fi; \
	n=0; for f in "$$tmp"/out/*.gob; do \
		test -f "$$f" || break; \
		cmp "$$f" "pretrained/$$(basename "$$f")" \
			|| { echo "pretrain-identity: $$(basename "$$f") differs from pretrained/"; exit 1; }; \
		n=$$((n + 1)); \
	done; \
	[ $$n -gt 0 ] || { echo "pretrain-identity: no checkpoint written"; exit 1; }; \
	echo "pretrain-identity: $$n checkpoint(s) identical to pretrained/"
