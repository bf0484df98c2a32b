# CI entry points. `make ci` is the gate, ordered cheapest-first so the
# fastest check that can fail, fails first: format check, then the
# static-analysis gate (`lint` = go vet + the in-repo mclint suite —
# before any compile/test work because a determinism or cancellation
# violation invalidates everything downstream), then build, the
# reachability gate (`deadcode`: every internal function is linked into
# some binary or allowlisted with the test that needs it), the
# race-tested short suite, a one-iteration benchmark smoke pass over the
# transient/campaign benchmarks (catches perf-path regressions that only
# show up when the solver actually runs), an mcserved smoke run that
# boots the HTTP campaign service and drives one small campaign through
# its own API, a fabric smoke run that shards a campaign across two
# HTTP workers and checks the merged result against the single-node
# run, the load gate's short profile, and the repository benchmark's own
# tests (`bench-verify`). `make test` runs the full suite including the
# long Monte-Carlo campaigns.

GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet lint lint-json build deadcode test race bench bench-smoke bench-verify fuzz-smoke serve-smoke fabric-smoke load load-smoke

ci: fmt lint build deadcode race bench-smoke serve-smoke fabric-smoke load-smoke bench-verify

# gofmt gate: fail with the offending file list when any file is unformatted.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet plus mclint, the in-repo suite enforcing
# the engine's determinism (detrand, maporder), cancellation (ctxflow),
# hot-path allocation (hotalloc) and error-handling (errdrop) contracts.
# Zero unsuppressed findings or the build fails; see cmd/mclint and
# README "Static analysis" for the directive escape hatch.
lint: vet
	$(GO) run ./cmd/mclint

# Machine-readable findings for the CI artifact: always exits 0 via the
# trailing guard (the blocking gate is `lint`), so the artifact uploads
# even when findings exist.
lint-json:
	$(GO) run ./cmd/mclint -json > mclint.json || true

build:
	$(GO) build ./...

# Reachability gate: builds every main package (cmd/*, examples/* and the
# nested cmd/mcbench) with inlining off and fails on any function under
# internal/ that no binary links, unless testdata/unlinked.txt lists it
# with the test that needs it as an oracle, a fixture or a state reader.
# The test skips itself under -short, so the race pass never runs it.
deadcode:
	$(GO) test -run '^TestEveryInternalFunctionIsLinked$$' -count=1 .

# Full suite, including the long Monte-Carlo campaigns.
test:
	$(GO) test ./...

# Race-tested subset: -short skips the long campaigns so the ~10x race
# overhead stays within CI budget while still exercising every
# parallelized runner.
race:
	$(GO) test -race -short ./...

# Paper-vs-measured benchmark table (one pass per artifact).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Smoke gate: single-iteration run of the SPICE-campaign (one-shot
# output, per-worker trial templates and one warm SPICE yield die), the
# batched-signature-engine,
# the noise-plan, the streaming-reduction, the registry-dispatch, the
# null-calibration and the checkpoint-cadence benchmarks (CUT output,
# trial templates, fault table, batched vs scalar capture, batched vs
# scalar exact
# signature extraction with its band scan and zone-LUT bisection, the
# averaged noisy NDF, the noise plan's build, a warm-plan noise trial
# and one block of its polar draws, streaming reduction, spec
# dispatch, the null calibration's max
# reduction, a serve-sized job's one-worker reduction (the serial loop
# that ReduceSpanScratch keeps because it pays), span reduction
# with/without a checkpoint sink, zone-LUT
# certification and batch classification on random and curve points) —
# proves the hot paths still execute end to end.
bench-smoke:
	$(GO) test -bench='SpiceCUT|SpiceTrialEngine|YieldSpiceTrial|FaultTableSpice|SignatureCapture|ExactSignature|AveragedNDF|NoisePlanBuild|NoiseTrial|PolarFill|BankClassify|ZoneLUTBuild|RegistryDispatch|CampaignReduce1M|ReduceOneWorker|NoiseNullCalibration|CheckpointOverhead' -benchtime=1x -run=^$$ .

# The repository benchmark's own checks (cmd/mcbench is a nested module,
# so `go test ./...` at the root does not reach it): every workload's
# seed-1 payload digests re-verified at test size, and the traced replay
# bit-identical to the untraced run.
bench-verify:
	cd cmd/mcbench && $(GO) test -short ./...

# Short-budget fuzz pass over the trial-template mutation engine
# (trapezoidal trials only, checked against the rebuild-per-trial
# TransientSolver), the restricted sparse solve (its out rows must match
# the dense LU solve bit for bit), the block polar draw (PolarFill must equal as many
# Polar calls, pair for pair), the
# signature binary decoder, the NDF breakpoint sweep (a hang is a
# failure), the zone-LUT rectangle query and the zone LUT of fuzzed
# monitor widths, biases and drive patterns (an answer must match the
# exact classifier), the noise plan of a fuzzed shift, noise spread,
# seed, period count and observation (its codes and averaged NDF must
# match the per-tick loop bit for bit), the fabric job-log replay, the shard accumulator
# codecs, the campaign spec ingress and the HTTP handlers of both APIs
# (seed corpora are checked in under testdata/fuzz or added in the fuzz
# targets). Each target gets 10s — enough to exercise the mutator on
# every seed class without blowing the CI budget. `go test -fuzz`
# accepts one target per invocation, hence the per-target runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzTemplateMutation$$' -fuzztime=10s ./internal/spice
	$(GO) test -run=^$$ -fuzz='^FuzzSolveProgram$$' -fuzztime=10s ./internal/num
	$(GO) test -run=^$$ -fuzz='^FuzzPolarFill$$' -fuzztime=10s ./internal/rng
	$(GO) test -run=^$$ -fuzz='^FuzzUnmarshalBinary$$' -fuzztime=10s ./internal/signature
	$(GO) test -run=^$$ -fuzz='^FuzzNDF$$' -fuzztime=10s ./internal/ndf
	$(GO) test -run=^$$ -fuzz='^FuzzClassifyRect$$' -fuzztime=10s ./internal/monitor
	$(GO) test -run=^$$ -fuzz='^FuzzZoneLUTConfig$$' -fuzztime=10s ./internal/monitor
	$(GO) test -run=^$$ -fuzz='^FuzzNoisePlan$$' -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzJobLogReplay$$' -fuzztime=10s ./internal/fabric
	$(GO) test -run=^$$ -fuzz='^FuzzShardBlobUnmarshal$$' -fuzztime=10s ./internal/testbench
	$(GO) test -run=^$$ -fuzz='^FuzzSpecDecode$$' -fuzztime=10s ./internal/testbench
	$(GO) test -run=^$$ -fuzz='^FuzzHandler$$' -fuzztime=10s ./internal/serve

# HTTP service smoke: boot mcserved on an ephemeral port and run one
# small campaign through its own API (list, submit, poll, result).
serve-smoke:
	$(GO) run ./cmd/mcserved -smoke

# Distributed-fabric smoke: coordinator + two in-process HTTP workers
# run a sharded yield campaign with one deliberately dropped lease; the
# merged result must be bit-identical to the single-node run and the
# dropped shard must be re-leased after its TTL.
fabric-smoke:
	$(GO) run ./cmd/mcserved -fabric-smoke

# Load gate: replay the deterministic mixed workload through an
# in-process mcserved, write the throughput/latency report, and fail on
# a regression against the checked-in baseline (throughput floor 1/4x,
# latency quantile ceiling 4x — wide enough for machine variation, tight
# enough to catch a blocking instrument or accidental O(n^2) route; see
# cmd/mcload). LOAD_BASELINE.json regenerates with
# `go run ./cmd/mcload -baseline LOAD_BASELINE.json -update-baseline`.
load:
	$(GO) run ./cmd/mcload -jobs 40 -concurrency 4 -seed 1 \
		-baseline LOAD_BASELINE.json -report load_report.json

# Short load profile for the CI gate: same workload, fewer jobs.
load-smoke:
	$(GO) run ./cmd/mcload -jobs 12 -concurrency 4 -seed 1 \
		-baseline LOAD_BASELINE.json -report load_report.json
