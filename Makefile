# Tier-1 verification for the asifabric reproduction.
#
#   make          - build + vet + test (the default gate)
#   make verify   - the full gate, in this order:
#                   fmt-check      gofmt -l is empty
#                   seam-check     a fabric is assembled in internal/rig only,
#                                  never a sharded one, and spans are its
#                                  only packet recorder
#                   build vet test race
#                   results-check  every asibench table byte-identical to
#                                  results/asibench-seeds4.txt
#                   bench-test     the repo benchmark's own tests (bench/ is
#                                  its own module; Tier-1 does not reach them)
#                   bench-smoke    every Go benchmark runs one iteration
#                   json-smoke span-smoke
#                                  run report and span pipelines decode
#                   alloc-check    zero-alloc and allocation-budget pins
#                   chaos-smoke chaos-par-smoke
#                                  chaos sweep and its -workers determinism
#                   asifmd-smoke   the three end-to-end tests of cmd/asifmd:
#                                  1000-subscriber replay identity, the
#                                  observability plane, coalesced assimilation
#                   bench-diff     allocs/op and B/op against BENCH_sim.json,
#                                  BENCH_fm.json, BENCH_serve.json and
#                                  BENCH_obs.json (both exact; ns/op is
#                                  printed, never gated)
#                 Measured wall time per step on a 2-core Xeon host, test
#                 cache cleared, build cache warm, 135 s in all:
#                   fmt-check 0.2 s   seam-check 0.0 s  build 1.9 s
#                   vet 0.6 s         test 9.6 s        race 94.6 s
#                   results-check 7.8 s                 bench-test 2.6 s
#                   bench-smoke 2.3 s json-smoke 0.2 s  span-smoke 0.3 s
#                   alloc-check 0.9 s chaos-smoke 0.2 s chaos-par-smoke 0.1 s
#                   asifmd-smoke 1.6 s                  bench-diff 10.9 s
#   make race     - go test -race ./...
#   make fuzz     - bounded native-fuzzing burst on the chaos harness,
#                   the RIB, the event queue, the topology namer, the
#                   wire decoders, the run report, the daemon config, the
#                   /metrics exposition and the Chrome trace export
#   make bench    - figure, engine and topology benchmarks -> BENCH_sim.json
#                   (benchstat-compatible raw lines plus parsed metrics,
#                   with results/bench_baseline.txt embedded as the
#                   before/baseline section), then the FM-database
#                   ledger (internal/core, internal/fib) -> BENCH_fm.json,
#                   the serving ledger (internal/rib) -> BENCH_serve.json
#                   and the observation ledger (internal/obs,
#                   internal/telemetry) -> BENCH_obs.json

GO ?= go
BENCHTIME ?= 3x
# Each benchmark runs BENCHCOUNT times; benchjson -diff compares the
# per-benchmark minimum, which keeps the regression gate stable on busy
# or single-core hosts despite the short BENCHTIME.
BENCHCOUNT ?= 5
# The figure, engine and topology ledger's, the FM-database ledger's and
# the serving ledger's before sections: the same benchmarks on the
# parent of the latest change to them (a database of two DSN-keyed maps
# and a heap record per device, rebuilt with its maps by every
# rediscovery and copied map by map after a Clone).
BENCH_BASELINE ?= results/bench_baseline.txt
BENCH_FM_BASELINE ?= results/bench_fm_baseline.txt
BENCH_SERVE_BASELINE ?= results/bench_serve_baseline.txt
# The observation ledger's before section: the same benchmarks on the
# commit before the append-based /metrics render and the presized
# registry snapshot.
BENCH_OBS_BASELINE ?= results/bench_obs_baseline.txt

.PHONY: all build vet test race verify bench bench-smoke bench-diff bench-test \
	fmt-check seam-check results-check json-smoke span-smoke alloc-check \
	chaos-smoke chaos-par-smoke asifmd-smoke fuzz

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke proves every benchmark still runs (one iteration each)
# without paying for stable measurements; part of the verify gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /dev/null

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# seam-check keeps the "topology -> engine -> fabric -> manager ->
# observers" recipe written once: outside the layers themselves
# (internal/sim, internal/fabric, internal/core) and internal/rig, no
# non-test Go under cmd/, internal/ or examples/ may create an engine,
# build a fabric, attach a manager, or derive a random stream from a seed.
# Further managers on one fabric come from rig.Rig.AddManager. The
# region-sharded mechanism (partition, shard group, sharded fabric) has
# no caller at all outside the layers that implement it: only bench/
# links it. The span tracer is the fabric's one packet recorder: no
# second tracer hook or packet-trace package comes back.
seam-check:
	@out="$$(grep -rnE 'sim\.NewEngine\(|fabric\.New\(|core\.NewManager\(|2654435761' \
		cmd internal examples --include='*.go' \
		| grep -vE '_test\.go:|^internal/(sim|fabric|core|rig)/')"; if [ -n "$$out" ]; then \
		echo "a managed fabric is being assembled outside internal/rig:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'sim\.NewShardGroup\(|fabric\.NewSharded\(|\.Partition\(' \
		cmd internal --include='*.go' \
		| grep -vE '_test\.go:|^internal/(sim|fabric|topo)/')"; if [ -n "$$out" ]; then \
		echo "the region-sharded mechanism has a caller outside internal/{sim,fabric,topo}:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'SetTracer\(|repro/internal/trace"' . --include='*.go')"; if [ -n "$$out" ]; then \
		echo "a second packet recorder is attached beside the span tracer:"; echo "$$out"; exit 1; fi

# results-check is the absolute referee for the simulation: every table
# asibench prints must be byte-identical to the committed run. The
# fingerprint suites only compare a run with itself; this catches a
# change that reorders one random draw.
results-check:
	$(GO) run ./cmd/asibench -seeds 4 2>/dev/null | diff - results/asibench-seeds4.txt

# json-smoke proves the machine-readable pipeline end to end: a telemetry
# run's report must decode against the run-report schema.
json-smoke:
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -alg parallel -telemetry -json \
		| $(GO) run ./cmd/reportjson > /dev/null

# span-smoke proves the causal-trace pipeline end to end: a traced run's
# Chrome trace-event file must load back through asitrace, a traced run
# report (with its spans section) must decode, and the -trace packet view
# over the span log must print.
span-smoke:
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -alg parallel \
		-spans-out $${TMPDIR:-/tmp}/asi_span_smoke.json > /dev/null
	$(GO) run ./cmd/asitrace $${TMPDIR:-/tmp}/asi_span_smoke.json > /dev/null
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -alg parallel -spans -json \
		| $(GO) run ./cmd/reportjson > /dev/null
	$(GO) run ./cmd/asidisc -topo "3x3 mesh" -change remove -trace 40 | grep -q '^trace truncated: '
	rm -f $${TMPDIR:-/tmp}/asi_span_smoke.json

# alloc-check pins the allocation contracts: the engine's schedule, fire,
# cancel and timer-rearm paths at zero both within the near run's capacity
# and with spill and refill in play, the instrumentation hooks' disabled
# cost and a warm PI-4 round trip (FM -> device -> FM, and the bare
# fabric's BenchmarkForward/off) at zero allocations, fabric.New within
# its bytes-per-device-or-link budget, one cold Parallel discovery within
# its bytes budget, the link and request records within their sizes, and
# the serving layer: a Clone at the same allocations on any fabric and a
# write after it at the directory, one page and the one device it
# touches, and an intern table that twenty rediscoveries and a switch
# down and up leave as it was, also while clones are read elsewhere; a FIB
# update at its table and two slices plus one per rerouted device, one
# install of the 8x8 torus (a link flap, an eight-switch storm) within
# its bytes budget, queueing and delivering a generation at zero, one
# install at well under one allocation per extra subscriber; the
# observation path: a path refresh of an unchanged database and a
# DB-staleness reading at zero, a /metrics render at two at most, a
# registry snapshot at one allocation per section plus one per histogram.
alloc-check:
	$(GO) test -run 'ZeroAlloc|AllocBudget|RecordSizes|TestIntern' ./internal/sim/ ./internal/fabric/ ./internal/core/ ./internal/fib/ ./internal/rib/ ./internal/obs/ ./internal/telemetry/

# bench-test runs the repo benchmark's own tests. bench/ is a separate
# module (replace repro => ../), so `go test ./...` from the root never
# builds it; a change that breaks what the benchmark uses of the program
# fails here.
bench-test:
	cd bench && $(GO) test ./...

# chaos-smoke sweeps generated chaos scenarios through every paper
# algorithm (cross-checked topology fingerprints) and the convergence
# oracle; any failure prints a shrunk minimal reproducer.
chaos-smoke:
	$(GO) run ./cmd/asichaos -runs 25 -algs all

# chaos-par-smoke proves the parallel sweep is deterministic: the same
# sweep at -workers 1 and -workers 8 must print byte-identical verbose
# output, per-scenario fingerprints included.
chaos-par-smoke:
	$(GO) run ./cmd/asichaos -runs 16 -workers 1 -v > $${TMPDIR:-/tmp}/asi_sweep_w1.txt
	$(GO) run ./cmd/asichaos -runs 16 -workers 8 -v > $${TMPDIR:-/tmp}/asi_sweep_w8.txt
	diff $${TMPDIR:-/tmp}/asi_sweep_w1.txt $${TMPDIR:-/tmp}/asi_sweep_w8.txt
	rm -f $${TMPDIR:-/tmp}/asi_sweep_w1.txt $${TMPDIR:-/tmp}/asi_sweep_w8.txt

# fuzz gives each native fuzz target a short bounded burst; the committed
# corpus under internal/chaos/testdata/corpus seeds FuzzScenario.
# FuzzRIBStream referees delivery: random installs read by subscribers
# that wait, dawdle, stall past the queue depth and close; every stream is
# one sync then strictly increasing generations, resyncs only after an
# overflow, replays to the live snapshot, and leaves no goroutine behind.
# FuzzQueueOrder replays schedule/cancel/step/run-until streams against a
# sorted-slice reference of the engine's two-tier queue. FuzzParseName
# builds every legal name it finds and checks the port table against the
# cabling. The seven asi targets are the decoders' fuzz wall, on the wire
# (packet, PI-4, PI-5, header) and in the configuration space (general
# information, port information, event route, seeded from the Table 1
# fabrics): no panic, no read past the input, and what a decoder accepts
# re-encodes byte for byte. The two experiment targets hold the run-report
# envelope and the daemon config to the same rule: what they accept
# re-encodes into a document that decodes to the same value. The obs and
# span targets close the wall's last two pairs: a /metrics document
# ParseProm accepts re-renders into one that parses to the same points and
# types (and every rendered plane parses), and a span log ReadChrome
# accepts writes back into a Chrome trace that reads as the same log.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzGenerated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chaos -run '^$$' -fuzz '^FuzzCoalesce$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rib -run '^$$' -fuzz '^FuzzInstallChangeSets$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rib -run '^$$' -fuzz '^FuzzRIBStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/topo -run '^$$' -fuzz '^FuzzParseName$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzDecodePacket$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzDecodePI4$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzDecodePI5$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzDecodeHeader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzParseGeneralInfo$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzParsePortInfo$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzDecodeEventRoute$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz '^FuzzDecodeRunReport$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz '^FuzzDecodeDaemonConfig$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzPromRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/span -run '^$$' -fuzz '^FuzzChromeRoundTrip$$' -fuzztime $(FUZZTIME)

# asifmd-smoke runs the FM daemon's three end-to-end tests, each an
# in-process asifmd under churn built like main's:
#   TestDaemonSmoke  1000 in-process plus 8 HTTP subscribers replay a
#                    fat-tree's diff stream; every reconstructed snapshot
#                    must be byte-identical to the live RIB and
#                    fingerprint-identical to core.DB.Fingerprint, and the
#                    run must end at its pinned generation and fingerprint.
#   TestObsSmoke     the observability plane, scraped twice over HTTP: the
#                    Prometheus text must parse, every windowed rate must
#                    be finite, the staleness percentiles populated.
#   TestAssimSmoke   12 daemon steps (churn round, re-audit check, cursor
#                    expiry every 4th) against the coalescing partial FM
#                    must converge to ground truth at quiescence, leave
#                    nothing stranded in the debounce window, and publish
#                    the pinned fm.assim.* counts plus the DB-staleness
#                    gauges over /metrics.
asifmd-smoke:
	$(GO) test -run '^(TestDaemonSmoke|TestObsSmoke|TestAssimSmoke)$$' -count=1 ./cmd/asifmd/

# bench-diff re-runs the benchmark suites and gates them against the
# committed BENCH_sim.json, BENCH_fm.json, BENCH_serve.json and
# BENCH_obs.json: an
# allocs/op increase beyond max(2, 0.1%) rounding/GC slack or a B/op
# increase beyond max(64, 1%) fails. ns/op is printed next to the
# committed value and not gated: on a shared host it fails on noise alone.
# Regenerate the baselines with `make bench` when a change legitimately
# moves the numbers.
bench-diff:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ./internal/sim ./internal/topo \
		| $(GO) run ./cmd/benchjson -diff BENCH_sim.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/core ./internal/fib \
		| $(GO) run ./cmd/benchjson -diff BENCH_fm.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/rib \
		| $(GO) run ./cmd/benchjson -diff BENCH_serve.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/obs ./internal/telemetry \
		| $(GO) run ./cmd/benchjson -diff BENCH_obs.json

verify: fmt-check seam-check build vet test race results-check bench-test bench-smoke json-smoke span-smoke alloc-check chaos-smoke chaos-par-smoke asifmd-smoke bench-diff

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ./internal/sim ./internal/topo \
		| $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_BASELINE) -o BENCH_sim.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/core ./internal/fib \
		| $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_FM_BASELINE) -o BENCH_fm.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/rib \
		| $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_SERVE_BASELINE) -o BENCH_serve.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/obs ./internal/telemetry \
		| $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_OBS_BASELINE) -o BENCH_obs.json
