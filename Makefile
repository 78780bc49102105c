# Tier-1 verification for the asifabric reproduction.
#
#   make          - build + vet + test (the default gate)
#   make verify   - the full gate, in this order:
#                   fmt-check      gofmt -l is empty
#                   seam-check     a fabric is assembled in internal/rig only,
#                                  never a sharded one, and spans are its
#                                  only packet recorder
#                   build vet
#                   test           go test ./...: every unit, property,
#                                  allocation-pin and end-to-end test, the
#                                  CLIs' included (asidisc's run report and
#                                  span pipelines, asitrace, asichaos's
#                                  sweep, its -workers determinism and a
#                                  corpus replay, asifmd's three daemon
#                                  smokes)
#                   race           the same under the race detector
#                   results-check  every asibench table byte-identical to
#                                  results/asibench-seeds4.txt
#                   bench-test     the repo benchmark's own tests (bench/ is
#                                  its own module; Tier-1 does not reach them)
#                   bench-diff     every Go benchmark in the module, each
#                                  run first at one iteration, gated on
#                                  allocs/op and B/op against BENCH_sim.json,
#                                  BENCH_fm.json, BENCH_serve.json and
#                                  BENCH_obs.json (both exact; ns/op is
#                                  printed, never gated)
#                 Measured wall time per step on a shared 2-core Xeon
#                 host, test cache cleared, build cache warm, 278 s in all:
#                   fmt-check 0.3 s   seam-check 0.0 s  build 2.7 s
#                   vet 1.2 s         test 18.9 s       race 208.7 s
#                   results-check 17.6 s                bench-test 2.8 s
#                   bench-diff 25.4 s
#   make race     - go test -race ./...
#   make fuzz     - bounded native-fuzzing burst on the chaos harness,
#                   the RIB, the event queue, the topology namer, the
#                   wire decoders, the run report, the daemon config, the
#                   /metrics exposition and the Chrome trace export
#   make bench    - regenerate the four ledgers: figure, engine, fabric and
#                   topology benchmarks -> BENCH_sim.json (benchstat-
#                   compatible raw lines plus parsed metrics, with
#                   results/bench_baseline.txt embedded as the
#                   before/baseline section), the FM-database ledger
#                   (internal/core, internal/fib) -> BENCH_fm.json, the
#                   serving ledger (internal/rib) -> BENCH_serve.json and
#                   the observation ledger (internal/obs, internal/telemetry)
#                   -> BENCH_obs.json

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
# Each ledger's packages, for both bench and bench-diff. Every package
# with a Go benchmark is in one of them.
SIM_PKGS = . ./internal/fabric ./internal/sim ./internal/topo
FM_PKGS = ./internal/core ./internal/fib
SERVE_PKGS = ./internal/rib
OBS_PKGS = ./internal/obs ./internal/telemetry
BENCH_RUN = $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT)

# A recipe's pipeline fails when any stage does: a benchmark that fails
# fails bench-diff, and an asibench that fails fails results-check.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build vet test race verify bench bench-diff bench-test \
	fmt-check seam-check results-check fuzz

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test runs every test in the module. Among them are the allocation
# contracts (tests named *ZeroAlloc*, *AllocBudget*, *RecordSizes* and
# TestIntern*): the engine's schedule, fire, cancel and timer-rearm paths
# at zero both within the near run's capacity and with spill and refill in
# play, the instrumentation hooks' disabled cost and a warm PI-4 round
# trip (FM -> device -> FM, and the bare fabric's BenchmarkForward/off) at
# zero allocations, fabric.New within its bytes-per-device-or-link budget,
# one cold Parallel discovery within its bytes budget, the link and
# request records within their sizes, and the serving layer: a Clone at
# the same allocations on any fabric and a write after it at the
# directory, one page and the one device it touches, and an intern table
# that twenty rediscoveries and a switch down and up leave as it was, also
# while clones are read elsewhere; a FIB update at its table and two
# slices plus one per rerouted device, one install of the 8x8 torus (a
# link flap, an eight-switch storm) within its bytes budget, queueing and
# delivering a generation at zero, one install at well under one
# allocation per extra subscriber; the observation path: a path refresh of
# an unchanged database and a DB-staleness reading at zero, a /metrics
# render at two at most, a registry snapshot at one allocation per section
# plus one per histogram.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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

# bench-test runs the repo benchmark's own tests. bench/ is a separate
# module (replace repro => ../), so `go test ./...` from the root never
# builds it; a change that breaks what the benchmark uses of the program
# fails here.
bench-test:
	cd bench && $(GO) test ./...

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

# bench-diff re-runs every benchmark in the module and gates it against
# its ledger: an allocs/op increase beyond max(2, 0.1%) rounding/GC slack
# or a B/op increase beyond max(64, 1%) fails. ns/op is printed next to
# the committed value and not gated: on a shared host it fails on noise
# alone. Go runs each benchmark once at one iteration before it measures,
# so a benchmark that no longer runs fails here too. Regenerate the
# ledgers with `make bench` when a change legitimately moves the numbers.
bench-diff:
	$(BENCH_RUN) $(SIM_PKGS) | $(GO) run ./cmd/benchjson -diff BENCH_sim.json
	$(BENCH_RUN) $(FM_PKGS) | $(GO) run ./cmd/benchjson -diff BENCH_fm.json
	$(BENCH_RUN) $(SERVE_PKGS) | $(GO) run ./cmd/benchjson -diff BENCH_serve.json
	$(BENCH_RUN) $(OBS_PKGS) | $(GO) run ./cmd/benchjson -diff BENCH_obs.json

verify: fmt-check seam-check build vet test race results-check bench-test bench-diff

bench:
	$(BENCH_RUN) $(SIM_PKGS) | $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_BASELINE) -o BENCH_sim.json
	$(BENCH_RUN) $(FM_PKGS) | $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_FM_BASELINE) -o BENCH_fm.json
	$(BENCH_RUN) $(SERVE_PKGS) | $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_SERVE_BASELINE) -o BENCH_serve.json
	$(BENCH_RUN) $(OBS_PKGS) | $(GO) run ./cmd/benchjson -tee -baseline $(BENCH_OBS_BASELINE) -o BENCH_obs.json
