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
#                                  CLIs' included (asidisc's run report,
#                                  span pipelines with -spans-in, -list
#                                  and -describe, asibench, asichaos's
#                                  sweep, its -workers determinism and a
#                                  corpus replay, asifmd's three daemon
#                                  smokes),
#                                  the Example functions, every asibench
#                                  table byte-identical to
#                                  results/asibench-seeds4.txt, and
#                                  the docs tests: every ledger row,
#                                  section and cmd/ directory that
#                                  README.md, DESIGN.md, EXPERIMENTS.md
#                                  (and, for commands, this Makefile)
#                                  cite exists
#                   race           the same under the race detector, less
#                                  the results referee
#                   bench-test     the repo benchmark's own tests (bench/ is
#                                  its own module; Tier-1 does not reach them)
#                   bench-diff     every Go benchmark in the module, each
#                                  run first at one iteration, gated on
#                                  allocs/op and B/op against BENCH_sim.json,
#                                  BENCH_fm.json, BENCH_serve.json and
#                                  BENCH_obs.json (both exact; ns/op is
#                                  printed, never gated)
#                 Measured wall time per step on a shared 2-core Xeon
#                 host, test cache cleared, build cache warm, 202 s in all
#                 (test includes internal/rig's 5 s dragonfly 16x950
#                 bootstrap, which race leaves out):
#                   fmt-check 0.1 s   seam-check 0.0 s  build 1.8 s
#                   vet 2.8 s         test 30.9 s       race 146.6 s
#                   bench-test 2.9 s  bench-diff 16.4 s
#   make race     - go test -race ./...
#   make fuzz     - bounded native-fuzzing burst on the chaos harness,
#                   the RIB, the event queue, the topology namer, the
#                   configuration-space decoders, the run report, the
#                   /metrics exposition and the Chrome trace export
#   make bench    - regenerate the four ledgers: figure, engine, fabric and
#                   topology benchmarks -> BENCH_sim.json (benchstat-
#                   compatible raw lines plus parsed metrics, one
#                   "current" section), the FM-database ledger
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
# Each ledger's packages, for both bench and bench-diff. Every package
# with a Go benchmark is in one of them.
SIM_PKGS = . ./internal/fabric ./internal/sim ./internal/topo
FM_PKGS = ./internal/core ./internal/fib
SERVE_PKGS = ./internal/rib
OBS_PKGS = ./internal/obs ./internal/telemetry
BENCH_RUN = $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT)

# A recipe's pipeline fails when any stage does: a benchmark that fails
# fails bench-diff.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build vet test race verify bench bench-diff bench-test \
	fmt-check seam-check fuzz

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
# non-test Go under cmd/ or internal/ may create an engine,
# build a fabric, attach a manager, or derive a random stream from a seed.
# Further managers on one fabric come from rig.Rig.AddManager. The
# region-sharded mechanism (partition, shard group, sharded fabric) has
# no caller at all outside the layers that implement it: only bench/
# links it. The span tracer is the fabric's one packet recorder: no
# second tracer hook or packet-trace package comes back.
seam-check:
	@out="$$(grep -rnE 'sim\.NewEngine\(|fabric\.New\(|core\.NewManager\(|2654435761' \
		cmd internal --include='*.go' \
		| grep -vE '_test\.go:|^internal/(sim|fabric|core|rig)/')"; if [ -n "$$out" ]; then \
		echo "a managed fabric is being assembled outside internal/rig:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'sim\.NewShardGroup\(|fabric\.NewSharded\(|\.Partition\(' \
		cmd internal --include='*.go' \
		| grep -vE '_test\.go:|^internal/(sim|fabric|topo)/')"; if [ -n "$$out" ]; then \
		echo "the region-sharded mechanism has a caller outside internal/{sim,fabric,topo}:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'SetTracer\(|repro/internal/trace"' . --include='*.go')"; if [ -n "$$out" ]; then \
		echo "a second packet recorder is attached beside the span tracer:"; echo "$$out"; exit 1; fi

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
# cabling. The three asi targets are the configuration-space decoders'
# fuzz wall (general information, port information, event route, seeded
# from the Table 1 fabrics; the FM parses every completion with them): no
# panic, no read past the input, and what a decoder accepts re-encodes
# byte for byte. Packets themselves are never serialized, so there is no
# wire decoder to fuzz. The experiment target holds the run-report
# envelope to the same rule: what it accepts re-encodes into a document
# that decodes to the same value. The obs and
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
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzParseGeneralInfo$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzParsePortInfo$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asi -run '^$$' -fuzz '^FuzzDecodeEventRoute$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz '^FuzzDecodeRunReport$$' -fuzztime $(FUZZTIME)
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

verify: fmt-check seam-check build vet test race bench-test bench-diff

bench:
	$(BENCH_RUN) $(SIM_PKGS) | $(GO) run ./cmd/benchjson -tee -o BENCH_sim.json
	$(BENCH_RUN) $(FM_PKGS) | $(GO) run ./cmd/benchjson -tee -o BENCH_fm.json
	$(BENCH_RUN) $(SERVE_PKGS) | $(GO) run ./cmd/benchjson -tee -o BENCH_serve.json
	$(BENCH_RUN) $(OBS_PKGS) | $(GO) run ./cmd/benchjson -tee -o BENCH_obs.json
