package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// options are one run's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // -scale tiny: the tests' small fabrics
	outDir   string // where the traced run writes trace-<workload>.json
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	problems          []string // output checks that failed
	metrics           map[string]float64
	golden            goldenRec
}

func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

// workload is one set of inputs. Exactly one of discover and churn is set.
type workload struct {
	name, why string
	setups    int // set-up repeats; setup_s is their median
	discover  func(tiny bool) discoverSpec
	churn     func(tiny bool) churnSpec
}

// discoverSpec sizes a discover workload.
type discoverSpec struct {
	fabrics []string
	algs    []core.Kind
	changes []change
	absent  int
	// prefixCycles whole cycles always run and carry the golden record
	// and the simulated metrics; after them the run continues in whole
	// cycles until its time is up.
	prefixCycles int
	// orderFabric is the fabric whose remove-switch rows give the three
	// sim_discovery_ms_<algorithm> metrics ("" for none).
	orderFabric string
	shardTrial  string // fabric of the sharded-path trial ("" for none)
}

// churnSpec sizes a churn workload.
type churnSpec struct {
	rig    rigSpec
	ops    int // switches taken down by an even round and restored by the next
	subs   subSpec
	scrape bool // one obs scrape and /metrics rendering per round
	// prefixPairs down/up round pairs always run and carry the golden
	// record and the simulated metrics.
	prefixPairs int
}

// toggleSpacing separates a round's toggles in simulated time.
const toggleSpacing = 50 * sim.Microsecond

func table1Names() []string {
	var names []string
	for _, s := range topo.Table1() {
		names = append(names, s.Name)
	}
	return names
}

var wholeTree = []string{"/"}

// workloads is the benchmark, in the order -all runs it.
var workloads = []workload{
	{
		name:   "discover-paper",
		why:    "the researcher's sweep: every Table 1 fabric x 3 algorithms x remove/add a switch; small fabrics, shallow event heap, sim and fabric per-event cost dominates, rib/fib/obs idle",
		setups: 9,
		discover: func(tiny bool) discoverSpec {
			s := discoverSpec{
				fabrics: table1Names(), algs: core.PaperKinds(), changes: []change{removeSwitch, addSwitch},
				prefixCycles: 3, orderFabric: "8x8 mesh",
			}
			if tiny {
				s.fabrics, s.prefixCycles, s.orderFabric = []string{"3x3 mesh", "4x4 torus", "4-port 2-tree"}, 1, "4x4 torus"
			}
			return s
		},
	},
	{
		name:   "discover-scale",
		why:    "cold Parallel discovery of dragonfly 16x64 and autofat 128x4096: the same sim, fabric and core layers with a deep heap, a large DB and about 1 M events per run, where events/s falls fivefold",
		setups: 3,
		discover: func(tiny bool) discoverSpec {
			s := discoverSpec{
				fabrics: []string{"dragonfly 16x64", "autofat 128x4096"}, algs: []core.Kind{core.Parallel},
				changes: []change{noChange}, absent: 4, prefixCycles: 2, shardTrial: "dragonfly 16x64",
			}
			if tiny {
				s.fabrics, s.prefixCycles, s.shardTrial = []string{"dragonfly 4x6", "autofat 8x32"}, 1, "dragonfly 4x6"
			}
			return s
		},
	},
	{
		name:   "churn-serve",
		why:    "the default daemon on an 8x8 torus: full Parallel rediscovery per change, 2 subscribers, a scrape per round; write-heavy use of rib, where Install and fib.Derive are most of a round",
		setups: 9,
		churn: func(tiny bool) churnSpec {
			s := churnSpec{
				rig: rigSpec{topo: "8x8 torus", alg: core.Parallel}, ops: 2,
				subs: subSpec{inproc: 2, prefixes: wholeTree}, scrape: true, prefixPairs: 20,
			}
			if tiny {
				s.rig.topo, s.prefixPairs = "4x4 torus", 2
			}
			return s
		},
	},
	{
		name:   "churn-assim",
		why:    "the same 8x8 torus under storms of 8 toggles with coalesced Partial assimilation (200 us window): the dominant layer swaps from rib/fib to core's partial runs and path refresh",
		setups: 9,
		churn: func(tiny bool) churnSpec {
			s := churnSpec{
				rig: rigSpec{topo: "8x8 torus", alg: core.Partial, assimWindow: 200 * sim.Microsecond}, ops: 8,
				subs: subSpec{inproc: 2, prefixes: wholeTree}, scrape: true, prefixPairs: 20,
			}
			if tiny {
				s.rig.topo, s.ops, s.prefixPairs = "4x4 torus", 3, 2
			}
			return s
		},
	},
	{
		name:   "fanout",
		why:    "a 4x4 mesh whose installs are cheap, read by 384 in-process, 2 loopback HTTP and 1 stalling subscriber: read-heavy use of rib, where fan-out, pump wake-ups, Apply and JSON encoding are the work",
		setups: 9,
		churn: func(tiny bool) churnSpec {
			s := churnSpec{
				rig: rigSpec{topo: "4x4 mesh", alg: core.Parallel}, ops: 1,
				subs: subSpec{
					inproc: 384, prefixes: []string{"/", "/topology/links", "/fib/routes"},
					http: 2, gated: true,
				},
				prefixPairs: 200,
			}
			if tiny {
				s.rig.topo, s.subs.inproc, s.prefixPairs = "3x3 mesh", 12, 45
			}
			return s
		},
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, names)
}

// run executes one workload once.
func run(o options) (*outcome, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if w.discover != nil {
		return runDiscover(w, w.discover(o.tiny), o)
	}
	return runChurn(w, w.churn(o.tiny), o)
}
