package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/asi"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rib"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// rig is the benchmark's own assembly of the daemon's layers, made from
// the same public calls cmd/asifmd makes: topology, engine, fabric with
// telemetry, manager whose completed discoveries install into the RIB,
// and the observability plane. Everything here runs on the driver
// goroutine; only the RIB's subscribers run elsewhere.
type rig struct {
	tp    *topo.Topology
	e     *sim.Engine
	f     *fabric.Fabric
	m     *core.Manager
	reg   *telemetry.Registry
	rib   *rib.RIB
	plane *obs.Plane
	tr    *tracer
	start time.Time

	hostSwitch topo.NodeID
	switches   []topo.NodeID // every switch but the FM's host switch

	// Accumulated by the OnDiscoveryComplete callback.
	runs           int          // completed discovery runs
	packets        uint64       // Result.PacketsSent over those runs
	simRun         sim.Duration // Result.Duration over those runs
	timeouts       int          // Result.TimedOut
	retries        int          // Result.Retries
	gaveUp         int          // Result.GaveUp
	lastDone       sim.Time     // e.Now() at the latest completion
	lastResult     core.Result  // the latest completed run
	genChain       uint64       // FNV-1a chain over each generation's fingerprint
	installs       int          // RIB installs
	lastInstallEnd time.Time    // when the latest Install returned

	// The RIB's event hook fires on installer and pump goroutines.
	overflows, resyncs atomic.Int64

	buildTimes  rigBuildTimes
	proms       int // /metrics renderings into promDiscard
	promDiscard countingWriter
}

// rigBuildTimes are the set-up stages' wall times.
type rigBuildTimes struct {
	fabric, bootstrap time.Duration
}

type rigSpec struct {
	topo        string
	alg         core.Kind
	assimWindow sim.Duration
}

// rngFor derives the fabric-level random stream from a seed the way
// experiment.RunConfig and cmd/asifmd do, so simulated results match
// theirs for the same seed.
func rngFor(seed uint64) *sim.RNG { return sim.NewRNG(seed*2654435761 + 1) }

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// chain folds one 64-bit value into an FNV-1a chain, low byte first.
func chain(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// newRig builds the serving rig and brings it to generation 1: initial
// discovery, event-route distribution, first install.
func newRig(spec rigSpec, tp *topo.Topology, seed uint64, tr *tracer) (*rig, error) {
	r := &rig{tp: tp, tr: tr, reg: telemetry.New(), plane: obs.New(obs.Config{}), start: time.Now(), genChain: fnvOffset}
	r.rib = rib.New(rib.Config{OnEvent: func(kind string, gen uint64) {
		switch kind {
		case rib.EventOverflow:
			r.overflows.Add(1)
		case rib.EventResync:
			r.resyncs.Add(1)
		}
		r.plane.Log(kind, gen, 0, "")
	}})

	t0 := time.Now()
	r.e = sim.NewEngine()
	f, err := fabric.New(r.e, tp, fabric.Config{}, rngFor(seed))
	if err != nil {
		return nil, err
	}
	r.f = f
	f.EnableTelemetry(r.reg)
	ep := f.Device(tp.Endpoints()[0])
	r.hostSwitch, _, _ = tp.Peer(ep.ID, 0)
	for _, n := range tp.Nodes {
		if n.Type == asi.DeviceSwitch && n.ID != r.hostSwitch {
			r.switches = append(r.switches, n.ID)
		}
	}
	r.m = core.NewManager(f, ep, core.Options{Algorithm: spec.alg, Telemetry: r.reg, AssimWindow: spec.assimWindow})
	r.m.OnDiscoveryComplete = r.onComplete
	r.buildTimes.fabric = time.Since(t0)

	t0 = time.Now()
	r.m.StartDiscovery()
	r.e.Run()
	if r.installs == 0 {
		return nil, fmt.Errorf("bench: initial discovery of %q completed no run", tp.Name)
	}
	failures := 0
	r.m.DistributeEventRoutes(func(d core.DistResult) { failures = d.Failures })
	r.e.Run()
	if failures > 0 {
		return nil, fmt.Errorf("bench: %d event-route distribution failures on %q", failures, tp.Name)
	}
	r.buildTimes.bootstrap = time.Since(t0)
	return r, nil
}

// onComplete is the manager's completion hook: it installs the database
// into the RIB exactly as the daemon does.
func (r *rig) onComplete(res core.Result) {
	r.runs++
	r.packets += res.PacketsSent
	r.simRun += res.Duration
	r.timeouts += res.TimedOut
	r.retries += res.Retries
	r.gaveUp += res.GaveUp
	r.lastDone = r.e.Now()
	res.Timeline = nil
	r.lastResult = res

	r.tr.begin("rib.install")
	gen, _ := r.rib.Install(r.m.DB())
	r.tr.end()
	r.lastInstallEnd = time.Now()
	r.installs++
	r.genChain = chain(r.genChain, r.rib.Current().Fingerprint)
	r.plane.Log(obs.EventDiscoveryConverge, gen, int64(r.e.Now()), "")
}

// toggle schedules one switch transition at the given simulated time.
func (r *rig) toggle(at sim.Time, id topo.NodeID, down bool) {
	r.e.At(at, func(*sim.Engine) {
		var err error
		if down {
			err = r.f.SetDeviceDown(id, false)
		} else {
			err = r.f.SetDeviceUp(id, false)
		}
		if err != nil {
			panic(err) // the generator only ever toggles a switch to its other state
		}
	})
}

// scrape is the daemon's periodic scrape: publish the engine, flap and
// staleness figures, freeze the registry, store one plane sample.
func (r *rig) scrape() {
	r.e.RecordTelemetry(r.reg, time.Since(r.start))
	r.reg.Counter(fabric.MetricLinkFlaps).SetTotal(r.f.Counters().LinkFlaps)
	r.m.RecordDBStaleness()
	r.tr.begin("telemetry.snapshot")
	snap := r.reg.Snapshot()
	r.tr.end()
	stats := r.rib.Stats()
	r.plane.Scrape(obs.Sample{SimPS: int64(r.e.Now()), Gen: stats.Gen, Telemetry: snap, Serving: stats})
}

// audit forces one full rediscovery, one more generation.
func (r *rig) audit() {
	r.m.StartDiscovery()
	r.e.Run()
}

// converged checks the manager's database against the fabric's ground
// truth.
func (r *rig) converged() error { return chaos.CheckConverged(r.f, r.m, r.lastResult) }

// dropped sums a fabric's discarded packets over every reason.
func dropped(c fabric.Counters) (n uint64) {
	for _, d := range c.Drops {
		n += d
	}
	return n
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }
