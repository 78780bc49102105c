package main

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// change is the topological change a discovery run assimilates, as in
// experiment.Change: the paper's "addition or removal of a randomly
// chosen fabric switch".
type change int

const (
	noChange change = iota
	removeSwitch
	addSwitch
)

func (c change) String() string { return [...]string{"none", "remove", "add"}[c] }

// discoverCase is one discovery run's configuration.
type discoverCase struct {
	tp     *topo.Topology
	alg    core.Kind
	change change
	// absent switches are quietly down before a noChange run starts, so
	// that the discovered fabric depends on the seed.
	absent int
}

// discoverStats is what one discovery run measured.
type discoverStats struct {
	wall       time.Duration
	events     uint64
	maxPending int
	simTime    sim.Duration // Result.Duration of the measured discovery
	packets    uint64       // Result.PacketsSent of the measured discovery
	runs       int          // discovery runs the measurement aggregates
	fmBusy     sim.Duration
	processed  int
	tx, drops  uint64 // fabric link transmissions and drops, whole run
	reseeds    int    // seed shifts needed before the change was detected
}

// add accumulates another run's counts; maxPending keeps the maximum.
func (st *discoverStats) add(o discoverStats) {
	st.wall += o.wall
	st.events += o.events
	st.maxPending = max(st.maxPending, o.maxPending)
	st.simTime += o.simTime
	st.packets += o.packets
	st.runs += o.runs
	st.fmBusy += o.fmBusy
	st.processed += o.processed
	st.tx += o.tx
	st.drops += o.drops
	st.reseeds += o.reseeds
}

// errNoDetection marks a seed on which no PI-5 report of the change
// reached the FM (every reporter's event route crossed the changed
// switch); like experiment.RunConfigWithRetry the caller shifts the seed.
var errNoDetection = fmt.Errorf("bench: the change triggered no discovery")

// discover performs one complete discovery run and checks its result
// against the fabric's ground truth. It follows experiment.RunConfig
// step for step (same random stream, same target choice), so simulated
// results equal asibench's for the same seed; it is spelled out here
// because the benchmark needs the fabric and manager RunConfig keeps to
// itself: spans around Engine.Run, fabric counters, the oracle.
func discover(c discoverCase, seed uint64, tr *tracer) (discoverStats, error) {
	for shift := 0; ; shift++ {
		st, err := discoverSeed(c, seed, tr)
		if err != errNoDetection || shift == 8 {
			st.reseeds = shift
			return st, err
		}
		seed += 7919
	}
}

func discoverSeed(c discoverCase, seed uint64, tr *tracer) (st discoverStats, err error) {
	t0 := time.Now()
	e := sim.NewEngine()
	rng := rngFor(seed)
	f, err := fabric.New(e, c.tp, fabric.Config{}, rng)
	if err != nil {
		return st, err
	}
	ep := f.Device(c.tp.Endpoints()[0])
	m := core.NewManager(f, ep, core.Options{Algorithm: c.alg})
	hostSwitch, _, _ := c.tp.Peer(ep.ID, 0)
	pick := func() topo.NodeID {
		for {
			if id := f.RandomSwitch(rng); id != hostSwitch {
				return id
			}
		}
	}
	var target topo.NodeID
	if c.change != noChange {
		target = pick()
	}
	if c.change == addSwitch {
		if err := f.SetDeviceDown(target, true); err != nil {
			return st, err
		}
	}
	for i := 0; i < c.absent; i++ {
		if id := pick(); f.Alive(id) {
			if err := f.SetDeviceDown(id, true); err != nil {
				return st, err
			}
		}
	}
	run := func() {
		tr.begin("sim.run")
		e.Run()
		tr.end()
	}

	var results []core.Result
	m.OnDiscoveryComplete = func(r core.Result) {
		r.Timeline = nil
		results = append(results, r)
	}
	m.StartDiscovery()
	run()
	if len(results) != 1 {
		return st, fmt.Errorf("bench: initial discovery of %q produced %d results", c.tp.Name, len(results))
	}
	measured := results
	if c.change != noChange {
		failures := 0
		m.DistributeEventRoutes(func(d core.DistResult) { failures = d.Failures })
		run()
		if failures > 0 {
			return st, fmt.Errorf("bench: %d event-route distribution failures on %q", failures, c.tp.Name)
		}
		if c.change == removeSwitch {
			err = f.SetDeviceDown(target, false)
		} else {
			err = f.SetDeviceUp(target, false)
		}
		if err != nil {
			return st, err
		}
		run()
		if len(results) < 2 {
			return st, errNoDetection
		}
		measured = results[1:]
	}

	for _, r := range measured {
		st.simTime += r.Duration
		st.packets += r.PacketsSent
		st.fmBusy += r.FMBusy
		st.processed += r.Processed
		if r.GaveUp > 0 {
			return st, fmt.Errorf("bench: discovery of %q gave up %d requests", c.tp.Name, r.GaveUp)
		}
	}
	st.runs = len(measured)
	st.events, st.maxPending = e.Processed, e.MaxPending
	cnt := f.Counters()
	st.tx, st.drops = cnt.TxPackets, dropped(cnt)
	st.wall = time.Since(t0)
	return st, chaos.CheckConverged(f, m, results[len(results)-1])
}
