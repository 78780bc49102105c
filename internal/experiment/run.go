// Package experiment reproduces the paper's evaluation: it builds
// fabrics, drives the management protocol through the paper's scenarios
// (initial discovery, event-route distribution, a topological change,
// PI-5 detection, change assimilation), and renders each table and figure
// of section 4 as a textual report. Independent simulation runs execute
// in parallel across a worker pool.
package experiment

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Change selects the topological change injected after the transient
// period, as in the paper: "the addition or removal of a randomly chosen
// fabric switch".
type Change int

const (
	// NoChange measures the discovery of the fully active fabric
	// (paper Figs. 4, 7 and 8: "assuming that all fabric devices are
	// active").
	NoChange Change = iota
	// RemoveSwitch hot-removes a random switch; PI-5 reports trigger
	// the measured rediscovery.
	RemoveSwitch
	// AddSwitch boots the fabric with one random switch absent and
	// hot-adds it after the transient.
	AddSwitch
)

// String names the change.
func (c Change) String() string {
	switch c {
	case NoChange:
		return "none"
	case RemoveSwitch:
		return "remove"
	case AddSwitch:
		return "add"
	default:
		return fmt.Sprintf("Change(%d)", int(c))
	}
}

// Outcome carries one run's measurements.
type Outcome struct {
	Config Config
	// PhysicalNodes is the total device count of the built topology
	// (the x-axis of Fig. 6b); Switches its switch count.
	PhysicalNodes int
	Switches      int
	// ActiveNodes counts devices alive and reachable from the FM after
	// the change (the x-axis of Fig. 6a).
	ActiveNodes int
	// Result is the measured discovery: the change-triggered run, or
	// the initial discovery for NoChange.
	Result core.Result
	// Initial is the transient-period discovery that preceded the
	// change.
	Initial core.Result
	// Err reports a failed run (e.g. no PI-5 reached the FM).
	Err error
	// Telemetry is the run's end-of-run metric snapshot, non-nil only
	// when Config.Telemetry was set. Its sim.events counter counts the
	// engine's events over every phase (transient, change, assimilation).
	Telemetry *telemetry.Snapshot
	// Spans is the run's causal span log, non-nil only when
	// Config.Spans was set.
	Spans *span.Log
}

// RunConfig executes one run configuration to completion: the paper's
// procedure, step for step, on one rig.
func RunConfig(cfg Config) (out Outcome) {
	out = Outcome{Config: cfg}
	tp, err := topo.ByName(cfg.Topology)
	if err != nil {
		out.Err = err
		return out
	}
	out.PhysicalNodes = len(tp.Nodes)
	out.Switches = tp.NumSwitches()

	// Unvalidated configs are tolerated: what Validate would have refused
	// comes back from rig.New.
	r, err := rig.New(tp, cfg.rigConfig())
	if err != nil {
		out.Err = err
		return out
	}
	defer out.measure(r)

	// Pick the changed switch up front (never the FM's host switch,
	// which would cut the manager off entirely). The draw continues the
	// fabric stream where building the fabric left it.
	var target topo.NodeID = -1
	if cfg.Change != NoChange {
		for {
			target = r.Fabric.RandomSwitch(r.RNG)
			if target != r.HostSwitch {
				break
			}
		}
	}
	if cfg.Change == AddSwitch {
		if out.Err = r.Fabric.SetDeviceDown(target, true); out.Err != nil {
			return out
		}
	}

	// Transient period: initial discovery and event-route distribution.
	var results []core.Result
	r.Manager.OnDiscoveryComplete = func(res core.Result) { results = append(results, res) }
	if out.Err = r.Bootstrap(); out.Err != nil {
		return out
	}
	if len(results) != 1 {
		out.Err = fmt.Errorf("experiment: initial discovery produced %d results", len(results))
		return out
	}
	out.Initial = results[0]
	if cfg.Change == NoChange {
		out.Result = out.Initial
		out.ActiveNodes, _ = r.Fabric.AliveReachable(r.Manager.Device().ID)
		return out
	}

	// Inject the change; PI-5 reports trigger the measured assimilation.
	if out.Err = r.Toggle(target, cfg.Change == RemoveSwitch); out.Err != nil {
		return out
	}
	r.Run()
	if len(results) < 2 {
		out.Err = fmt.Errorf("experiment: change on %s (switch %d) triggered no discovery",
			cfg.Topology, target)
		return out
	}
	out.Result = aggregate(results[1:])
	out.ActiveNodes, _ = r.Fabric.AliveReachable(r.Manager.Device().ID)
	return out
}

// measure closes the run's books, whether it succeeded or not: the
// observers' logs.
func (out *Outcome) measure(r *rig.Rig) {
	if r.Spans != nil {
		l := r.Spans.Log()
		out.Spans = &l
	}
	if r.Registry != nil {
		s := r.Snapshot()
		out.Telemetry = &s
	}
}

// aggregate folds the runs one change triggered into one measurement:
// partial assimilation may produce several small runs, one per coalesced
// report batch. Their timelines join in run order, one point per
// processed packet; clipped, the first append copies, so runs[0] keeps
// its own.
func aggregate(runs []core.Result) core.Result {
	sum := runs[0]
	sum.Timeline = slices.Clip(sum.Timeline)
	for _, r := range runs[1:] {
		sum.Timeline = append(sum.Timeline, r.Timeline...)
		sum.End = r.End
		sum.Duration += r.Duration
		sum.PacketsSent += r.PacketsSent
		sum.BytesSent += r.BytesSent
		sum.PacketsReceived += r.PacketsReceived
		sum.BytesReceived += r.BytesReceived
		sum.Processed += r.Processed
		sum.FMBusy += r.FMBusy
		sum.TimedOut += r.TimedOut
		sum.Retries += r.Retries
		sum.GaveUp += r.GaveUp
		sum.Stale += r.Stale
		sum.Devices = r.Devices
		sum.Switches = r.Switches
		sum.Links = r.Links
	}
	return sum
}

// RunConfigWithRetry reruns with shifted seeds when a run fails for a
// seed-specific reason (e.g. every PI-5 reporter was stranded by the
// change), keeping sweep tables dense.
func RunConfigWithRetry(cfg Config, retries int) Outcome {
	out := RunConfig(cfg)
	for i := 0; i < retries && out.Err != nil; i++ {
		cfg.Seed += 7919
		out = RunConfig(cfg)
	}
	return out
}

// RunConfigAll executes the configurations across a worker pool,
// preserving order. workers <= 0 selects GOMAXPROCS.
func RunConfigAll(cfgs []Config, workers int) []Outcome {
	out := make([]Outcome, len(cfgs))
	rig.ForEach(len(cfgs), workers, func(i int) {
		out[i] = RunConfigWithRetry(cfgs[i], 2)
	})
	return out
}
