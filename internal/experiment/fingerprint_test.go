package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/span"
)

// fingerprintConfigs spans the simulation's behaviour space: every paper
// algorithm, both change kinds, partial assimilation, and lossy runs with
// retries — 50 scenarios in all.
func fingerprintConfigs(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	add := func(cfg Config) { cfgs = append(cfgs, cfg) }
	for _, tn := range []string{"3x3 mesh", "4x4 mesh", "4x4 torus"} {
		for _, k := range core.PaperKinds() {
			for _, ch := range []Change{NoChange, RemoveSwitch} {
				for _, seed := range []uint64{1, 2} {
					add(Config{Topology: tn, Algorithm: k, Seed: seed, Change: ch})
				}
			}
		}
	}
	for _, tn := range []string{"4x4 mesh", "6x6 mesh"} {
		for _, ch := range []Change{RemoveSwitch, AddSwitch} {
			for _, seed := range []uint64{1, 3} {
				add(Config{Topology: tn, Algorithm: core.Partial, Seed: seed, Change: ch})
			}
		}
	}
	for _, k := range core.PaperKinds() {
		for _, seed := range []uint64{1, 2} {
			add(Config{Topology: "4x4 mesh", Algorithm: k, Seed: seed, Faults: fabric.Uniform(0.01), MaxRetries: 3})
		}
	}
	if len(cfgs) != 50 {
		t.Fatalf("fingerprint suite has %d scenarios, want 50", len(cfgs))
	}
	return cfgs
}

// TestTelemetryDoesNotPerturbSimulation: switching telemetry on changes
// no simulated metric. Every scenario must produce bit-identical results
// with collection enabled and disabled. The engine's event count, which
// only an instrumented run reports, is compared on the rig by
// rig.TestObserversDoNotPerturbSimulation.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("50-scenario sweep")
	}
	plain := fingerprintConfigs(t)
	instrumented := make([]Config, len(plain))
	for i, cfg := range plain {
		cfg.Telemetry = true
		instrumented[i] = cfg
	}
	base := RunConfigAll(plain, 0)
	meas := RunConfigAll(instrumented, 0)
	for i := range base {
		name := fmt.Sprintf("%s/%v/%v/seed%d", plain[i].Topology,
			plain[i].Algorithm, plain[i].Change, plain[i].Seed)
		a, b := base[i], meas[i]
		if (a.Err == nil) != (b.Err == nil) {
			t.Errorf("%s: error mismatch: %v vs %v", name, a.Err, b.Err)
			continue
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("%s: Result diverged:\n off %+v\n on  %+v", name, a.Result, b.Result)
		}
		if !reflect.DeepEqual(a.Initial, b.Initial) {
			t.Errorf("%s: Initial diverged", name)
		}
		if a.ActiveNodes != b.ActiveNodes || a.PhysicalNodes != b.PhysicalNodes {
			t.Errorf("%s: node counts diverged: %d/%d vs %d/%d", name,
				a.ActiveNodes, a.PhysicalNodes, b.ActiveNodes, b.PhysicalNodes)
		}
		if b.Err == nil && b.Telemetry == nil {
			t.Errorf("%s: instrumented run carries no snapshot", name)
		}
		if a.Telemetry != nil {
			t.Errorf("%s: plain run unexpectedly carries a snapshot", name)
		}
	}
}

// TestSpansDoNotPerturbSimulation repeats the non-perturbation guarantee
// for causal span tracing: switching spans on changes no simulated metric
// in any of the 50 fingerprint scenarios. Both sides collect telemetry,
// so the whole snapshot, the sim.events count included, must match too.
func TestSpansDoNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("50-scenario sweep")
	}
	plain := fingerprintConfigs(t)
	traced := make([]Config, len(plain))
	for i := range plain {
		plain[i].Telemetry = true
		traced[i] = plain[i]
		traced[i].Spans = true
	}
	base := RunConfigAll(plain, 0)
	meas := RunConfigAll(traced, 0)
	for i := range base {
		name := fmt.Sprintf("%s/%v/%v/seed%d", plain[i].Topology,
			plain[i].Algorithm, plain[i].Change, plain[i].Seed)
		a, b := base[i], meas[i]
		if (a.Err == nil) != (b.Err == nil) {
			t.Errorf("%s: error mismatch: %v vs %v", name, a.Err, b.Err)
			continue
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("%s: Result diverged:\n off %+v\n on  %+v", name, a.Result, b.Result)
		}
		if !reflect.DeepEqual(a.Initial, b.Initial) {
			t.Errorf("%s: Initial diverged", name)
		}
		if a.ActiveNodes != b.ActiveNodes || a.PhysicalNodes != b.PhysicalNodes {
			t.Errorf("%s: node counts diverged: %d/%d vs %d/%d", name,
				a.ActiveNodes, a.PhysicalNodes, b.ActiveNodes, b.PhysicalNodes)
		}
		if !reflect.DeepEqual(a.Telemetry, b.Telemetry) {
			t.Errorf("%s: telemetry snapshots diverged", name)
		}
		if b.Spans == nil {
			t.Errorf("%s: traced run carries no span log", name)
		}
		if a.Spans != nil {
			t.Errorf("%s: plain run unexpectedly carries a span log", name)
		}
	}
}

// TestTimelineCountsEveryProcessedPacket reads the Fig. 7(a) trace from
// the span log of every fingerprint scenario: the initial discovery's
// band holds one point per packet Initial processed, and the measured
// timeline (every band after it, for a change) one per packet Result
// processed, never going backwards. Lossy runs with retries and the
// multi-run Partial adds and removes are among the scenarios. A log
// that dropped spans is refused.
func TestTimelineCountsEveryProcessedPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("50-scenario sweep")
	}
	cfgs := fingerprintConfigs(t)
	for i := range cfgs {
		cfgs[i].Spans = true
	}
	for i, o := range RunConfigAll(cfgs, 0) {
		name := fmt.Sprintf("%s/%v/%v/seed%d", cfgs[i].Topology,
			cfgs[i].Algorithm, cfgs[i].Change, cfgs[i].Seed)
		if o.Err != nil {
			t.Errorf("%s: %v", name, o.Err)
			continue
		}
		runs, err := span.Timelines(*o.Spans, core.UpkeepBand)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(runs) == 0 || len(runs[0]) != o.Initial.Processed {
			t.Errorf("%s: the initial band holds %d points over %d bands, Initial processed %d",
				name, len(runs[0]), len(runs), o.Initial.Processed)
		}
		tl, err := o.Timeline()
		if err != nil || len(tl) != o.Result.Processed {
			t.Errorf("%s: %d timeline points (err %v), Result processed %d", name, len(tl), err, o.Result.Processed)
		}
		for j := 1; j < len(tl); j++ {
			if tl[j] < tl[j-1] {
				t.Errorf("%s: timeline point %d at %v precedes point %d at %v", name, j+1, tl[j], j, tl[j-1])
				break
			}
		}
		dropped := *o.Spans
		dropped.Dropped = 1
		if _, err := span.Timelines(dropped, core.UpkeepBand); err == nil {
			t.Errorf("%s: read a timeline from a log that dropped a span", name)
		}
	}
}
