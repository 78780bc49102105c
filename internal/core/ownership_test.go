package core_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
)

// ownershipConfigs is the 50-scenario fingerprint suite of
// internal/experiment (fingerprint_test.go keeps the list unexported):
// every paper algorithm, both change kinds, partial assimilation, and
// lossy runs with retries.
func ownershipConfigs(t *testing.T) []experiment.Config {
	t.Helper()
	var cfgs []experiment.Config
	add := func(cfg experiment.Config) { cfgs = append(cfgs, cfg) }
	for _, tn := range []string{"3x3 mesh", "4x4 mesh", "4x4 torus"} {
		for _, k := range core.PaperKinds() {
			for _, ch := range []experiment.Change{experiment.NoChange, experiment.RemoveSwitch} {
				for _, seed := range []uint64{1, 2} {
					add(experiment.Config{Topology: tn, Algorithm: k, Seed: seed, Change: ch})
				}
			}
		}
	}
	for _, tn := range []string{"4x4 mesh", "6x6 mesh"} {
		for _, ch := range []experiment.Change{experiment.RemoveSwitch, experiment.AddSwitch} {
			for _, seed := range []uint64{1, 3} {
				add(experiment.Config{Topology: tn, Algorithm: core.Partial, Seed: seed, Change: ch})
			}
		}
	}
	for _, k := range core.PaperKinds() {
		for _, seed := range []uint64{1, 2} {
			add(experiment.Config{Topology: "4x4 mesh", Algorithm: k, Seed: seed, Faults: fabric.Uniform(0.01), MaxRetries: 3})
		}
	}
	if len(cfgs) != 50 {
		t.Fatalf("fingerprint suite has %d scenarios, want 50", len(cfgs))
	}
	return cfgs
}

// TestRecycledRecordsHaveOneOwner is the ownership test for the FM's
// recycled requests and packets. With poisoning on, release scrambles
// every field of the record, so anything that still read a request or a
// packet after its release — a queued work item, a retry timer, a driver,
// a device, a span — would compute from garbage. The 50-scenario
// fingerprint suite and the committed chaos corpus (with telemetry and
// spans on, as TestCorpus runs it) must produce bit-identical results
// with poisoning on and off.
func TestRecycledRecordsHaveOneOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fingerprint suite and the chaos corpus twice")
	}
	defer core.SetPoison(core.SetPoison(false))
	cfgs := ownershipConfigs(t)
	for i := range cfgs {
		cfgs[i].Telemetry = true // the snapshot carries the event count
	}
	scenarios := chaos.CorpusScenarios()
	opt := chaos.Options{Telemetry: true, Spans: true}

	run := func() ([]experiment.Outcome, []*chaos.Report) {
		outs := experiment.RunConfigAll(cfgs, 0)
		reps := make([]*chaos.Report, len(scenarios))
		for i, sc := range scenarios {
			rep, err := chaos.Execute(sc, opt)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			reps[i] = rep
		}
		return outs, reps
	}
	plainOuts, plainReps := run()
	core.SetPoison(true)
	poisonOuts, poisonReps := run()

	for i, cfg := range cfgs {
		a, b := plainOuts[i], poisonOuts[i]
		if a.Err != nil || b.Err != nil {
			t.Errorf("%s/%v/%v/seed%d: errors %v, %v", cfg.Topology, cfg.Algorithm, cfg.Change, cfg.Seed, a.Err, b.Err)
			continue
		}
		if !reflect.DeepEqual(a.Result, b.Result) || !reflect.DeepEqual(a.Initial, b.Initial) || !reflect.DeepEqual(a.Telemetry, b.Telemetry) {
			t.Errorf("%s/%v/%v/seed%d: poisoning released records changed the run:\n off %+v\n on  %+v",
				cfg.Topology, cfg.Algorithm, cfg.Change, cfg.Seed, a.Result, b.Result)
		}
	}
	for i, sc := range scenarios {
		a, b := plainReps[i], poisonReps[i]
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: fingerprint %#x with poisoning off, %#x on", sc.Name, a.Fingerprint, b.Fingerprint)
		}
		if err := (chaos.Oracle{}).Check(b); err != nil {
			t.Errorf("%s: oracle with poisoning on: %v", sc.Name, err)
		}
	}
}
