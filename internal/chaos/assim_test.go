package chaos

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestCorpusAssimilationEquivalence is the equivalence property over the
// committed corpus: for every scenario, batched-coalesced assimilation
// must reach the same quiescent database fingerprint as per-event Partial
// assimilation, and — when the audit ran undefeated — the same database a
// full rediscovery of the settled fabric rebuilds from scratch. Scenarios
// where injected loss defeated a run in either mode are excluded (a
// gave-up run legitimately truncates a subtree), but the suite fails if
// that exclusion leaves nothing compared.
func TestCorpusAssimilationEquivalence(t *testing.T) {
	compared := 0
	for _, sc := range CorpusScenarios() {
		sc := sc
		t.Run(CorpusFilename(sc), func(t *testing.T) {
			s := sc
			s.Algorithm = core.Partial.Slug()
			perEvent, err := Execute(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			coalesced, err := Execute(s, Options{Coalesce: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := (Oracle{}).Check(perEvent); err != nil {
				t.Errorf("per-event oracle: %v", err)
			}
			if err := (Oracle{}).Check(coalesced); err != nil {
				t.Errorf("coalesced oracle: %v", err)
			}
			if !allTrustworthy(perEvent) || !allTrustworthy(coalesced) {
				t.Logf("excluded: a run was defeated by injected loss")
				return
			}
			compared++
			if perEvent.PostChurnFP != coalesced.PostChurnFP {
				t.Errorf("post-churn databases differ: per-event %#x, coalesced %#x",
					perEvent.PostChurnFP, coalesced.PostChurnFP)
			}
			// The audit rediscovered the same settled fabric from scratch;
			// its database is the full-rediscovery reference.
			if coalesced.AuditRan && coalesced.PostChurnFP != coalesced.DBFingerprint {
				t.Errorf("coalesced post-churn database %#x differs from full-rediscovery audit %#x",
					coalesced.PostChurnFP, coalesced.DBFingerprint)
			}
		})
	}
	if compared == 0 {
		t.Error("loss exclusions left no corpus scenario compared; the property checked nothing")
	}
}

// TestContinuousSteadyState drives the steady-state chaos mode: Churner
// rounds against the coalescing FM, with convergence asserted at every
// quiescent point by the executor and judged by the oracle.
func TestContinuousSteadyState(t *testing.T) {
	sc := Scenario{
		Name:     "continuous-4x4",
		Seed:     7,
		Topology: TopologySpec{Catalogue: "4x4 mesh"},
	}
	for _, coalesce := range []bool{false, true} {
		sc.Algorithm = core.Partial.Slug()
		opt := Options{Continuous: 6, Coalesce: coalesce, Telemetry: true}
		rep, err := Execute(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := (Oracle{}).Check(rep); err != nil {
			t.Errorf("coalesce=%v: oracle: %v", coalesce, err)
		}
		if rep.ContinuousRounds != 6 {
			t.Errorf("coalesce=%v: %d continuous rounds completed, want 6", coalesce, rep.ContinuousRounds)
		}
		if rep.ContinuousChecked != 6 {
			t.Errorf("coalesce=%v: %d of 6 quiescent points convergence-checkable; want all", coalesce, rep.ContinuousChecked)
		}
		events, _ := rep.Telemetry.Counter(core.MetricFMAssimEvents)
		flushes, _ := rep.Telemetry.Counter(core.MetricFMAssimFlushes)
		if coalesce {
			if events == 0 || flushes == 0 {
				t.Errorf("coalescing on: %d assim events, %d flushes; want both nonzero", events, flushes)
			}
		} else if events != 0 || flushes != 0 {
			t.Errorf("coalescing off: %d assim events, %d flushes; want both zero", events, flushes)
		}
	}
}

// pi5Recorder captures every PI-5 packet delivered to the FM so the fuzz
// target can re-deliver verbatim copies as stale-sequence duplicates.
type pi5Recorder struct {
	inner fabric.Handler
	pkts  []asi.Packet
}

func (r *pi5Recorder) HandlePacket(port int, pkt *asi.Packet) {
	if pkt.Header.PI == asi.PI5EventReporting {
		r.pkts = append(r.pkts, *pkt)
	}
	r.inner.HandlePacket(port, pkt)
}

// FuzzCoalesce interleaves switch toggles, partial drains and verbatim
// stale PI-5 re-deliveries against the coalescing front-end. Whatever the
// interleaving, the FM must never panic, never strand accepted reports
// (idle manager, empty debounce window at quiescence), and converge to
// the live ground truth once the fabric is restored and drained. The 4x4
// torus has 75 (reporter, port) pairs facing a churnable switch, so a
// storm can fill a batch past its 64-pair cap.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})                               // down/up the same switch back to back
	f.Add([]byte{0, 2, 0, 2})                         // toggles separated by drains
	f.Add([]byte{0, 4, 3, 2, 8, 0, 3})                // toggles, stale dup, drain, more churn
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 2, 3}) // storm across many switches, then dup
	// Every churnable switch down and up at one instant: all 75 pairs
	// report in one window, and the cap flushes the batch.
	f.Add([]byte{0, 0, 4, 4, 8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 28, 28, 32, 32, 36, 36, 40, 40, 44, 44, 48, 48, 52, 52, 56, 56})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		tp := topo.Torus(4, 4)
		e := sim.NewEngine()
		fb, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		ep := fb.Device(tp.Endpoints()[0])
		m := core.NewManager(fb, ep, core.Options{
			Algorithm:   core.Partial,
			AssimWindow: 200 * sim.Microsecond,
		})
		var results []core.Result
		m.OnDiscoveryComplete = func(r core.Result) { results = append(results, r) }
		rec := &pi5Recorder{inner: m}
		ep.SetHandler(rec)
		m.StartDiscovery()
		e.Run()
		m.DistributeEventRoutes(nil)
		e.Run()
		if m.Discovering() {
			t.Fatal("setup: initial discovery did not complete")
		}

		// Churnable switches: everything but the FM's uplink switch.
		_, host := rig.Host(tp)
		var switches []topo.NodeID
		for _, n := range tp.Nodes {
			if n.Type == asi.DeviceSwitch && n.ID != host {
				switches = append(switches, n.ID)
			}
		}
		down := make(map[topo.NodeID]bool)
		for _, b := range data {
			arg := int(b / 4)
			switch b % 4 {
			case 0, 1: // toggle a switch, honoring its current state
				sw := switches[arg%len(switches)]
				if down[sw] {
					err = fb.SetDeviceUp(sw, false)
				} else {
					err = fb.SetDeviceDown(sw, false)
				}
				if err != nil {
					t.Fatalf("toggle %v: %v", sw, err)
				}
				down[sw] = !down[sw]
			case 2: // advance simulated time without fully draining
				e.RunUntil(e.Now().Add(sim.Duration(arg) * 20 * sim.Microsecond))
			case 3: // re-deliver a recorded PI-5 verbatim: a stale duplicate
				if len(rec.pkts) > 0 {
					pkt := rec.pkts[arg%len(rec.pkts)]
					m.HandlePacket(0, &pkt)
				}
			}
		}

		// Restore every downed switch and drain to quiescence.
		for _, sw := range switches {
			if down[sw] {
				if err := fb.SetDeviceUp(sw, false); err != nil {
					t.Fatalf("restore %v: %v", sw, err)
				}
			}
		}
		e.Run()

		if m.Discovering() {
			t.Fatal("manager still discovering after full drain")
		}
		if n := m.AssimPending(); n != 0 {
			t.Fatalf("%d reports stranded in the debounce window after full drain", n)
		}
		// A run defeated by a timeout (a request in flight to a switch
		// that died under it) may have truncated the database; a clean
		// audit over the restored, loss-free fabric must repair it.
		trusted := true
		for _, r := range results {
			if r.TimedOut > 0 || r.GaveUp > 0 {
				trusted = false
				break
			}
		}
		if !trusted {
			m.StartDiscovery()
			e.Run()
		}
		wantDev, wantLinks := fb.AliveReachable(ep.ID)
		db := m.DB()
		if db.NumNodes() != wantDev || db.NumLinks() != wantLinks {
			t.Fatalf("database has %d devices / %d links at quiescence, ground truth %d / %d",
				db.NumNodes(), db.NumLinks(), wantDev, wantLinks)
		}
		if reached := db.TreeFrom(db.HostDSN).Reached(); reached+1 != db.NumNodes() {
			t.Fatalf("%d of %d nodes reachable in the FM's own database", reached+1, db.NumNodes())
		}
	})
}
