package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// dump renders everything a database holds, bookkeeping included; with
// addrs, also where each entry's route is stored, so that a write that
// replaces a frozen entry's route with an equal one still shows.
func dump(db *DB, addrs bool) string {
	var b strings.Builder
	for _, n := range db.Nodes() {
		fmt.Fprintf(&b, "%+v %v", *n, db.NeighborsOf(n.DSN))
		if addrs {
			fmt.Fprintf(&b, " %p", n.Path)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestClonesTakenMidRunStayFrozen clones the manager's database every 40
// events — through full discoveries of the three paper algorithms, a
// lossy one that gives requests up, and Partial assimilation, per event
// and coalesced, of a switch going down and coming back — and requires
// every clone to read at the end as it did when it was taken, and the run
// to end where an undisturbed run ends.
func TestClonesTakenMidRunStayFrozen(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		opt  Options
		plan fabric.FaultPlan
	}{
		{name: "serial-packet", kind: SerialPacket},
		{name: "serial-device", kind: SerialDevice},
		{name: "parallel", kind: Parallel},
		{name: "parallel, lossy", kind: Parallel, plan: fabric.Uniform(0.02)},
		{name: "partial", kind: Partial},
		{name: "partial, coalesced", kind: Partial, opt: Options{AssimWindow: sim.Micros(200)}},
	}
	for _, tc := range cases {
		run := func(clone bool) (stages []string, frozen int) {
			e, f, m := setupFaulty(t, topo.Mesh(3, 3), tc.kind, 1, tc.plan, tc.opt)
			type copyAt struct {
				db   *DB
				dump string
			}
			var copies []copyAt
			// Step the engine rather than schedule the clones: an event of
			// the test's own would shift the run's event sequence.
			drain := func() {
				for i := 0; e.Step(); i++ {
					if clone && i%40 == 0 {
						c := m.DB().Clone()
						copies = append(copies, copyAt{c, dump(c, true)})
					}
				}
			}
			m.StartDiscovery()
			drain()
			stages = append(stages, dump(m.DB(), false))
			if tc.kind == Partial {
				m.DistributeEventRoutes(func(DistResult) {})
				e.Run()
				for _, up := range []bool{false, true} {
					toggle := f.SetDeviceDown
					if up {
						toggle = f.SetDeviceUp
					}
					if err := toggle(4, false); err != nil { // sw(1,1): routes through it reroute
						t.Fatal(err)
					}
					drain()
					stages = append(stages, dump(m.DB(), false))
				}
			}
			for i, c := range copies {
				if dump(c.db, true) != c.dump {
					t.Errorf("%s: clone %d of %d changed after it was taken", tc.name, i, len(copies))
				}
			}
			return stages, len(copies)
		}
		want, _ := run(false)
		got, frozen := run(true)
		if frozen < 10 {
			t.Errorf("%s: %d clones taken, want a run's worth", tc.name, frozen)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: cloning mid-run changed the run's database at stage %d:\n%s\nundisturbed:\n%s", tc.name, i, got[i], want[i])
			}
		}
	}
}
