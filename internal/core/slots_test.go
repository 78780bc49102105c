package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/asi"
	"repro/internal/topo"
)

// TestInternTableOutlivesRediscovery pins the intern table's growth
// bound: it holds the distinct DSNs ever recorded. Twenty full
// rediscoveries of the 8x8 torus, each frozen by a Clone as the RIB
// freezes a generation, then a switch down and back up, intern nothing:
// the table keeps its size, and the manager's database keeps the very
// version and map the first discovery built, so no rediscovery allocates
// a map.
func TestInternTableOutlivesRediscovery(t *testing.T) {
	for _, kind := range []Kind{Parallel, Partial} {
		tp, err := topo.ByName("8x8 torus")
		if err != nil {
			t.Fatal(err)
		}
		e, f, m := setup(t, tp, kind)
		runDiscovery(t, e, m)
		m.db.Clone()
		tab, index := m.db.tab, reflect.ValueOf(m.db.tab.index).Pointer()
		if len(tab.dsns) != len(tp.Nodes) {
			t.Fatalf("%v: a cold discovery interned %d DSNs, want %d", kind, len(tab.dsns), len(tp.Nodes))
		}
		for i := 0; i < 20; i++ {
			runDiscovery(t, e, m)
			m.db.Clone()
		}
		m.DistributeEventRoutes(func(d DistResult) {
			if d.Failures != 0 {
				t.Fatalf("%v: event-route distribution failures: %d", kind, d.Failures)
			}
		})
		e.Run()
		hostSwitch := m.db.NeighborsOf(m.dev.DSN)[0].DSN
		var sw topo.NodeID
		for id, n := range tp.Nodes {
			if n.Type == asi.DeviceSwitch && f.Device(topo.NodeID(id)).DSN != hostSwitch {
				sw = topo.NodeID(id)
				break
			}
		}
		for _, down := range []bool{true, false} {
			if down {
				err = f.SetDeviceDown(sw, false)
			} else {
				err = f.SetDeviceUp(sw, false)
			}
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			if kind != Partial {
				runDiscovery(t, e, m)
			}
			if got := m.db.NumNodes(); down && got >= len(tp.Nodes) {
				t.Fatalf("%v: the switch went down and the database still holds %d devices", kind, got)
			}
			m.db.Clone()
		}
		if got := m.db.NumNodes(); got != len(tp.Nodes) {
			t.Fatalf("%v: the switch came back to a database of %d devices, want %d", kind, got, len(tp.Nodes))
		}
		if m.db.tab != tab || len(tab.dsns) != len(tp.Nodes) || reflect.ValueOf(m.db.tab.index).Pointer() != index {
			t.Errorf("%v: after 20 rediscoveries and a switch down and up the table holds %d DSNs (want %d), same version %v, same map %v",
				kind, len(m.db.tab.dsns), len(tp.Nodes), m.db.tab == tab, reflect.ValueOf(m.db.tab.index).Pointer() == index)
		}
	}
}

// TestInternWhileFrozenRead interns new devices into a live database while
// clones of it are read on other goroutines — the serving layer's pumps
// render frozen generations while the manager goes on recording — and
// requires every clone to read as it did when it was taken. Run it under
// -race: the table a clone reads is frozen and must never be written, and
// the first new DSN after a Clone copies it exactly once.
func TestInternWhileFrozenRead(t *testing.T) {
	db := NewDB(1)
	db.AddNode(&Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1})
	next := asi.DSN(2)
	grow := func(k int) {
		for ; k > 0; k-- {
			db.AddNode(&Node{DSN: next, Type: asi.DeviceSwitch, Ports: 4})
			db.AddLink(Link{A: next - 1, APort: 1, B: next, BPort: 0})
			next += 7 // out of order with the slots once it wraps
			if next > 400 {
				next -= 397
			}
		}
	}
	grow(20)
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		frozen := db.Clone()
		want, links, nodes := frozen.Fingerprint(), frozen.Links(), frozen.NumNodes()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := frozen.Fingerprint(); got != want {
					t.Errorf("a frozen clone fingerprints %x, was %x", got, want)
					return
				}
				if d := DiffDBs(frozen, frozen); !d.Empty() {
					t.Errorf("a frozen clone differs from itself: %v", d)
					return
				}
				if got := frozen.Links(); !reflect.DeepEqual(got, links) || frozen.NumNodes() != nodes {
					t.Error("a frozen clone's links or devices moved")
					return
				}
			}
		}()
		tab := db.tab
		grow(1)
		if db.tab == tab {
			t.Fatal("the first new DSN after a Clone wrote the frozen table")
		}
		tab = db.tab
		grow(5)
		if db.tab != tab {
			t.Fatal("a second new DSN after a Clone copied the table again")
		}
	}
	wg.Wait()
}
