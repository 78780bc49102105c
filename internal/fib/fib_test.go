package fib

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// discover runs one full discovery and returns the manager (whose DB is
// the derivation input) and the fabric.
func discover(t testing.TB, topoName string) (*core.Manager, *fabric.Fabric) {
	t.Helper()
	tp, err := topo.ByName(topoName)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	done := false
	m.OnDiscoveryComplete = func(core.Result) { done = true }
	m.StartDiscovery()
	e.Run()
	if !done {
		t.Fatal("discovery did not complete")
	}
	return m, f
}

// The derived route table covers every non-host device, and every event
// route matches what the manager itself would program.
func TestDeriveCoversFabric(t *testing.T) {
	m, _ := discover(t, "4x4 mesh")
	db := m.DB()
	tab := Derive(db)
	if tab.Host != db.HostDSN {
		t.Errorf("host = %v, want %v", tab.Host, db.HostDSN)
	}
	if want := db.NumNodes() - 1; len(tab.Routes) != want {
		t.Errorf("%d routes, want %d (unrouted %d)", len(tab.Routes), want, tab.Unrouted)
	}
	if tab.Unrouted != 0 || tab.Unencodable != 0 {
		t.Errorf("unrouted=%d unencodable=%d on a healthy fabric", tab.Unrouted, tab.Unencodable)
	}
	for _, r := range tab.Routes {
		dsn := r.DSN
		// The recomputed path must encode and must match the node's
		// event route when re-derived through the manager's code path.
		if _, _, err := route.Encode(r.PathOf()); err != nil {
			t.Fatalf("route to %v does not encode: %v", dsn, err)
		}
		ev, ok := tab.EventRoute(dsn)
		if !ok {
			t.Fatalf("no event route for %v", dsn)
		}
		n := db.Node(dsn)
		wantPool, wantPtr, err := core.EventRouteFor(&core.Node{
			DSN: n.DSN, Type: n.Type, Ports: n.Ports,
			Path: r.PathOf(), ArrivalPort: r.ArrivalPort,
		})
		if err != nil {
			t.Fatalf("manager refuses event route for %v: %v", dsn, err)
		}
		if ev.Pool != wantPool || ev.Ptr != wantPtr {
			t.Errorf("%v: event route (%#x,%d), manager derives (%#x,%d)",
				dsn, ev.Pool, ev.Ptr, wantPool, wantPtr)
		}
	}
}

// A device present in the database but cut off from the recorded links
// counts as unrouted instead of failing the derivation.
func TestDeriveUnroutedDevice(t *testing.T) {
	m, _ := discover(t, "3x3 mesh")
	db := m.DB().Clone()
	// Orphan one endpoint by deleting its only link.
	var orphan asi.DSN
	for _, n := range db.Nodes() {
		if n.Type == asi.DeviceEndpoint && n.DSN != db.HostDSN {
			orphan = n.DSN
			break
		}
	}
	if l, ok := db.LinkAt(orphan, 0); ok {
		db.RemoveLink(l)
	} else {
		t.Fatalf("endpoint %v has no recorded link", orphan)
	}
	tab := Derive(db)
	if tab.Unrouted != 1 {
		t.Errorf("unrouted = %d, want 1", tab.Unrouted)
	}
	if _, ok := tab.Route(orphan); ok {
		t.Errorf("orphaned %v still has a route", orphan)
	}
}

// Derivation is a pure function: the same database yields identical
// tables, and deriving never mutates the input.
func TestDeriveDeterministic(t *testing.T) {
	m, _ := discover(t, "4-port 2-tree")
	db := m.DB()
	before := db.Fingerprint()
	a, b := Derive(db), Derive(db)
	if db.Fingerprint() != before {
		t.Fatal("Derive mutated the database")
	}
	if len(a.Routes) != len(b.Routes) || len(a.EventRoutes) != len(b.EventRoutes) {
		t.Fatalf("table sizes differ: %d/%d vs %d/%d",
			len(a.Routes), len(a.EventRoutes), len(b.Routes), len(b.EventRoutes))
	}
	for i, ra := range a.Routes {
		rb := b.Routes[i]
		if ra.DSN != rb.DSN || ra.ArrivalPort != rb.ArrivalPort || len(ra.Hops) != len(rb.Hops) {
			t.Errorf("route %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestUpdateMatchesDerive walks a discovered fabric through a seeded run
// of link cuts, device removals and re-additions, each on a clone of the
// one before and every tenth removing the highest DSN, and requires Update from the previous table to equal Derive
// from scratch, with changed exactly the devices whose route or event
// route appeared, moved or went away, ascending.
func TestUpdateMatchesDerive(t *testing.T) {
	m, _ := discover(t, "4x4 torus")
	rng := sim.NewRNG(7)
	db := m.DB().Clone()
	all := db.Nodes()
	prev := Derive(db)
	var tree core.PathTree
	for step := 0; step < 60; step++ {
		db = db.Clone()
		n, k := all[rng.Intn(len(all))], rng.Intn(3)
		if step%10 == 9 { // the highest DSN goes, so the merge ends on prev's entries
			n, k = all[len(all)-1], 1
		}
		switch {
		case n.DSN == db.HostDSN:
		case k == 0 && db.Node(n.DSN) != nil && len(db.NeighborsOf(n.DSN)) > 0:
			nb := db.NeighborsOf(n.DSN)[rng.Intn(len(db.NeighborsOf(n.DSN)))]
			db.RemoveLink(core.Link{A: n.DSN, APort: int(nb.LocalPort), B: nb.DSN, BPort: int(nb.RemotePort)})
		case k == 1:
			db.RemoveNode(n.DSN)
		default:
			db.AddNode(n)
			for _, l := range m.DB().Links() {
				if (l.A == n.DSN || l.B == n.DSN) && db.Node(l.A) != nil && db.Node(l.B) != nil {
					db.AddLink(l)
				}
			}
		}
		got, changed := Update(prev, db, &tree)
		want := Derive(db)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Update differs from Derive", step)
		}
		var wantChanged []asi.DSN
		for _, d := range all {
			a, had := prev.Route(d.DSN)
			b, has := want.Route(d.DSN)
			if had != has || had && !reflect.DeepEqual(a, b) {
				wantChanged = append(wantChanged, d.DSN)
			}
		}
		if !slices.Equal(changed, wantChanged) {
			t.Fatalf("step %d: changed = %v, want %v", step, changed, wantChanged)
		}
		prev = got
	}
}
