package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asi"
	"repro/internal/topo"
)

func TestDiffDBsBasics(t *testing.T) {
	old := buildTestDB()
	new := buildTestDB()
	d := DiffDBs(old, new)
	if !d.Empty() || d.String() != "no change" {
		t.Errorf("identical DBs diff: %v", d)
	}
	new.RemoveNode(11) // drops switch B and its 3 links
	d = DiffDBs(old, new)
	if len(d.RemovedDevices) != 1 || d.RemovedDevices[0] != 11 {
		t.Errorf("removed devices: %v", d.RemovedDevices)
	}
	if len(d.RemovedLinks) != 3 {
		t.Errorf("removed links: %v", d.RemovedLinks)
	}
	if len(d.AddedDevices) != 0 || len(d.AddedLinks) != 0 {
		t.Errorf("spurious additions: %v", d)
	}
	if !strings.Contains(d.String(), "-1 devices") || !strings.Contains(d.String(), "-3 links") {
		t.Errorf("summary: %q", d.String())
	}
	// Reverse direction.
	d = DiffDBs(new, old)
	if len(d.AddedDevices) != 1 || len(d.AddedLinks) != 3 {
		t.Errorf("reverse diff: %v", d)
	}
}

func TestDiffDBsNilSafe(t *testing.T) {
	db := buildTestDB()
	d := DiffDBs(nil, db)
	if len(d.AddedDevices) != 4 || len(d.AddedLinks) != 4 {
		t.Errorf("nil-old diff: %v", d)
	}
	d = DiffDBs(db, nil)
	if len(d.RemovedDevices) != 4 || len(d.RemovedLinks) != 4 {
		t.Errorf("nil-new diff: %v", d)
	}
	if !DiffDBs(nil, nil).Empty() {
		t.Error("nil-nil diff not empty")
	}
}

// The database after a change-triggered rediscovery differs from a
// clone taken before the change by exactly the devices and links the
// change stranded or restored.
func TestAssimilationReportsExactChange(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e, f, m := setup(t, tp, Parallel)
	runDiscovery(t, e, m)
	m.DistributeEventRoutes(nil)
	e.Run()

	before := m.DB().Clone()
	if err := f.SetDeviceDown(8, false); err != nil { // corner sw(2,2)
		t.Fatal(err)
	}
	e.Run()
	d := DiffDBs(before, m.DB())
	// Corner removal strands the switch and its endpoint; 3 links die
	// (2 mesh links + host link).
	if len(d.RemovedDevices) != 2 {
		t.Errorf("removed devices: %v", d.RemovedDevices)
	}
	if len(d.RemovedLinks) != 3 {
		t.Errorf("removed links: %v", d.RemovedLinks)
	}
	if len(d.AddedDevices) != 0 || len(d.AddedLinks) != 0 {
		t.Errorf("spurious additions: %+v", d)
	}
	if !slices.Contains(d.RemovedDevices, f.Device(8).DSN) {
		t.Error("removed switch not named in the diff")
	}

	// Restore: the next diff shows exactly the additions.
	before = m.DB().Clone()
	if err := f.SetDeviceUp(8, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	d = DiffDBs(before, m.DB())
	if len(d.AddedDevices) != 2 || len(d.AddedLinks) != 3 {
		t.Errorf("addition diff: %+v", d)
	}
	if len(d.RemovedDevices) != 0 || len(d.RemovedLinks) != 0 {
		t.Errorf("spurious removals: %+v", d)
	}
}

// DiffDBs must report exactly what the link-map body (refDiffDBs)
// reported, in the same order, over random database pairs: independent
// ones, a clone mutated a little (the shape Install sees), either side
// nil, and links between two ports of one device.
func TestDiffDBsMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomDB := func() *dbPair {
		if rng.Intn(8) == 0 {
			return nil
		}
		p := dbPair{db: NewDB(1), ref: newRefDB(1)}
		for i, n := 0, rng.Intn(14); i < n; i++ {
			p.addNode(asi.DSN(1+rng.Intn(16)), asi.DeviceSwitch)
		}
		for i, n := 0, rng.Intn(24); i < n; i++ {
			a := asi.DSN(1 + rng.Intn(16))
			b := asi.DSN(1 + rng.Intn(16))
			if rng.Intn(6) == 0 {
				b = a // a cable between two ports of one device
			}
			p.addLink(Link{A: a, APort: rng.Intn(4), B: b, BPort: rng.Intn(4)})
		}
		return &p
	}
	mutate := func(p *dbPair) *dbPair {
		if p == nil {
			return nil
		}
		out := p.clone()
		for i, n := 0, rng.Intn(4); i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				out.addNode(asi.DSN(1+rng.Intn(20)), asi.DeviceEndpoint)
			case 1:
				out.removeNode(asi.DSN(1 + rng.Intn(16)))
			case 2:
				out.addLink(Link{A: asi.DSN(1 + rng.Intn(16)), APort: rng.Intn(4), B: asi.DSN(1 + rng.Intn(16)), BPort: rng.Intn(4)})
			case 3:
				if links := out.ref.linkList(); len(links) > 0 {
					out.removeLink(links[rng.Intn(len(links))])
				}
			}
		}
		return &out
	}
	sides := func(p *dbPair) (*DB, refDB) {
		if p == nil {
			return nil, newRefDB(1)
		}
		return p.db, p.ref
	}
	for i := 0; i < 2000; i++ {
		old := randomDB()
		new := randomDB()
		if i%2 == 0 {
			new = mutate(old)
		}
		oldDB, oldRef := sides(old)
		newDB, newRef := sides(new)
		if got, want := DiffDBs(oldDB, newDB), refDiffDBs(oldRef, newRef); !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d (%v -> %v):\n got %+v\nwant %+v", i, oldRef, newRef, got, want)
		}
	}
}
