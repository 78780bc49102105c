package fib

import (
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/asi"
	"repro/internal/core"
)

// TestUpdateAllocBudget pins what one FIB update costs on the 8x8 torus.
// On an unchanged database every entry is prev's, copied by value, so the
// update allocates the table and its two route slices and nothing else.
// After one inter-switch link is unplugged it adds, per rerouted device,
// the one Hops slice of its new route (the event route is encoded without
// a copy of the reversed path), plus the growth of the changed list.
func TestUpdateAllocBudget(t *testing.T) {
	m, _ := discover(t, "8x8 torus")
	db := m.DB()
	prev := Derive(db)
	var tree core.PathTree
	Update(prev, db, &tree) // warm the tree
	if allocs := testing.AllocsPerRun(20, func() { Update(prev, db, &tree) }); allocs > 3 {
		t.Errorf("an update of an unchanged database allocates %.0f, want <= 3 (the table and its two slices)", allocs)
	}

	flapped := db.Clone()
	unplugged := false
	for _, n := range db.Nodes() {
		if n.Type != asi.DeviceSwitch || n.DSN == db.NeighborsOf(db.HostDSN)[0].DSN {
			continue
		}
		for _, nb := range db.NeighborsOf(n.DSN) {
			if db.Node(nb.DSN).Type == asi.DeviceSwitch && !unplugged {
				flapped.RemoveLink(core.Link{A: n.DSN, APort: int(nb.LocalPort), B: nb.DSN, BPort: int(nb.RemotePort)})
				unplugged = true
			}
		}
	}
	_, changed := Update(prev, flapped, &tree)
	if len(changed) == 0 {
		t.Fatal("unplugging a link rerouted nothing")
	}
	// The changed list grows by doubling: 1 + ⌈log2 n⌉ allocations.
	want := float64(3 + len(changed) + 1 + bits.Len(uint(len(changed)-1)))
	allocs := testing.AllocsPerRun(20, func() { Update(prev, flapped, &tree) })
	t.Logf("one link flap reroutes %d devices: %.0f allocations", len(changed), allocs)
	if allocs > want {
		t.Errorf("an update rerouting %d devices allocates %.0f, want <= %.0f", len(changed), allocs, want)
	}
}

// TestRecordSizes pins a served hop at route.Hop's 4 bytes: a FIB
// generation holds one per switch traversal of every device's route.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Hop{}); n != 4 {
		t.Errorf("sizeof(Hop) = %d, want 4", n)
	}
}
