package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/topo"
)

// TestPI4RoundTripZeroAlloc pins the per-request garbage at zero. Once a
// discovery has warmed the pools, a PI-4 round trip — the FM draws a
// request and its packet from the free list, the packet crosses three
// switches, the device turns it into the completion in place, the FM
// consumes it and releases both — allocates nothing, for a port read and
// for a general-information probe alike.
func TestPI4RoundTripZeroAlloc(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), Parallel)
	runDiscovery(t, e, m)
	var far *Node
	for _, n := range m.DB().Nodes() {
		if far == nil || len(n.Path) > len(far.Path) {
			far = n
		}
	}
	if len(far.Path) < 3 {
		t.Fatalf("farthest device is %d hops away, want >= 3", len(far.Path))
	}
	// The link the route to far crosses last, seen from its near end.
	last, ok := m.DB().LinkAt(far.DSN, far.ArrivalPort)
	if !ok {
		t.Fatal("no link recorded on the farthest device's arrival port")
	}
	if last.A == far.DSN && last.APort == far.ArrivalPort {
		last = Link{A: last.B, APort: last.BPort, B: last.A, BPort: last.APort}
	}
	roundTrips := func() {
		if !m.readPort(far, 0) {
			t.Fatal("port read not sent")
		}
		// Re-probing that link returns far's general information, which
		// the database already holds.
		if !m.probe(probeThrough(m.db.Node(last.A), last.APort)) {
			t.Fatal("probe not sent")
		}
		e.Run()
	}
	for i := 0; i < 8; i++ {
		roundTrips()
	}
	received := m.res.PacketsReceived
	allocs := testing.AllocsPerRun(100, roundTrips)
	if allocs != 0 {
		t.Errorf("a warm PI-4 round trip allocates %.1f per run, want 0", allocs)
	}
	if got := m.res.PacketsReceived - received; got != 2*101 {
		t.Errorf("FM consumed %d completions over 101 measured runs, want %d", got, 2*101)
	}
	if len(m.pending) != 0 || m.freeReqs == nil {
		t.Errorf("round trips left %d requests pending, free list empty: %v", len(m.pending), m.freeReqs == nil)
	}
}

// TestRecordSizes pins the widths of the records discovery builds. The
// request stays at most 128 bytes: the Parallel algorithm parks about
// 18 000 of them in the FM's queue at once on a dragonfly 16x64 (184 bytes
// each with int-wide fields and the whole payload kept for
// retransmission), and a lazy probe's extra hop fits in its padding.
// Every full rediscovery builds one Node per device, two Neighbors per
// link and a path of Hops per device, which is most of what the daemon's
// default mode allocates per change. The Nodes live in pages of eight
// with their adjacency headers and three words of bits, and a write after
// a Clone copies one page.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
		exact    bool
	}{
		{"request", unsafe.Sizeof(request{}), 128, false},
		{"Node", unsafe.Sizeof(Node{}), 112, false},
		{"page", unsafe.Sizeof(page{}), 1112, false},
		{"Neighbor", unsafe.Sizeof(Neighbor{}), 16, true},
		{"route.Hop", unsafe.Sizeof(route.Hop{}), 4, true},
	} {
		if c.got > c.max || c.exact && c.got != c.max {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.max)
		}
	}
}

// TestRefreshPathsAllocBudget pins the repair pass of partial
// assimilation on a database that did not change: its search tree, route
// buffer and DSN visit list are the Manager's, reused, so a refresh that
// reroutes nothing allocates nothing. So does a DB-staleness reading,
// whose age list is the Manager's too.
func TestRefreshPathsAllocBudget(t *testing.T) {
	tp, err := topo.ByName("8x8 torus")
	if err != nil {
		t.Fatal(err)
	}
	e, _, m := setup(t, tp, Partial)
	runDiscovery(t, e, m)
	// Discovery leaves first-arrival routes; the first pass makes them
	// shortest ones and warms the tree.
	m.beginPartialRun()
	m.refreshPaths()
	e.Run()
	sent := m.res.PacketsSent
	if allocs := testing.AllocsPerRun(20, m.refreshPaths); allocs > 0 {
		t.Errorf("a refresh of an unchanged %d-device database allocates %.1f per run, want 0", m.db.NumNodes(), allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.DBStaleness() }); allocs > 0 {
		t.Errorf("a DB-staleness reading allocates %.1f per run, want 0", allocs)
	}
	if m.res.PacketsSent != sent {
		t.Errorf("refreshing an unchanged database sent %d verification reads, want 0", m.res.PacketsSent-sent)
	}
}

// TestCloneAllocBudget pins what freezing a generation costs: Clone
// allocates the same on the 8x8 torus and on dragonfly 16x64, and the
// first write after it copies the directory (its header and its page
// list), the one page holding the device it touches and that device's
// port flags and adjacency — five allocations on either fabric, about
// one page's bytes — and a
// write to a second device of that page copies only the second device's
// flags and adjacency.
func TestCloneAllocBudget(t *testing.T) {
	var clones, writes []float64
	for _, name := range []string{"8x8 torus", "dragonfly 16x64"} {
		tp, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, _, m := setup(t, tp, Parallel)
		runDiscovery(t, e, m)
		db := m.DB()
		var frozen *DB
		clone := testing.AllocsPerRun(20, func() { frozen = db.Clone() })
		// The host's switch, a node with flags and an adjacency, and
		// another switch in its page.
		dsn := db.NeighborsOf(db.HostDSN)[0].DSN
		pg, i := db.find(dsn)
		other := asi.DSN(0)
		for j := range pg.nodes {
			if j != i && pg.has(j) && pg.nodes[j].Type == asi.DeviceSwitch && pg.adj[j] != nil {
				other = pg.nodes[j].DSN
				break
			}
		}
		if other == 0 {
			t.Fatalf("%s: no second switch in the page of %v", name, dsn)
		}
		write := testing.AllocsPerRun(20, func() {
			frozen = db.Clone()
			db.writable(dsn).Validated++
		})
		second := testing.AllocsPerRun(20, func() {
			frozen = db.Clone()
			db.writable(dsn).Validated++
			db.writable(other).Validated++
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frozen = db.Clone()
		db.writable(dsn).Validated++
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Clone %.0f allocs; a write after it %.0f (%d B), a second write in its page %.0f more",
			name, clone, write, bytes, second-write)
		clones, writes = append(clones, clone), append(writes, write)
		if extra := write - clone; extra != 5 {
			t.Errorf("%s: a write after Clone allocates %.0f beyond the clone, want 5: directory and its page list, page, flags, adjacency", name, extra)
		}
		if extra := second - write; extra != 2 {
			t.Errorf("%s: a second write in the same page allocates %.0f more, want 2: flags, adjacency", name, extra)
		}
		if page := uint64(unsafe.Sizeof(page{})); bytes > page+page/4+uint64(len(db.dir.pages))*8+1024 {
			t.Errorf("%s: a write after Clone allocates %d B, want about one %d-byte page", name, bytes, page)
		}
		if frozen.Node(dsn) == db.Node(dsn) || frozen.Node(dsn).Validated == db.Node(dsn).Validated {
			t.Errorf("%s: the write after Clone reached the frozen copy", name)
		}
	}
	if clones[0] != clones[1] || writes[0] != writes[1] {
		t.Errorf("Clone and a write after it allocate %.0f and %.0f on the 8x8 torus, %.0f and %.0f on dragonfly 16x64, want the same",
			clones[0], writes[0], clones[1], writes[1])
	}
}
