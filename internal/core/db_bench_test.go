package core

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The FM-database ledger: what one question to the topology database
// costs on the host, on the daemon's default fabric and on the dragonfly
// stress case. `make bench` writes these (and fib's BenchmarkDerive) to
// BENCH_fm.json; `make bench-diff` gates them.
var ledgerTopos = []string{"8x8 torus", "dragonfly 16x64"}

// benchDiscovered runs one Partial-manager discovery of the named fabric.
func benchDiscovered(b *testing.B, name string) (*sim.Engine, *Manager) {
	b.Helper()
	tp, err := topo.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	e, _, m := setup(b, tp, Partial)
	if res := runDiscovery(b, e, m); res.Devices != len(tp.Nodes) {
		b.Fatalf("%s: discovered %d of %d devices", name, res.Devices, len(tp.Nodes))
	}
	return e, m
}

// Sinks keep the measured calls from being optimised away.
var (
	sinkLink  Link
	sinkPath  route.Path
	sinkDB    *DB
	sinkCount int
)

// forEachLedgerDB runs fn as one sub-benchmark per ledger fabric, over a
// discovered database the benchmark only reads. fn times b.N calls of the
// closure it is handed the nodes for.
func forEachLedgerDB(b *testing.B, fn func(db *DB, nodes []*Node)) {
	for _, name := range ledgerTopos {
		b.Run(name, func(b *testing.B) {
			_, m := benchDiscovered(b, name)
			nodes := m.DB().Nodes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(m.DB(), nodes)
			}
		})
	}
}

// BenchmarkDBLinkAt is the question the discovery drivers ask on every
// port-read completion; one op asks it of every port of every device (a
// single lookup is too short to time at the ledger's iteration counts).
func BenchmarkDBLinkAt(b *testing.B) {
	forEachLedgerDB(b, func(db *DB, nodes []*Node) {
		for _, n := range nodes {
			for port := 0; port < n.Ports; port++ {
				sinkLink, _ = db.LinkAt(n.DSN, port)
			}
		}
	})
}

// BenchmarkDBPathTo is one stand-alone route query (a search per call).
func BenchmarkDBPathTo(b *testing.B) {
	forEachLedgerDB(b, func(db *DB, nodes []*Node) {
		sinkPath, _ = db.PathTo(nodes[len(nodes)-1].DSN)
	})
}

// BenchmarkDBTree is what a per-device pass pays: one tree, then a route
// to every device.
func BenchmarkDBTree(b *testing.B) {
	forEachLedgerDB(b, func(db *DB, nodes []*Node) {
		tree := db.TreeFrom(db.HostDSN)
		for _, n := range nodes {
			sinkPath, _ = tree.PathTo(n.DSN)
		}
	})
}

// BenchmarkDBClone is the copy rib.Install takes of every generation.
func BenchmarkDBClone(b *testing.B) {
	forEachLedgerDB(b, func(db *DB, _ []*Node) {
		sinkDB = db.Clone()
	})
}

// linkNearHost returns the first switch-to-switch link of the switch the
// host hangs off: cutting it reroutes a large share of the fabric.
func linkNearHost(db *DB) Link {
	first, _ := db.LinkAt(db.HostDSN, 0)
	sw := first.A
	if sw == db.HostDSN {
		sw = first.B
	}
	for _, nb := range db.NeighborsOf(sw) {
		if db.Node(nb.DSN).Type == asi.DeviceSwitch {
			l, _ := db.LinkAt(sw, int(nb.LocalPort))
			return l
		}
	}
	panic("core: the host's switch has no switch neighbour")
}

// BenchmarkRefreshPaths times the repair pass of partial assimilation:
// one switch-to-switch link next to the FM leaves the database and every
// route is recomputed, the rerouted devices getting their verification
// reads. Draining those reads and restoring the link are untimed.
func BenchmarkRefreshPaths(b *testing.B) {
	for _, name := range ledgerTopos {
		b.Run(name, func(b *testing.B) {
			e, m := benchDiscovered(b, name)
			cut := linkNearHost(m.db)
			repair := func(mutate func(Link)) {
				m.beginPartialRun()
				mutate(cut)
				m.refreshPaths()
			}
			// One untimed cycle first: discovery leaves first-arrival
			// routes, every later pass leaves shortest ones.
			repair(m.db.RemoveLink)
			e.Run()
			repair(m.db.AddLink)
			e.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repair(m.db.RemoveLink)
				b.StopTimer()
				sinkCount += int(m.res.PacketsSent)
				e.Run()
				repair(m.db.AddLink)
				e.Run()
				b.StartTimer()
			}
			if sinkCount == 0 {
				b.Fatal("the cut link rerouted nothing")
			}
		})
	}
}
