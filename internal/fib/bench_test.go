package fib

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
)

var sinkTable *Table

// BenchmarkDerive is one FIB derivation, paid by every rib.Install: a
// route and an event route for every discovered device. Part of the
// FM-database ledger in BENCH_fm.json (see internal/core/db_bench_test.go).
// The "with previous" rows are what Install pays since it hands Update the
// previous generation's table and its own tree, here at its floor: nothing
// changed, every entry is copied by value from the previous table, the
// tree is rebuilt in place, and the table and its two DSN-sorted slices
// remain.
func BenchmarkDerive(b *testing.B) {
	for _, name := range []string{"8x8 torus", "dragonfly 16x64"} {
		b.Run(name, func(b *testing.B) {
			m, _ := discover(b, name)
			db := m.DB()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTable = Derive(db)
			}
			if sinkTable.Unrouted != 0 || len(sinkTable.Routes) != db.NumNodes()-1 {
				b.Fatalf("%d routes for %d devices, %d unrouted", len(sinkTable.Routes), db.NumNodes(), sinkTable.Unrouted)
			}
		})
		b.Run(name+" with previous", func(b *testing.B) {
			m, _ := discover(b, name)
			db := m.DB()
			prev := Derive(db)
			var tree core.PathTree
			var changed []asi.DSN
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTable, changed = Update(prev, db, &tree)
			}
			if len(changed) != 0 || len(sinkTable.Routes) != len(prev.Routes) {
				b.Fatalf("%d of %d routes changed on an unchanged database", len(changed), len(prev.Routes))
			}
		})
	}
}
