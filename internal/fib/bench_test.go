package fib

import "testing"

var sinkTable *Table

// BenchmarkDerive is one FIB derivation, paid by every rib.Install: a
// route and an event route for every discovered device. Part of the
// FM-database ledger in BENCH_fm.json (see internal/core/db_bench_test.go).
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
	}
}
