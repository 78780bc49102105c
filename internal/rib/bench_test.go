package rib

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The serving ledger: what publishing one generation costs the installer
// and what fanning it out costs per subscriber. `make bench` writes these
// to BENCH_serve.json; `make bench-diff` gates their allocs/op and B/op.
// They use the package's exported surface only.

// discoveredDB runs one Parallel discovery of the named fabric and
// returns the manager's database.
func discoveredDB(tb testing.TB, name string) *core.DB {
	tb.Helper()
	tp, err := topo.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	m := core.NewManager(f, f.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	m.StartDiscovery()
	e.Run()
	if got := m.DB().NumNodes(); got != len(tp.Nodes) {
		tb.Fatalf("%s: discovered %d of %d devices", name, got, len(tp.Nodes))
	}
	return m.DB()
}

// without returns a copy of db as a rediscovery would rebuild it with the
// given switches down (their links gone, whatever they cut off gone too)
// and the given links unplugged.
func without(db *core.DB, switches []asi.DSN, links []core.Link) *core.DB {
	out := db.Clone()
	for _, dsn := range switches {
		out.RemoveNode(dsn)
	}
	for _, l := range links {
		out.RemoveLink(l)
	}
	tree := out.TreeFrom(out.HostDSN)
	for _, n := range out.Nodes() {
		if p, _ := tree.PathTo(n.DSN); p == nil {
			out.RemoveNode(n.DSN)
		}
	}
	return out
}

// changes returns the two change shapes of the ledger for a database: one
// inter-switch link unplugged (the first of the highest-numbered switch,
// away from the host), and eight switches down at once (the host's own
// switch spared).
func changes(db *core.DB) map[string]*core.DB {
	hostSwitch := db.NeighborsOf(db.HostDSN)[0].DSN
	var switches []asi.DSN
	var flap []core.Link
	for _, n := range db.Nodes() {
		if n.Type != asi.DeviceSwitch || n.DSN == hostSwitch {
			continue
		}
		if n.DSN%5 == 0 && len(switches) < 8 {
			switches = append(switches, n.DSN)
		}
		for _, nb := range db.NeighborsOf(n.DSN) {
			if db.Node(nb.DSN).Type == asi.DeviceSwitch {
				flap = []core.Link{{A: n.DSN, APort: int(nb.LocalPort), B: nb.DSN, BPort: int(nb.RemotePort)}}
				break
			}
		}
	}
	return map[string]*core.DB{
		"1-link flap":    without(db, nil, flap),
		"8-switch storm": without(db, switches, nil),
	}
}

// BenchmarkInstall is one generation published with a single subscriber
// on "/" attached (it reports updates/install): the database alternates
// between the whole fabric and the fabric minus the change, as successive
// rediscoveries of a flapping fabric would install it.
func BenchmarkInstall(b *testing.B) {
	for _, name := range []string{"8x8 torus", "dragonfly 16x64"} {
		full := discoveredDB(b, name)
		changed := changes(full)
		for _, change := range []string{"1-link flap", "8-switch storm"} {
			b.Run(name+"/"+change, func(b *testing.B) {
				dbs := [2]*core.DB{changed[change], full}
				r := New(Config{})
				r.Install(full)
				sub := r.Subscribe("/")
				defer sub.Close()
				<-sub.Updates()
				updates := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Install(dbs[i%2])
					updates += len((<-sub.Updates()).Updates)
				}
				b.ReportMetric(float64(updates)/float64(b.N), "updates/install")
			})
		}
	}
}

// BenchmarkReplayerApply is what a subscriber pays to fold one batch of
// the 8x8 torus into its reconstructed state: a delta of eight switches
// going down or coming back (the two alternate, so every op applies one
// delta to the state it was cut from), and a full sync.
func BenchmarkReplayerApply(b *testing.B) {
	full := discoveredDB(b, "8x8 torus")
	r := New(Config{})
	r.Install(full)
	sub := r.Subscribe("/")
	defer sub.Close()
	sync := <-sub.Updates()
	r.Install(changes(full)["8-switch storm"])
	down := <-sub.Updates()
	r.Install(full)
	up := <-sub.Updates()
	b.Run(fmt.Sprintf("delta/%d updates", len(down.Updates)), func(b *testing.B) {
		rep := NewReplayer()
		if err := rep.Apply(sync); err != nil {
			b.Fatal(err)
		}
		deltas := [2]Batch{down, up}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := deltas[i%2]
			d.Gen = sync.Gen + uint64(i) + 1
			if err := rep.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("sync/%d leaves", len(sync.Updates)), func(b *testing.B) {
		rep := NewReplayer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rep.Apply(sync); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fanout is a RIB of a 4x4 mesh with n subscribers whose readers count
// what they receive; prefixes are cycled over the subscribers.
type fanout struct {
	rib  *RIB
	dbs  [2]*core.DB
	subs []*Subscription
	// got is signalled once per batch consumed by any reader.
	got     sync.WaitGroup
	updates atomic.Int64
	n       int
}

func newFanout(tb testing.TB, n int, prefixes []string) *fanout {
	full := discoveredDB(tb, "4x4 mesh")
	f := &fanout{rib: New(Config{}), dbs: [2]*core.DB{changes(full)["8-switch storm"], full}}
	f.rib.Install(full)
	f.got.Add(n)
	for i := 0; i < n; i++ {
		sub := f.rib.Subscribe(prefixes[i%len(prefixes)])
		f.subs = append(f.subs, sub)
		go func() {
			for b := range sub.Updates() {
				f.updates.Add(int64(len(b.Updates)))
				f.got.Done()
			}
		}()
	}
	f.got.Wait() // every reader holds its sync
	return f
}

// round installs one generation and waits until every reader has it.
func (f *fanout) round() {
	f.got.Add(len(f.subs))
	f.rib.Install(f.dbs[f.n%2])
	f.n++
	f.got.Wait()
}

func (f *fanout) close() {
	for _, s := range f.subs {
		s.Close()
	}
}

// fanoutPrefixes is the repo benchmark's fanout mix.
var fanoutPrefixes = []string{"/", "/topology/links", "/fib/routes"}

// distinctPrefixes returns n different subscription prefixes.
func distinctPrefixes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", PathRoutes, i)
	}
	return out
}

// BenchmarkFanout is one generation installed and consumed by 384
// in-process subscribers: on three prefixes (the repo benchmark's fanout
// mix) the filtering is shared 128 ways, on 384 distinct prefixes not at
// all.
func BenchmarkFanout(b *testing.B) {
	const subs = 384
	for _, tc := range []struct {
		name     string
		prefixes []string
	}{
		{"prefixes=3", fanoutPrefixes},
		{"prefixes=384", distinctPrefixes(subs)},
	} {
		b.Run(fmt.Sprintf("subs=%d/%s", subs, tc.name), func(b *testing.B) {
			f := newFanout(b, subs, tc.prefixes)
			defer f.close()
			for i := 0; i < 4; i++ {
				f.round() // queues, pump stacks and the runtime's caches reach their working size
			}
			f.updates.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.round()
			}
			b.ReportMetric(float64(f.updates.Load())/float64(b.N)/subs, "updates/delivery")
		})
	}
}

// Fanning one generation out costs the installer and the pumps O(1)
// allocations per subscriber, and on shared prefixes none: eight times
// the subscribers on the same three prefixes add well under one
// allocation each.
func TestFanoutAllocBudget(t *testing.T) {
	perRound := func(subs int) float64 {
		f := newFanout(t, subs, fanoutPrefixes)
		defer f.close()
		f.round() // queues and pump stacks reach their working size
		return testing.AllocsPerRun(20, f.round)
	}
	few, many := perRound(48), perRound(384)
	if perSub := (many - few) / (384 - 48); perSub > 0.25 {
		t.Errorf("one install costs %.0f allocations with 48 subscribers and %.0f with 384: %.2f per extra subscriber, want ≤ 0.25", few, many, perSub)
	}
}

// TestInstallAllocBudget pins what publishing one generation costs the
// installer on the daemon's default fabric, the 8x8 torus, with one link
// flapping and with eight switches going down at once, one subscriber on
// "/" reading every delta. The frozen database shares the caller's, the
// FIB update rebuilds the RIB's one tree and copies unchanged routes by
// value, only the leaves that changed are encoded, and the delta is
// allocated once at its size. Each budget is the measurement plus 10 %.
func TestInstallAllocBudget(t *testing.T) {
	full := discoveredDB(t, "8x8 torus")
	changed := changes(full)
	for _, tc := range []struct {
		change string
		budget uint64
	}{
		// Measured 13 280 B; 37 424 B with map-based FIB tables, an
		// appended-then-copied delta and reflective leaf encoding, and
		// 163 318 B while every install also deep-copied the database,
		// copied the leaf map and built a fresh tree.
		{"1-link flap", 14_600},
		// Measured 50 830 B; BenchmarkInstall read 103 688 B/op before
		// the same change.
		{"8-switch storm", 55_900},
	} {
		dbs := [2]*core.DB{changed[tc.change], full}
		r := New(Config{})
		r.Install(full)
		sub := r.Subscribe("/")
		const installs = 50
		perInstall := ^uint64(0)
		var before, after runtime.MemStats
		<-sub.Updates()
		for try := 0; try < 5; try++ { // minimum of five: other goroutines only add
			runtime.ReadMemStats(&before)
			for i := 0; i < installs; i++ {
				r.Install(dbs[i%2])
				<-sub.Updates()
			}
			runtime.ReadMemStats(&after)
			perInstall = min(perInstall, (after.TotalAlloc-before.TotalAlloc)/installs)
		}
		sub.Close()
		t.Logf("%s: one install allocates %d B", tc.change, perInstall)
		if perInstall > tc.budget {
			t.Errorf("%s: one install of the 8x8 torus allocates %d B, budget %d", tc.change, perInstall, tc.budget)
		}
	}
}
