package rib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/asi"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fib"
)

// refGen is one generation built from scratch, the way every Install
// built it before generations were built from their predecessor: derive
// the whole FIB, format and encode every leaf into one map. It is the
// referee the change-driven Snapshot.next and the on-demand leaf
// rendering are compared against.
type refGen struct {
	gen, fp uint64
	fib     *fib.Table
	leaves  map[string]json.RawMessage
}

func refSnapshot(db *core.DB, gen uint64) *refGen {
	t := fib.Derive(db)
	s := &refGen{gen: gen, fp: db.Fingerprint(), fib: t, leaves: map[string]json.RawMessage{}}
	put := func(path string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("rib: leaf %s does not marshal: %v", path, err))
		}
		s.leaves[path] = b
	}
	for _, n := range db.Nodes() {
		switch n.Type {
		case asi.DeviceSwitch:
			put(fmt.Sprintf("%s%d", PathSwitches, n.DSN), nodeLeaf{DSN: n.DSN, Type: "switch", Ports: n.Ports})
		default:
			put(fmt.Sprintf("%s%d", PathEndpoints, n.DSN), nodeLeaf{DSN: n.DSN, Type: "endpoint", Ports: n.Ports})
		}
	}
	for _, l := range db.Links() {
		put(PathLinks+fmt.Sprintf("%d:%d-%d:%d", l.A, l.APort, l.B, l.BPort), linkLeaf{A: l.A, APort: l.APort, B: l.B, BPort: l.BPort})
	}
	for _, r := range t.Routes {
		put(fmt.Sprintf("%s%d", PathRoutes, r.DSN), r)
		if ev, ok := t.EventRoute(r.DSN); ok {
			put(fmt.Sprintf("%s%d", PathEventRoutes, r.DSN), ev)
		}
	}
	return s
}

// refDelta is the whole-map comparison that used to produce a delta:
// every leaf of both generations visited, sets before deletes, each by
// path.
func refDelta(prev, s *refGen) []Update {
	var ups []Update
	for path, v := range s.leaves {
		if old, ok := prev.leaves[path]; !ok || !bytes.Equal(old, v) {
			ups = append(ups, Update{Op: OpSet, Path: path, Value: v})
		}
	}
	for path := range prev.leaves {
		if _, ok := s.leaves[path]; !ok {
			ups = append(ups, Update{Op: OpDelete, Path: path})
		}
	}
	sort.Slice(ups, func(i, j int) bool {
		if ups[i].Op != ups[j].Op {
			return ups[i].Op == OpSet
		}
		return ups[i].Path < ups[j].Path
	})
	return ups
}

// dbDigest hashes everything a database holds, bookkeeping included:
// every node's fields (path, port flags and Validated among them), its
// adjacency, and the link set.
func dbDigest(db *core.DB) uint64 {
	h := fnv.New64a()
	for _, n := range db.Nodes() {
		fmt.Fprintf(h, "%+v %v\n", *n, db.NeighborsOf(n.DSN))
	}
	fmt.Fprintln(h, db.Links())
	return h.Sum64()
}

// frozenGen is a served generation and the digest its database had when
// it was installed.
type frozenGen struct {
	snap   *Snapshot
	digest uint64
}

// referee installs every database into a RIB and into a chain of
// from-scratch reference generations, and compares the two generation by
// generation. It keeps every generation it served, to check later that
// none of their databases changed since.
type referee struct {
	rib    *RIB
	ref    *refGen
	served []frozenGen
}

func newReferee(r *RIB) *referee {
	return &referee{rib: r, ref: &refGen{fib: &fib.Table{}, leaves: map[string]json.RawMessage{}}}
}

// install publishes db and returns an error naming the first way the
// incremental generation differs from the from-scratch one.
func (f *referee) install(db *core.DB) error {
	gen, _ := f.rib.Install(db)
	got := f.rib.Current()
	f.served = append(f.served, frozenGen{got, dbDigest(got.DB)})
	prev := f.ref
	f.ref = refSnapshot(db, prev.gen+1)
	want := f.ref
	switch {
	case got.Gen != gen || got.Gen != want.gen:
		return fmt.Errorf("generation %d (Install returned %d), reference at %d", got.Gen, gen, want.gen)
	case got.Fingerprint != want.fp:
		return fmt.Errorf("gen %d: fingerprint %#x, from scratch %#x", gen, got.Fingerprint, want.fp)
	case got.NumLeaves() != len(want.leaves):
		return fmt.Errorf("gen %d: %d leaves, from scratch %d", gen, got.NumLeaves(), len(want.leaves))
	case !bytes.Equal(got.Canonical("/"), canonicalBytes(want.gen, want.leaves, "/")):
		return fmt.Errorf("gen %d: canonical state differs:\n%s\nfrom scratch:\n%s", gen, got.Canonical("/"), canonicalBytes(want.gen, want.leaves, "/"))
	case !reflect.DeepEqual(got.FIB, want.fib):
		return fmt.Errorf("gen %d: FIB differs: %d routes, %d event routes, %d unrouted, %d unencodable; from scratch %d, %d, %d, %d",
			gen, len(got.FIB.Routes), len(got.FIB.EventRoutes), got.FIB.Unrouted, got.FIB.Unencodable,
			len(want.fib.Routes), len(want.fib.EventRoutes), want.fib.Unrouted, want.fib.Unencodable)
	}
	if wantDelta := refDelta(prev, want); len(got.pub.delta)+len(wantDelta) > 0 && !reflect.DeepEqual(got.pub.delta, wantDelta) {
		return fmt.Errorf("gen %d: delta differs:\n%v\nfrom scratch:\n%v", gen, updatePaths(got.pub.delta), updatePaths(wantDelta))
	}
	return nil
}

// checkFrozen reports the first served generation whose database no longer
// digests as it did when it was installed.
func (f *referee) checkFrozen() error {
	for _, g := range f.served {
		if d := dbDigest(g.snap.DB); d != g.digest {
			return fmt.Errorf("gen %d: the served database changed after install (digest %#x, was %#x)", g.snap.Gen, d, g.digest)
		}
	}
	return nil
}

// updatePaths renders an update list compactly for failure messages.
func updatePaths(ups []Update) []string {
	out := make([]string, len(ups))
	for i, u := range ups {
		out[i] = u.Op + " " + u.Path + " " + string(u.Value)
	}
	return out
}

// TestCorpusIncrementalSnapshotEquivalence is the equivalence property
// over the committed corpus: at every generation of every scenario, under
// full rediscovery, per-event Partial and coalesced Partial assimilation,
// the snapshot built from its predecessor and the change set is the
// snapshot built from scratch — canonical bytes, leaf count, fingerprint,
// FIB and the delta's update list. At the scenario's end every generation
// served along the way must still hold the database it was installed
// with, however the manager went on writing its own.
func TestCorpusIncrementalSnapshotEquivalence(t *testing.T) {
	modes := []struct {
		name    string
		partial bool
		opt     chaos.Options
	}{
		{name: "full"},
		{name: "partial", partial: true},
		{name: "coalesced", partial: true, opt: chaos.Options{Coalesce: true}},
	}
	scenarios := chaos.CorpusScenarios()
	if len(scenarios) != 23 {
		t.Fatalf("corpus has %d scenarios, want 23", len(scenarios))
	}
	for _, sc := range scenarios {
		for _, mode := range modes {
			sc, mode := sc, mode
			t.Run(chaos.CorpusFilename(sc)+"/"+mode.name, func(t *testing.T) {
				if mode.partial {
					sc.Algorithm = core.Partial.Slug()
				}
				ref := newReferee(New(Config{}))
				opt := mode.opt
				opt.OnDiscovery = func(db *core.DB, _ core.Result) {
					if err := ref.install(db); err != nil {
						t.Error(err)
					}
				}
				if _, err := chaos.Execute(sc, opt); err != nil {
					t.Fatal(err)
				}
				if ref.ref.gen == 0 {
					t.Error("scenario installed nothing")
				}
				if err := ref.checkFrozen(); err != nil {
					t.Error(err)
				}
				t.Logf("%d generations compared", ref.ref.gen)
			})
		}
	}
}

// TestServedGenerationsRaceLiveWrites renders every generation's full
// state on pump goroutines — the sync body of a subscriber attached as the
// generation is installed — while, over the whole corpus, the per-event
// and coalesced Partial paths go on writing the manager's live database,
// which the generation shares. Run under -race. Each rendered state must
// also be the generation's from-scratch leaf set.
func TestServedGenerationsRaceLiveWrites(t *testing.T) {
	for _, sc := range chaos.CorpusScenarios() {
		sc.Algorithm = core.Partial.Slug()
		for _, coalesce := range []bool{false, true} {
			r := New(Config{})
			var wg sync.WaitGroup
			errs := make(chan error, 1)
			opt := chaos.Options{Coalesce: coalesce}
			opt.OnDiscovery = func(db *core.DB, _ core.Result) {
				gen, _ := r.Install(db)
				want := refSnapshot(db, gen)
				sub := r.Subscribe("/")
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer sub.Close()
					rep := NewReplayer()
					if err := rep.Apply(<-sub.Updates()); err != nil || rep.Gen() != gen ||
						!bytes.Equal(rep.Canonical("/"), canonicalBytes(gen, want.leaves, "/")) {
						select {
						case errs <- fmt.Errorf("%s coalesce=%v: the sync body of gen %d (got gen %d, %v) is not its from-scratch state", sc.Name, coalesce, gen, rep.Gen(), err):
						default:
						}
					}
				}()
			}
			if _, err := chaos.Execute(sc, opt); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			select {
			case err := <-errs:
				t.Error(err)
			default:
			}
			if r.Current().Gen < 2 {
				t.Errorf("%s coalesce=%v: %d generations, want a live database written after an install", sc.Name, coalesce, r.Current().Gen)
			}
		}
	}
}
