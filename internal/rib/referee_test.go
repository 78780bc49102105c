package rib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/asi"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fib"
)

// refSnapshot is the from-scratch build every Install ran before
// generations were built from their predecessor: derive the whole FIB,
// format and encode every leaf, share bytes with prev where equal. It is
// the referee the change-driven Snapshot.next is compared against.
func refSnapshot(prev *Snapshot, db *core.DB, gen uint64) *Snapshot {
	t := fib.Derive(db)
	s := &Snapshot{
		Gen:         gen,
		Fingerprint: db.Fingerprint(),
		DB:          db,
		FIB:         t,
		leaves:      make(map[string]json.RawMessage, len(prev.leaves)),
	}
	put := func(path string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("rib: leaf %s does not marshal: %v", path, err))
		}
		if old, ok := prev.leaves[path]; ok && bytes.Equal(old, b) {
			b = old
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
	for _, dsn := range t.DSNs() {
		put(fmt.Sprintf("%s%d", PathRoutes, dsn), t.Routes[dsn])
		if ev, ok := t.EventRoutes[dsn]; ok {
			put(fmt.Sprintf("%s%d", PathEventRoutes, dsn), ev)
		}
	}
	return s
}

// refDelta is the whole-map comparison that used to produce a delta:
// every leaf of both generations visited, sets before deletes, each by
// path.
func refDelta(prev, s *Snapshot) []Update {
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

// referee installs every database into a RIB and into a chain of
// from-scratch reference snapshots, and compares the two generation by
// generation.
type referee struct {
	rib *RIB
	ref *Snapshot
}

func newReferee(r *RIB) *referee { return &referee{rib: r, ref: emptySnapshot()} }

// install publishes db and returns an error naming the first way the
// incremental generation differs from the from-scratch one.
func (f *referee) install(db *core.DB) error {
	gen, _ := f.rib.Install(db)
	got := f.rib.Current()
	prev := f.ref
	f.ref = refSnapshot(prev, db.Clone(), prev.Gen+1)
	want := f.ref
	switch {
	case got.Gen != gen || got.Gen != want.Gen:
		return fmt.Errorf("generation %d (Install returned %d), reference at %d", got.Gen, gen, want.Gen)
	case got.Fingerprint != want.Fingerprint:
		return fmt.Errorf("gen %d: fingerprint %#x, from scratch %#x", gen, got.Fingerprint, want.Fingerprint)
	case !bytes.Equal(got.Canonical("/"), want.Canonical("/")):
		return fmt.Errorf("gen %d: canonical state differs:\n%s\nfrom scratch:\n%s", gen, got.Canonical("/"), want.Canonical("/"))
	case !reflect.DeepEqual(got.FIB, want.FIB):
		return fmt.Errorf("gen %d: FIB differs: %d routes, %d event routes, %d unrouted, %d unencodable; from scratch %d, %d, %d, %d",
			gen, len(got.FIB.Routes), len(got.FIB.EventRoutes), got.FIB.Unrouted, got.FIB.Unencodable,
			len(want.FIB.Routes), len(want.FIB.EventRoutes), want.FIB.Unrouted, want.FIB.Unencodable)
	}
	if wantDelta := refDelta(prev, want); len(got.pub.delta)+len(wantDelta) > 0 && !reflect.DeepEqual(got.pub.delta, wantDelta) {
		return fmt.Errorf("gen %d: delta differs:\n%v\nfrom scratch:\n%v", gen, updatePaths(got.pub.delta), updatePaths(wantDelta))
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
// snapshot built from scratch — canonical bytes, fingerprint, FIB and the
// delta's update list.
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
				if ref.ref.Gen == 0 {
					t.Error("scenario installed nothing")
				}
				t.Logf("%d generations compared", ref.ref.Gen)
			})
		}
	}
}
