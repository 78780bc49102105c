package rib

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
)

// lineDB builds a synthetic discovery database: a chain of n switches
// (DSN 2..n+1, 4 ports) hanging off host endpoint DSN 1, with the last
// `tail` switches omitted — the shape of a fabric mid-churn.
func lineDB(n, tail int) *core.DB {
	db := core.NewDB(1)
	db.AddNode(&core.Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1})
	for i := 0; i < n-tail; i++ {
		dsn := asi.DSN(2 + i)
		db.AddNode(&core.Node{DSN: dsn, Type: asi.DeviceSwitch, Ports: 4})
		if i == 0 {
			db.AddLink(core.Link{A: 1, APort: 0, B: dsn, BPort: 0})
		} else {
			db.AddLink(core.Link{A: dsn - 1, APort: 1, B: dsn, BPort: 0})
		}
	}
	return db
}

func TestInstallAdvancesGenerations(t *testing.T) {
	r := New(Config{})
	if got := r.Current().Gen; got != 0 {
		t.Fatalf("fresh RIB at generation %d", got)
	}
	gen, d := r.Install(lineDB(3, 0))
	if gen != 1 {
		t.Errorf("first install produced generation %d", gen)
	}
	if len(d.AddedDevices) != 4 || len(d.AddedLinks) != 3 {
		t.Errorf("install diff %v, want +4 devices +3 links", d)
	}
	// Shrink the chain by one switch: one device and one link vanish.
	gen, d = r.Install(lineDB(3, 1))
	if gen != 2 {
		t.Errorf("second install produced generation %d", gen)
	}
	if len(d.RemovedDevices) != 1 || len(d.RemovedLinks) != 1 {
		t.Errorf("shrink diff %v, want -1 device -1 link", d)
	}
	if s := r.Stats(); s.Gen != 2 || s.Installs != 2 {
		t.Errorf("stats %+v", s)
	}
}

// The installed snapshot is isolated from the caller's database: mutating
// the source after Install must not change the served state.
func TestInstallSnapshotIsolation(t *testing.T) {
	r := New(Config{})
	db := lineDB(4, 0)
	r.Install(db)
	before := r.Current().Canonical("/")
	db.RemoveNode(3)
	db.AddNode(&core.Node{DSN: 99, Type: asi.DeviceSwitch, Ports: 8})
	if got := r.Current().Canonical("/"); !bytes.Equal(got, before) {
		t.Error("mutating the installed database changed the published snapshot")
	}
}

// Unchanged state is shared across generations: a generation installed
// from the same live database after a change copies only what the change
// touched. The database is paged, 64 devices a page: an untouched page's
// entries and an untouched route's hops are the previous generation's; in
// the touched page, an untouched device's adjacency is still shared; and
// the previous generation keeps what changed.
func TestSnapshotLeafSharing(t *testing.T) {
	r := New(Config{})
	db := lineDB(130, 0) // host 1, then switches 2-3-...-131: three pages
	r.Install(db)
	prev := r.Current()
	db.RemoveNode(131)
	r.Install(db)
	cur := r.Current()
	if prev.DB.Node(3) != cur.DB.Node(3) {
		t.Error("an untouched device's entry was copied")
	}
	a, _ := prev.FIB.Route(3)
	b, _ := cur.FIB.Route(3)
	if len(a.Hops) == 0 || &a.Hops[0] != &b.Hops[0] {
		t.Error("an unchanged route was re-derived instead of shared")
	}
	if prev.DB.Node(130) == cur.DB.Node(130) || len(prev.DB.NeighborsOf(130)) != 2 || len(cur.DB.NeighborsOf(130)) != 1 {
		t.Error("the device the change touched is not copied, or the copy leaked into the previous generation")
	}
	if was, now := prev.DB.NeighborsOf(129), cur.DB.NeighborsOf(129); len(now) != 2 || &was[0] != &now[0] {
		t.Error("an untouched device's adjacency was copied with its page")
	}
}

// A subscriber that consumes its stream sees initial sync then one delta
// per install, and its replayed state is byte-identical to the live
// snapshot at every generation boundary.
func TestSubscribeSyncThenDeltas(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(5, 2))
	sub := r.Subscribe("/")
	defer sub.Close()
	rep := NewReplayer()

	first := <-sub.Updates()
	if first.Type != SyncBatch || first.Gen != 1 {
		t.Fatalf("first batch %s gen %d, want sync gen 1", first.Type, first.Gen)
	}
	if err := rep.Apply(first); err != nil {
		t.Fatal(err)
	}
	for tail := 1; tail >= 0; tail-- {
		r.Install(lineDB(5, tail))
		b := <-sub.Updates()
		if b.Type != DeltaBatch {
			t.Fatalf("batch type %s, want delta", b.Type)
		}
		if err := rep.Apply(b); err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Canonical("/"), r.Current().Canonical("/"); !bytes.Equal(got, want) {
			t.Fatalf("replayed state diverged at generation %d:\n%s\nwant:\n%s", b.Gen, got, want)
		}
	}
	fp, err := rep.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Current().Fingerprint; fp != want {
		t.Errorf("replayed fingerprint %#x, live %#x", fp, want)
	}
}

// A /fib-prefixed subscriber sees only FIB leaves but still observes
// every generation, and reconstructs the filtered canonical form.
func TestSubscribePrefixFilter(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(4, 0))
	sub := r.Subscribe(PathFIB)
	defer sub.Close()
	rep := NewReplayer()
	if err := rep.Apply(<-sub.Updates()); err != nil {
		t.Fatal(err)
	}
	r.Install(lineDB(4, 2))
	if err := rep.Apply(<-sub.Updates()); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Canonical("/"), r.Current().Canonical(PathFIB); !bytes.Equal(got, want) {
		t.Errorf("filtered replay diverged:\n%s\nwant:\n%s", got, want)
	}
	if _, err := rep.Fingerprint(); err == nil {
		t.Error("fingerprint of a topology-less stream should fail")
	}
	// /fib must not leak /fibx-style siblings or topology leaves.
	for path := range rep.leaves {
		if !underPrefix(path, PathFIB) {
			t.Errorf("leaf %s leaked past prefix %s", path, PathFIB)
		}
	}
}

// A stalled subscriber's queue overflows: installs keep completing
// without blocking, and once the reader drains it receives a resync
// marker whose full state matches the live snapshot.
func TestStalledSubscriberResyncs(t *testing.T) {
	r := New(Config{QueueDepth: 2})
	r.Install(lineDB(6, 0))
	sub := r.Subscribe("/")
	defer sub.Close()

	// Do not read. The pump takes the sync batch and blocks delivering
	// it; every install after the queue fills must drop, not block.
	for i := 0; i < 20; i++ {
		r.Install(lineDB(6, i%5))
	}
	if got := r.Current().Gen; got != 21 {
		t.Fatalf("installer blocked by stalled reader: at generation %d, want 21", got)
	}

	rep := NewReplayer()
	sawResync := false
	for b := range sub.Updates() {
		if err := rep.Apply(b); err != nil {
			t.Fatal(err)
		}
		if b.Type == ResyncBatch {
			sawResync = true
		}
		if rep.Gen() == r.Current().Gen {
			break
		}
	}
	if !sawResync {
		t.Error("overflowed subscriber never saw a resync marker")
	}
	if got, want := rep.Canonical("/"), r.Current().Canonical("/"); !bytes.Equal(got, want) {
		t.Errorf("post-resync state diverged:\n%s\nwant:\n%s", got, want)
	}
	if s := r.Stats(); s.Resyncs == 0 {
		t.Error("stats recorded no resync")
	}
}

// The acceptance bar: >= 1000 concurrent subscribers served from COW
// snapshots while continuous installs churn the fabric, every one of
// them reconstructing the exact final state.
func TestThousandSubscribersUnderChurn(t *testing.T) {
	const (
		subscribers = 1000
		installs    = 40
		fabricSize  = 12
	)
	r := New(Config{QueueDepth: 8})
	r.Install(lineDB(fabricSize, 0))
	// Taken once, before the readers start: a database that is not
	// frozen orders its slots lazily on the first read, so a thousand
	// readers fingerprinting it at once would race on that write.
	wantFP := lineDB(fabricSize, 0).Fingerprint()
	finalGen := uint64(1 + installs)

	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		sub := r.Subscribe("/")
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			defer sub.Close()
			rep := NewReplayer()
			for b := range sub.Updates() {
				if err := rep.Apply(b); err != nil {
					errs <- fmt.Errorf("subscriber %d: %w", i, err)
					return
				}
				if rep.Gen() == finalGen {
					break
				}
			}
			if got, want := rep.Canonical("/"), r.Current().Canonical("/"); !bytes.Equal(got, want) {
				errs <- fmt.Errorf("subscriber %d: state diverged at generation %d", i, rep.Gen())
				return
			}
			fp, err := rep.Fingerprint()
			if err != nil {
				errs <- fmt.Errorf("subscriber %d: %w", i, err)
				return
			}
			if fp != wantFP {
				errs <- fmt.Errorf("subscriber %d: fingerprint %#x, want %#x", i, fp, wantFP)
			}
		}(i, sub)
	}

	// Continuous churn: vary the tail every install, ending on the full
	// fabric so the expected final state is known.
	for i := 1; i <= installs; i++ {
		tail := i % 4
		if i == installs {
			tail = 0
		}
		r.Install(lineDB(fabricSize, tail))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := r.Stats(); s.Gen != finalGen {
		t.Errorf("final generation %d, want %d", s.Gen, finalGen)
	}
}

// Replayer rejects malformed streams instead of silently diverging.
func TestReplayerRejects(t *testing.T) {
	rep := NewReplayer()
	if err := rep.Apply(Batch{Gen: 1, Type: DeltaBatch}); err == nil {
		t.Error("delta before sync accepted")
	}
	if err := rep.Apply(Batch{Gen: 1, Type: SyncBatch}); err != nil {
		t.Fatal(err)
	}
	if err := rep.Apply(Batch{Gen: 1, Type: DeltaBatch}); err == nil {
		t.Error("non-advancing generation accepted")
	}
	if err := rep.Apply(Batch{Gen: 2, Type: "weird"}); err == nil {
		t.Error("unknown batch type accepted")
	}
	if err := rep.Apply(Batch{Gen: 2, Type: DeltaBatch,
		Updates: []Update{{Op: OpDelete, Path: "/topology/switches/9"}}}); err == nil {
		t.Error("delete of unknown leaf accepted")
	}
}
