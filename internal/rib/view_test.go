package rib

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// Five hundred subscribers on three prefixes share three full-state
// bodies and, per install, one filtered delta for each prefix that needs
// filtering: the work is per (generation, prefix), not per subscriber.
func TestViewsBuiltOncePerPrefix(t *testing.T) {
	const subscribers = 500
	prefixes := []string{"/", PathTopology, PathRoutes}
	r := New(Config{})
	r.Install(lineDB(8, 2))

	subs := make([]*Subscription, subscribers)
	reps := make([]*Replayer, subscribers)
	for i := range subs {
		subs[i] = r.Subscribe(prefixes[i%len(prefixes)])
		defer subs[i].Close()
		reps[i] = NewReplayer()
	}
	drain := func() {
		t.Helper()
		for i, sub := range subs {
			if err := reps[i].Apply(<-sub.Updates()); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
	if got := r.built.syncs.Load(); got != uint64(len(prefixes)) {
		t.Errorf("%d sync bodies built for %d subscribers on %d prefixes, want one per prefix", got, subscribers, len(prefixes))
	}

	for install := 1; install <= 3; install++ {
		r.Install(lineDB(8, install%2))
		drain()
		// "/" takes the generation's delta as it is; the other two filter.
		if got, want := r.built.filters.Load(), uint64(install*(len(prefixes)-1)); got != want {
			t.Errorf("after %d installs: %d filtered deltas built, want %d", install, got, want)
		}
	}
	if got := r.built.syncs.Load(); got != uint64(len(prefixes)) {
		t.Errorf("%d sync bodies after the deltas, want still %d", got, len(prefixes))
	}
	cur := r.Current()
	for i, rep := range reps {
		prefix := prefixes[i%len(prefixes)]
		if !bytes.Equal(rep.Canonical(prefix), cur.Canonical(prefix)) {
			t.Fatalf("subscriber %d (%s) diverged from the live snapshot", i, prefix)
		}
	}
}

// Subscribe must neither stall nor race the installer: clients attach
// while generations are published, and each sees the full state of the
// generation it registered at followed by every later delta, gap-free
// (run under -race -count=10).
func TestSubscribeConcurrentWithInstall(t *testing.T) {
	const (
		installs = 60
		clients  = 8
		rounds   = 6
	)
	prefixes := []string{"/", PathTopology, PathLinks, PathFIB}
	r := New(Config{QueueDepth: installs + 1})
	r.Install(lineDB(10, 0))
	final := uint64(1 + installs)

	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				prefix := prefixes[(c+round)%len(prefixes)]
				if err := followTo(r, prefix, final, round == rounds-1); err != nil {
					errs <- fmt.Errorf("client %d round %d (%s): %w", c, round, prefix, err)
					return
				}
			}
		}(c)
	}
	for i := 1; i <= installs; i++ {
		r.Install(lineDB(10, i%4))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// followTo subscribes, checks that the stream is a sync followed by
// consecutive deltas, and — when toEnd is set — follows it to the final
// generation and compares the replayed state; otherwise it detaches
// after a few batches.
func followTo(r *RIB, prefix string, final uint64, toEnd bool) error {
	sub := r.Subscribe(prefix)
	defer sub.Close()
	rep := NewReplayer()
	for n := 0; toEnd || n < 4; n++ {
		b := <-sub.Updates()
		switch {
		case n == 0 && b.Type != SyncBatch:
			return fmt.Errorf("first batch is a %s", b.Type)
		case n > 0 && (b.Type != DeltaBatch || b.Gen != rep.Gen()+1):
			return fmt.Errorf("%s of generation %d follows generation %d", b.Type, b.Gen, rep.Gen())
		}
		if err := rep.Apply(b); err != nil {
			return err
		}
		if rep.Gen() == final {
			if !bytes.Equal(rep.Canonical(prefix), r.Current().Canonical(prefix)) {
				return fmt.Errorf("replayed state differs from the live snapshot at generation %d", final)
			}
			return nil
		}
	}
	return nil
}

// In steady state, queueing a generation and delivering its (already
// built) view allocates nothing: the queue is a ring that reuses its
// slots, and the entry is a pointer to the shared generation.
func TestOfferDeliverZeroAlloc(t *testing.T) {
	for _, prefix := range []string{"/", PathFIB} {
		r := New(Config{})
		sub := r.Subscribe(prefix)
		<-sub.Updates()
		const runs = 200
		gens := make([]*generation, runs+1) // AllocsPerRun warms up with one extra call
		for i := range gens {
			gens[i] = &generation{gen: uint64(i + 1), delta: []Update{{Op: OpDelete, Path: "/topology/links/x"}}}
			r.deltaView(gens[i], prefix) // as if another subscriber on the prefix got there first
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			sub.offer(gens[next])
			next++
			if b := <-sub.Updates(); b.Gen != uint64(next) {
				t.Fatalf("delivered generation %d, want %d", b.Gen, next)
			}
		})
		sub.Close()
		if allocs != 0 {
			t.Errorf("prefix %s: offer → deliver allocates %.1f times per batch, want 0", prefix, allocs)
		}
	}
}

// A client that keeps attaching under new prefixes while the fabric is
// quiet cannot grow the current generation's view cache without bound:
// past maxViews a view is built for its caller and forgotten.
func TestViewCacheIsBounded(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(3, 0))
	for i := 0; i < maxViews+50; i++ {
		prefix := fmt.Sprintf("%s%d", PathSwitches, i)
		sub := r.Subscribe(prefix)
		b := <-sub.Updates()
		sub.Close()
		if want := r.Current().syncBody(prefix); b.Type != SyncBatch || len(b.Updates) != len(want) {
			t.Fatalf("prefix %s: %s batch with %d updates, want a sync with %d", prefix, b.Type, len(b.Updates), len(want))
		}
	}
	cur := r.Current()
	cur.full.mu.Lock()
	defer cur.full.mu.Unlock()
	if len(cur.full.m) != maxViews {
		t.Errorf("generation %d memoizes %d views, want the bound, %d", cur.Gen, len(cur.full.m), maxViews)
	}
}
