package rib

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
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

// In steady state, handing a generation's (already built) view to a
// reader allocates nothing, by either path. When the reader is busy the
// generation is queued for the pump: the queue is a ring that reuses its
// slots, and the entry is a pointer to the shared generation. When the
// reader is already parked on Updates() — as the HTTP handler waits too —
// offer sends the batch itself and the pump sleeps.
func TestOfferDeliverZeroAlloc(t *testing.T) {
	for _, prefix := range []string{"/", PathFIB} {
		for _, path := range []string{"pump", "direct/Updates"} {
			r := New(Config{})
			sub := r.Subscribe(prefix)
			const runs = 200
			gens := make([]*generation, runs+1) // AllocsPerRun warms up with one extra call
			for i := range gens {
				gens[i] = &generation{gen: uint64(i + 1), delta: []Update{{Op: OpDelete, Path: "/topology/links/x"}}}
				r.deltaView(gens[i], prefix) // as if another subscriber on the prefix got there first
			}
			// ready returns once a generation offered next finds the
			// path under test; next takes the batch the reader got.
			ready := func() {}
			var next func() uint64
			switch path {
			case "pump":
				<-sub.Updates()
				// The offering goroutine is the reader: it is never parked
				// when a generation is offered.
				next = func() uint64 { return (<-sub.Updates()).Gen }
			case "direct/Updates":
				rd := startReader(sub.Updates())
				<-rd.got // the sync
				ready = func() { rd.waitParked(t) }
				next = func() uint64 { return (<-rd.got).Gen }
			}
			waitIdle(t, sub)
			n := 0
			allocs := testing.AllocsPerRun(runs, func() {
				ready()
				sub.offer(gens[n])
				n++
				if gen := next(); gen != uint64(n) {
					t.Fatalf("%s: delivered generation %d, want %d", path, gen, n)
				}
			})
			wakes := sub.wakes.Load()
			sub.Close()
			if allocs != 0 {
				t.Errorf("prefix %s, %s: offer → deliver allocates %.1f times per batch, want 0", prefix, path, allocs)
			}
			// On the pump path each batch is a notify; one token can cover
			// two batches when the pump finds the second already queued.
			if direct := path != "pump"; direct && wakes != 0 || !direct && (wakes == 0 || wakes > runs+1) {
				t.Errorf("prefix %s, %s: the pump woke %d times for %d batches", prefix, path, wakes, runs+1)
			}
		}
	}
}

// reader is a goroutine that forwards what a subscription's channel
// carries to got, one value at a time, as a subscriber's own loop would.
type reader[T any] struct {
	got chan T
	// parked is the header its stack dump shows while it is blocked
	// receiving from the subscription's channel: "goroutine N [chan receive".
	parked []byte
	stacks []byte
}

func startReader[T any](in <-chan T) *reader[T] {
	rd := &reader[T]{got: make(chan T), stacks: make([]byte, 1<<20)}
	id := make(chan []byte)
	go func() {
		b := make([]byte, 64)
		b = b[:runtime.Stack(b, false)] // "goroutine N [running]:\n..."
		id <- append(b[:bytes.IndexByte(b, '[')+1], "chan receive"...)
		for v := range in {
			rd.got <- v
		}
	}()
	rd.parked = <-id
	return rd
}

// waitParked returns once the reader is blocked receiving from its
// subscription's channel. Only a batch can wake it from there, so a
// generation offered next, while the pump is idle, is handed to it
// whatever the scheduler does.
func (rd *reader[T]) waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !bytes.Contains(rd.stacks[:runtime.Stack(rd.stacks, true)], rd.parked) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never parked on its channel")
		}
		runtime.Gosched()
	}
}

// waitIdle returns once the subscription's pump has parked with nothing
// to deliver, from when on offer hands batches to a waiting reader itself.
func waitIdle(t *testing.T, s *Subscription) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		idle := s.idle
		s.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the pump never went idle")
		}
		runtime.Gosched()
	}
}

// A reader that is parked on its channel whenever a generation is
// published is handed every batch by the installer: a hundred installs
// leave its pump asleep, and the stream replays to the live state.
func TestWaitingReaderNeverWakesPump(t *testing.T) {
	r := New(Config{})
	r.Install(lineDB(6, 0))
	sub := r.Subscribe("/")
	defer sub.Close()
	rd := startReader(sub.Updates())
	rep := NewReplayer()
	if err := rep.Apply(<-rd.got); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, sub)
	const installs = 100
	for i := 1; i <= installs; i++ {
		rd.waitParked(t)
		r.Install(lineDB(6, i%5))
		if err := rep.Apply(<-rd.got); err != nil {
			t.Fatal(err)
		}
	}
	if w := sub.wakes.Load(); w != 0 {
		t.Errorf("%d installs to a waiting reader woke its pump %d times, want 0", installs, w)
	}
	if got, want := rep.Canonical("/"), r.Current().Canonical("/"); !bytes.Equal(got, want) {
		t.Errorf("replayed state diverged at generation %d:\n%s\nwant:\n%s", rep.Gen(), got, want)
	}
	if s := r.Stats(); s.Deliveries != installs+1 || s.Staleness.Max != 0 {
		t.Errorf("stats after %d direct deliveries: %d deliveries, lag %d", installs, s.Deliveries, s.Staleness.Max)
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
