package rib

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asi"
	"repro/internal/core"
)

// streamPrefixes are the prefixes FuzzRIBStream's subscribers pick from:
// the whole tree, each subtree and one that matches nothing.
var streamPrefixes = []string{"/", PathTopology, PathSwitches, PathEndpoints, PathLinks, PathFIB, PathRoutes, PathEventRoutes, "/nothing"}

// Reader behaviours: read every batch at once, sleep between batches, or
// read nothing until released.
const (
	readerWaits = iota
	readerDawdles
	readerStalls
	readerModes
)

// streamReader is one FuzzRIBStream subscriber: a goroutine that folds
// its stream into a Replayer and records the state after every batch.
type streamReader struct {
	prefix string
	sub    *Subscription
	mode   int
	from   uint64        // the generation current when it subscribed
	gate   chan struct{} // closed to release a stalled reader
	done   chan struct{} // closed when the goroutine returns
	gen    atomic.Uint64 // the last generation received

	// Owned by the goroutine until done is closed.
	seen []seenBatch
	err  error
}

// seenBatch is one applied batch and the replayed state after it.
type seenBatch struct {
	gen   uint64
	typ   string
	state []byte
}

func (sr *streamReader) run(depth int) {
	defer close(sr.done)
	if sr.mode == readerStalls {
		<-sr.gate
	}
	rep := NewReplayer()
	for b := range sr.sub.Updates() {
		if sr.err == nil {
			sr.err = sr.check(rep, b, depth)
		}
		sr.gen.Store(b.Gen)
		if sr.mode == readerDawdles {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// check holds one batch to the stream's shape, then applies it: one sync
// of the generation current at Subscribe, then strictly increasing
// generations, a resync only where the queue must have overflowed (more
// than depth generations after the batch before it).
func (sr *streamReader) check(rep *Replayer, b Batch, depth int) error {
	first := len(sr.seen) == 0
	switch {
	case first && (b.Type != SyncBatch || b.Gen != sr.from):
		return fmt.Errorf("%s: stream opens with a %s batch of generation %d, want the sync of %d", sr.prefix, b.Type, b.Gen, sr.from)
	case first:
	case b.Type == SyncBatch:
		return fmt.Errorf("%s: a second sync, generation %d", sr.prefix, b.Gen)
	case b.Gen <= sr.seen[len(sr.seen)-1].gen:
		return fmt.Errorf("%s: generation %d after %d", sr.prefix, b.Gen, sr.seen[len(sr.seen)-1].gen)
	case b.Type == ResyncBatch && b.Gen <= sr.seen[len(sr.seen)-1].gen+uint64(depth):
		return fmt.Errorf("%s: resync at generation %d, only %d after generation %d with a queue of %d: no overflow",
			sr.prefix, b.Gen, b.Gen-sr.seen[len(sr.seen)-1].gen, sr.seen[len(sr.seen)-1].gen, depth)
	}
	if err := rep.Apply(b); err != nil {
		return fmt.Errorf("%s: %w", sr.prefix, err)
	}
	sr.seen = append(sr.seen, seenBatch{gen: b.Gen, typ: b.Type, state: rep.Canonical(sr.prefix)})
	return nil
}

// release lets a stalled reader start reading; idempotent.
func (sr *streamReader) release() {
	select {
	case <-sr.gate:
	default:
		close(sr.gate)
	}
}

// FuzzRIBStream is the referee of delivery: random installs of the
// database shapes FuzzInstallChangeSets builds, read by subscribers on
// random prefixes that wait on their channel (served by the installer's
// hand-off), dawdle (served by the pump), stall past the queue depth
// (overflowed and resynced) and are closed at random points. Every stream
// must be one sync then strictly increasing generations, resync only
// after an overflow, and replay at every generation it delivers to the
// live snapshot's Canonical for the prefix; every open stream must reach
// the last generation, and every Close must leave no goroutine behind.
//
// Input: the queue depth, the first subscriber, then (op, argument)
// pairs: ops 0..6 change the database as in FuzzInstallChangeSets, 7
// installs, 8 subscribes, 9 closes a subscriber and 10 releases one that
// stalls.
func FuzzRIBStream(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 7, 0, 7, 0, 7, 0})                                            // one waiting reader, three installs
	f.Add([]byte{0, 2*9 + 0, 7, 0, 7, 0, 7, 0, 7, 0, 10, 0, 7, 0})                   // a stall overflows a depth-1 queue, then reads
	f.Add([]byte{2, 9 + 4, 8, 2*9 + 1, 8, 5, 1, 3, 7, 0, 6, 4, 7, 0, 9, 1, 7, 0})    // dawdler on links, a stall, a close mid-stream
	f.Add([]byte{3, 0, 8, 9 + 6, 8, 2*9 + 7, 4, 3, 7, 0, 5, 2, 7, 0, 9, 2, 9, 0})    // every reader closed before the end
	f.Add([]byte{0, 2*9 + 8, 7, 0, 7, 0, 7, 0, 8, 3, 7, 0, 7, 0, 10, 0, 1, 5, 7, 0}) // resync, then a late subscriber
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		depth := 1 + int(data[0]%4)
		var overflows, resyncs atomic.Int64
		r := New(Config{QueueDepth: depth, OnEvent: func(kind string, _ uint64) {
			if kind == EventOverflow {
				overflows.Add(1)
			} else {
				resyncs.Add(1)
			}
		}})
		db := fuzzDB()
		r.Install(db)
		snaps := map[uint64]*Snapshot{r.Current().Gen: r.Current()}
		install := func() {
			gen, _ := r.Install(db)
			snaps[gen] = r.Current()
		}

		base := runtime.NumGoroutine()
		var readers []*streamReader
		live := 0
		settle := func() {
			t.Helper()
			want := base + 2*live // a pump and a reader per open subscription
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > want {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines with %d subscriptions open, want at most %d", runtime.NumGoroutine(), live, want)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		subscribe := func(arg int) {
			if live == 8 {
				return
			}
			sr := &streamReader{
				prefix: streamPrefixes[arg%len(streamPrefixes)],
				mode:   arg / len(streamPrefixes) % readerModes,
				from:   r.Current().Gen,
				gate:   make(chan struct{}),
				done:   make(chan struct{}),
			}
			sr.sub = r.Subscribe(sr.prefix)
			readers = append(readers, sr)
			live++
			go sr.run(depth)
		}
		closeReader := func(sr *streamReader) {
			t.Helper()
			select {
			case <-sr.done:
				return // closed before
			default:
			}
			sr.sub.Close()
			sr.release()
			<-sr.done
			live--
			settle()
		}

		subscribe(int(data[1]))
		cut := map[asi.DSN][]core.Link{}
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%11, int(data[i+1])
			switch op {
			default:
				mutate(db, cut, op, arg)
			case 7:
				install()
			case 8:
				subscribe(arg)
			case 9:
				closeReader(readers[arg%len(readers)])
			case 10:
				readers[arg%len(readers)].release()
			}
		}
		install()

		final := r.Current().Gen
		for _, sr := range readers {
			sr.release()
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, sr := range readers {
			select {
			case <-sr.done:
				continue // closed on purpose
			default:
			}
			for sr.gen.Load() < final {
				if time.Now().After(deadline) {
					t.Fatalf("%s reader stuck at generation %d of %d", sr.prefix, sr.gen.Load(), final)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		for _, sr := range readers {
			closeReader(sr)
		}

		resynced := 0
		for _, sr := range readers {
			if sr.err != nil {
				t.Fatal(sr.err)
			}
			for _, b := range sr.seen {
				if want := snaps[b.gen].Canonical(sr.prefix); !bytes.Equal(b.state, want) {
					t.Fatalf("%s: replayed state after the %s batch of generation %d:\n%s\nlive:\n%s", sr.prefix, b.typ, b.gen, b.state, want)
				}
				if b.typ == ResyncBatch {
					resynced++
				}
			}
		}
		if n := resyncs.Load(); int64(resynced) > n || n > overflows.Load() {
			t.Fatalf("%d resync batches read, %d resyncs built, %d overflows", resynced, n, overflows.Load())
		}
	})
}
