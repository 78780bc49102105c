package rib

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Subscription is one streaming reader of the RIB. The installer side
// appends each published generation to a bounded queue (offer, bounded
// work, never blocking); a per-subscription pump goroutine drains the
// queue onto the Updates channel at whatever pace the reader consumes.
// When the reader stalls long enough for the queue to overflow, the
// backlog is discarded and the pump delivers a ResyncBatch built from the
// then-current snapshot instead — the stream stays correct (the resync
// supersedes every dropped delta), only its granularity degrades.
type Subscription struct {
	rib    *RIB
	prefix string

	// delivered is the generation of the last batch the reader actually
	// consumed — the per-subscriber freshness the staleness SLO is
	// computed from (RIB.Stats reads it concurrently).
	delivered atomic.Uint64

	// queue holds the generations whose delta is pending, at most
	// rib.depth of them: a ring, so steady-state offers reuse its slots
	// and a delivered generation is no longer reachable from it.
	mu       sync.Mutex
	queue    sim.Ring[*generation]
	overflow bool
	closed   bool

	// notify wakes the pump (capacity 1: a single token covers any
	// number of pending batches); done tears the pump down.
	notify chan struct{}
	done   chan struct{}
	// The pump offers every batch on both channels and whoever owns the
	// subscription reads one: out behind Updates, or — the HTTP handler,
	// which wants the encoded line too — the shared view itself.
	out   chan Batch
	views chan *view
}

// Updates is the subscription's delivery channel: an initial SyncBatch,
// then one DeltaBatch per install (or a ResyncBatch after an overflow).
// Batches whose filtered update set is empty are still delivered (with
// no updates) so readers observe every generation; the channel closes
// after Close.
func (s *Subscription) Updates() <-chan Batch { return s.out }

// Close unregisters the subscription and stops its pump. Safe to call
// more than once and concurrently with delivery.
func (s *Subscription) Close() {
	s.rib.unsubscribe(s)
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.done)
	}
}

// offer queues one published generation, called by Install with rib.mu
// held. Bounded work: push or drop, one channel poke, no waiting. The
// returned flag reports a queue overflow (Install fires the OnEvent hook
// for it after releasing the RIB lock).
func (s *Subscription) offer(g *generation) (overflowed bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.queue.Len() >= s.rib.depth {
		// The reader is stalled. Drop the whole backlog — the resync
		// that replaces it carries the full state anyway.
		s.queue.Clear()
		s.overflow = true
		overflowed = true
	} else {
		s.queue.Push(g)
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return overflowed
}

// pump delivers the full state of first, the generation current when the
// subscription registered, then drains the queue. It keeps the delivered
// stream monotonic in generation: a resync is built from the current
// snapshot, which may already cover deltas still sitting in the queue
// (enqueued between the overflow and the resync) — those are skipped,
// since the resync supersedes them. Every batch is the generation's
// shared view for the prefix, built here only if no other subscriber on
// the prefix got there first.
func (s *Subscription) pump(first *Snapshot) {
	defer close(s.out)
	defer close(s.views)
	if !s.deliver(s.rib.fullView(first, SyncBatch, s.prefix)) {
		return
	}
	last := first.Gen
	for {
		s.mu.Lock()
		if s.overflow {
			s.overflow = false
			s.queue.Clear()
			s.mu.Unlock()
			s.rib.resyncs.Add(1)
			cur := s.rib.Current()
			last = cur.Gen
			if s.rib.onEvent != nil {
				s.rib.onEvent(EventResync, cur.Gen)
			}
			if !s.deliver(s.rib.fullView(cur, ResyncBatch, s.prefix)) {
				return
			}
			continue
		}
		if s.queue.Len() > 0 {
			g := s.queue.Pop()
			s.mu.Unlock()
			if g.gen <= last {
				continue // already covered by the sync or a resync
			}
			last = g.gen
			if !s.deliver(s.rib.deltaView(g, s.prefix)) {
				return
			}
			continue
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-s.done:
			return
		}
	}
}

// deliver blocks on the reader (only the pump ever does) until the batch
// is consumed or the subscription closes; false means stop pumping. A
// consumed batch advances the subscriber's delivered generation and
// feeds the install→deliver latency histogram.
func (s *Subscription) deliver(v *view) bool {
	select {
	case s.out <- v.batch:
	case s.views <- v:
	case <-s.done:
		return false
	}
	s.delivered.Store(v.batch.Gen)
	s.rib.observeDelivery(v.batch.Gen)
	return true
}
