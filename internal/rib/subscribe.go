package rib

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Subscription is one streaming reader of the RIB. A reader that keeps up
// is parked on the channel when a generation arrives, and the installer
// hands the batch straight to it (offer's direct path). A reader that is
// busy or stalled instead has the generation appended to a bounded queue
// (offer never blocks), and a per-subscription pump goroutine drains the
// queue onto the channel at whatever pace the reader consumes. The pump
// also delivers the initial sync. When the reader
// stalls long enough for the queue to overflow, the backlog is discarded
// and the pump delivers a ResyncBatch built from the then-current
// snapshot instead — the stream stays correct (the resync supersedes
// every dropped delta), only its granularity degrades.
type Subscription struct {
	rib    *RIB
	prefix string

	// delivered is the generation of the last batch the reader actually
	// consumed — the per-subscriber freshness the staleness SLO is
	// computed from (RIB.Stats reads it concurrently).
	delivered atomic.Uint64
	// wakes counts the pump's wake-ups by notify; a reader that keeps
	// up is served by the direct path and never wakes it.
	wakes atomic.Uint64

	// queue holds the generations whose delta is pending, at most
	// rib.depth of them: a ring, so steady-state offers reuse its slots
	// and a delivered generation is no longer reachable from it. The
	// pump reads the current snapshot with mu held: mu is taken before
	// the RIB's own lock, never after it.
	mu       sync.Mutex
	queue    sim.Ring[*generation]
	overflow bool
	closed   bool
	// last is the newest generation the stream has carried or is
	// carrying (the sync, a resync, a delta); an offer at or below it is
	// already covered. idle is set only while the pump is parked with an
	// empty queue and no overflow: then nothing else sends on the
	// channel, and offer may hand a batch to the reader itself.
	last uint64
	idle bool

	// notify wakes the pump (capacity 1: a single token covers any
	// number of pending batches); done tears the pump down.
	notify chan struct{}
	done   chan struct{}
	// out is the delivery channel behind Updates. It is unbuffered, so a
	// completed send is a consumed batch.
	out chan Batch
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

// offer hands one published generation to the subscription, called by
// Install outside the RIB lock, generations in order. When the pump is
// idle the generation's view goes straight to a reader parked on its
// channel, a non-blocking send; otherwise — or when the reader is not
// waiting — the generation is queued and the pump notified. Bounded
// work, no waiting. The returned flag reports a queue overflow (Install
// fires the OnEvent hook for it).
func (s *Subscription) offer(g *generation) (overflowed bool) {
	s.mu.Lock()
	if s.closed || g.gen <= s.last {
		// Closed, or a resync built after this install already
		// carries it.
		s.mu.Unlock()
		return false
	}
	if s.idle {
		// Sending under s.mu keeps Close from closing the channel
		// mid-send; the send does not wait, and one that finds no reader
		// parked returns without taking the channel's lock.
		select {
		case s.out <- s.rib.deltaView(g, s.prefix).batch:
			s.last = g.gen
			s.mu.Unlock()
			s.consumed(g.gen)
			return false
		default:
		}
		s.idle = false
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
// stream strictly increasing in generation: a resync is built from the
// current snapshot, which may already cover generations the installer has
// published but not yet offered — offer skips those, since the resync
// supersedes them — and every queued generation is newer than last. Every
// batch is the generation's shared view for the prefix, built here only
// if no other subscriber on the prefix got there first.
func (s *Subscription) pump(first *Snapshot) {
	defer close(s.out)
	if !s.deliver(s.rib.fullView(first, SyncBatch, s.prefix)) {
		return
	}
	for {
		s.mu.Lock()
		if s.overflow {
			// One critical section from the overflow to last: every
			// generation offered after it is newer than the resync.
			cur := s.rib.Current()
			s.overflow = false
			s.queue.Clear()
			s.last = cur.Gen
			s.mu.Unlock()
			s.rib.resyncs.Add(1)
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
			s.last = g.gen
			s.mu.Unlock()
			if !s.deliver(s.rib.deltaView(g, s.prefix)) {
				return
			}
			continue
		}
		s.idle = true
		s.mu.Unlock()
		select {
		case <-s.notify:
			s.wakes.Add(1)
		case <-s.done:
			return
		}
	}
}

// deliver blocks on the reader (only the pump ever does) until the batch
// is consumed or the subscription closes; false means stop pumping.
func (s *Subscription) deliver(v *view) bool {
	select {
	case s.out <- v.batch:
	case <-s.done:
		return false
	}
	s.consumed(v.batch.Gen)
	return true
}

// consumed records that the reader took a batch of generation gen, by
// either path (offer's hand-off or the pump): it advances the
// subscriber's delivered generation and feeds the install→deliver
// latency histogram.
func (s *Subscription) consumed(gen uint64) {
	s.delivered.Store(gen)
	s.rib.observeDelivery(gen)
}
