package sim

import "fmt"

// Handler is a callback run when an event fires. It receives the engine so
// that it can schedule follow-up events.
type Handler func(e *Engine)

// ArgHandler is a callback run when an event scheduled with AtArg/AfterArg
// fires. The arg is whatever the scheduler passed; a pointer-shaped arg
// boxes into the interface without allocating, so one pre-bound ArgHandler
// can serve many concurrent events (e.g. one per in-flight packet) with
// zero per-event allocations.
type ArgHandler func(e *Engine, arg any)

// event is a scheduled callback, stored in the engine's arena. seq breaks
// ties between events scheduled for the same instant: earlier-scheduled
// events run first, which makes runs deterministic regardless of heap
// internals. gen distinguishes reuses of the same arena slot so stale
// EventIDs never cancel an unrelated event. Every event is an ArgHandler
// and its arg: At and After schedule callHandler with the Handler as arg.
type event struct {
	at      Time
	seq     uint64
	fn      ArgHandler
	arg     any
	gen     uint32
	heapPos int32 // position in the far heap, or posNear / posFree
}

// callHandler is the ArgHandler that At and After schedule: arg is the
// Handler itself. A func value boxes into an interface without
// allocating, so a pre-bound Handler schedules allocation-free.
func callHandler(e *Engine, arg any) { arg.(Handler)(e) }

const (
	posFree = -1 // the slot is on the free list
	posNear = -2 // the event sits in the near run
)

// nearCap bounds the near run. 32, 64 and 128 measured within noise of each
// other end to end, 8 and 16 slower (EXPERIMENTS.md "The simulator").
const nearCap = 64

// nearEntry is one event of the near run, with its ordering key inline so
// that inserting, popping and peeking never touch the arena.
type nearEntry struct {
	at  Time
	seq uint64
	idx int32
}

// EventID identifies a scheduled event so it can be canceled. The zero
// value is not a valid ID. IDs are generation-stamped: after the event
// fires or is canceled, the ID goes stale and further Cancels are no-ops
// even if the underlying arena slot has been recycled.
type EventID struct {
	slot int32 // arena index + 1; 0 marks the invalid zero value
	gen  uint32
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use; parallelism in this repository is achieved by running
// many independent Engine instances (one per simulation run) across a
// worker pool — see internal/experiment.
//
// Events live in an arena of slots with a free list: scheduling, firing
// and canceling recycle slots instead of allocating, so the steady-state
// hot path is allocation-free (see bench_test.go and the zero-alloc
// regression tests). The queue over them has two tiers, one order (at, seq):
//
//   - near: a sorted run of at most nearCap entries, minimum last. Two in
//     five or more scheduled events are the very next to fire and the mean
//     insertion rank is 5-10, so insertion-sorting from the minimum costs
//     the event's rank and pop is a length decrement.
//   - far: a hand-specialized 4-ary min-heap of arena indices for
//     everything later.
//
// Invariant: every near key < every far key. A new event earlier than the
// far top enters near (a full run spills its maximum to far), any other
// enters far; an empty near refills with far's smallest nearCap/2. Cancel
// physically removes from either tier — mass cancellation (e.g. the FM
// retry layer descheduling timeouts) never leaves tombstones behind.
type Engine struct {
	now     Time
	arena   []event
	free    []int32
	near    [nearCap]nearEntry // near[:nearLen], descending by (at, seq)
	nearLen int
	heap    []int32 // far
	nextSeq uint64
	stopped bool

	// Processed counts events that have fired.
	Processed uint64
	// Scheduled counts events that have been scheduled (including later
	// canceled ones).
	Scheduled uint64
	// MaxPending is the high-water mark of the event queue, both tiers
	// together. Telemetry snapshots read it after a run to report how much
	// simultaneity the scenario actually generated.
	MaxPending int
	// FarPushes counts events that entered the far heap, directly or spilled
	// from a full near run; the queue is cheap while few of Scheduled do.
	FarPushes uint64
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events currently scheduled. Canceled
// events are physically removed, so they never count.
func (e *Engine) Pending() int { return e.nearLen + len(e.heap) }

// alloc takes a free arena slot (or grows the arena), fills and queues it.
func (e *Engine) alloc(t Time, fn ArgHandler, arg any) EventID {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	seq := e.nextSeq
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	ev.arg = arg
	e.nextSeq++
	e.Scheduled++
	id := EventID{slot: idx + 1, gen: ev.gen}
	n := e.nearLen
	if p := n + len(e.heap) + 1; p > e.MaxPending {
		e.MaxPending = p
	}
	// A new seq is the largest, so the event orders behind every pending
	// one at the same instant and at alone decides its place.
	if len(e.heap) > 0 && t >= e.arena[e.heap[0]].at {
		e.pushFar(idx)
		return id
	}
	i := n
	if n < nearCap { // insertion sort from the minimum: cost is the event's rank
		for ; i > 0 && e.near[i-1].at <= t; i-- {
			e.near[i] = e.near[i-1]
		}
		e.nearLen = n + 1
	} else {
		for i > 0 && e.near[i-1].at <= t {
			i--
		}
		if i == 0 { // later than the whole full run: the event is the spill
			e.pushFar(idx)
			return id
		}
		e.pushFar(e.near[0].idx) // spill the maximum, close the gap up to i
		i--
		copy(e.near[:i], e.near[1:i+1])
	}
	ev.heapPos = posNear
	e.near[i] = nearEntry{at: t, seq: seq, idx: idx}
	return id
}

// pushFar adds an arena slot to the far heap.
func (e *Engine) pushFar(idx int32) {
	e.FarPushes++
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
}

// refill moves the far heap's smallest nearCap/2 events into the empty
// near run; half the capacity leaves room to insert without spilling.
func (e *Engine) refill() {
	k := len(e.heap)
	if k > nearCap/2 {
		k = nearCap / 2
	}
	for i := k - 1; i >= 0; i-- {
		idx := e.popMin()
		ev := &e.arena[idx]
		ev.heapPos = posNear
		e.near[i] = nearEntry{at: ev.at, seq: ev.seq, idx: idx}
	}
	e.nearLen = k
}

// nextAt returns the instant of the earliest pending event, if any,
// refilling near when it has run dry. Every peek is here, every pop in next.
func (e *Engine) nextAt() (Time, bool) {
	if e.nearLen == 0 {
		if len(e.heap) == 0 {
			return 0, false
		}
		e.refill()
	}
	return e.near[e.nearLen-1].at, true
}

// next removes and returns the arena index of the earliest event; nextAt
// must have just reported one.
func (e *Engine) next() int32 {
	e.nearLen--
	return e.near[e.nearLen].idx
}

// release recycles a fired or canceled slot. Bumping the generation makes
// every outstanding EventID for the slot stale; clearing the callback and
// its arg drops references so closures and args become collectable.
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.heapPos = posFree
	e.free = append(e.free, idx)
}

// At schedules fn to run at the absolute instant t. Scheduling in the past
// panics: it would silently reorder causality, which in a network
// simulator always indicates a modelling bug.
func (e *Engine) At(t Time, fn Handler) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event handler")
	}
	return e.alloc(t, callHandler, fn)
}

// After schedules fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d Duration, fn Handler) EventID {
	return e.At(e.now.Add(d), fn)
}

// AtArg schedules fn(engine, arg) at the absolute instant t. It is the
// allocation-free alternative to capturing per-event state in a closure:
// the callback is pre-bound once and the varying state rides in arg.
func (e *Engine) AtArg(t Time, fn ArgHandler, arg any) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event handler")
	}
	return e.alloc(t, fn, arg)
}

// AfterArg schedules fn(engine, arg) to run d after the current instant.
func (e *Engine) AfterArg(d Duration, fn ArgHandler, arg any) EventID {
	return e.AtArg(e.now.Add(d), fn, arg)
}

// Cancel prevents a scheduled event from firing, physically removing it
// from the queue. Canceling an event that already fired, or the zero
// EventID, is a no-op. Cancel reports whether the event was actually
// descheduled by this call.
func (e *Engine) Cancel(id EventID) bool {
	if id.slot == 0 {
		return false
	}
	idx := id.slot - 1
	ev := &e.arena[idx]
	switch {
	case ev.gen != id.gen || ev.heapPos == posFree:
		return false
	case ev.heapPos == posNear:
		e.removeNear(ev.at, ev.seq)
	default:
		e.removeAt(int(ev.heapPos))
	}
	e.release(idx)
	return true
}

// Stop makes the current Run return after the in-flight event handler
// completes. Pending events remain queued, so Run may be called again to
// resume.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in timestamp order until the queue drains or Stop
// is called. It returns the simulation time after the last processed
// event.
func (e *Engine) Run() Time {
	return e.RunUntil(Never)
}

// RunUntil processes events with timestamps <= deadline, in order, until
// the queue drains, the deadline passes, or Stop is called. If the queue
// still holds events beyond the deadline, the clock is advanced to the
// deadline. It returns the current simulation time.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		at, ok := e.nextAt()
		if !ok {
			break
		}
		if at > deadline {
			e.now = deadline
			return e.now
		}
		e.fire(e.next())
	}
	if e.Pending() == 0 && deadline != Never && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// NextEventTime returns the timestamp of the earliest pending event, and
// whether one exists. The shard-group coordinator polls it to compute
// conservative execution horizons; it never changes what is pending.
func (e *Engine) NextEventTime() (Time, bool) { return e.nextAt() }

// RunBefore processes events with timestamps strictly below limit, in
// order, until none remain or Stop is called. Unlike RunUntil it never
// advances the clock past the last processed event: in the sharded
// parallel path the clock of a quiet region is owned by the ShardGroup
// coordinator, which advances it only once every region has agreed the
// span is safe.
func (e *Engine) RunBefore(limit Time) Time {
	e.stopped = false
	for !e.stopped {
		at, ok := e.nextAt()
		if !ok || at >= limit {
			break
		}
		e.fire(e.next())
	}
	return e.now
}

// Step processes exactly one event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if _, ok := e.nextAt(); !ok {
		return false
	}
	e.fire(e.next())
	return true
}

// fire advances the clock to the event and runs its callback. The slot is
// released before the callback runs, so a recurring event's handler can
// immediately rearm (possibly reusing the very slot it fired from).
func (e *Engine) fire(idx int32) {
	ev := &e.arena[idx]
	at, fn, arg := ev.at, ev.fn, ev.arg
	e.release(idx)
	e.now = at
	e.Processed++
	fn(e, arg)
}

// less orders arena slots by (at, seq): time first, schedule order second.
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// The far heap is 4-ary: children of position i are 4i+1..4i+4. A wider node
// trades slightly more comparisons per level for half the levels and much
// better cache behaviour than a binary heap on the index slice.

// siftUp restores heap order by moving the element at pos toward the root.
func (e *Engine) siftUp(pos int) {
	idx := e.heap[pos]
	for pos > 0 {
		parent := (pos - 1) >> 2
		pidx := e.heap[parent]
		if e.less(pidx, idx) {
			break
		}
		e.heap[pos] = pidx
		e.arena[pidx].heapPos = int32(pos)
		pos = parent
	}
	e.heap[pos] = idx
	e.arena[idx].heapPos = int32(pos)
}

// siftDown restores heap order by moving the element at pos toward the
// leaves.
func (e *Engine) siftDown(pos int) {
	n := len(e.heap)
	idx := e.heap[pos]
	for {
		first := pos<<2 + 1
		if first >= n {
			break
		}
		best := first
		bidx := e.heap[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if cidx := e.heap[c]; e.less(cidx, bidx) {
				best, bidx = c, cidx
			}
		}
		if e.less(idx, bidx) {
			break
		}
		e.heap[pos] = bidx
		e.arena[bidx].heapPos = int32(pos)
		pos = best
	}
	e.heap[pos] = idx
	e.arena[idx].heapPos = int32(pos)
}

// popMin removes and returns the far heap's earliest slot, to be repositioned.
func (e *Engine) popMin() int32 {
	idx := e.heap[0]
	last := len(e.heap) - 1
	lidx := e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.heap[0] = lidx
		e.arena[lidx].heapPos = 0
		e.siftDown(0)
	}
	return idx
}

// removeNear deletes the near entry with key (at, seq), which must exist.
func (e *Engine) removeNear(at Time, seq uint64) {
	lo, hi := 0, e.nearLen
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m := &e.near[mid]; m.at > at || m.at == at && m.seq > seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(e.near[lo:], e.near[lo+1:e.nearLen])
	e.nearLen--
}

// removeAt deletes the heap entry at pos, restoring order around it.
func (e *Engine) removeAt(pos int) {
	last := len(e.heap) - 1
	if pos == last {
		e.heap = e.heap[:last]
		return
	}
	lidx := e.heap[last]
	e.heap = e.heap[:last]
	e.heap[pos] = lidx
	e.arena[lidx].heapPos = int32(pos)
	e.siftDown(pos)
	if e.arena[lidx].heapPos == int32(pos) {
		e.siftUp(pos)
	}
}
