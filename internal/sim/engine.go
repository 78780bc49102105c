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
// EventIDs never cancel an unrelated event.
type event struct {
	at      Time
	seq     uint64
	fn      Handler
	afn     ArgHandler
	arg     any
	gen     uint32
	heapPos int32 // position in the heap; -1 while the slot is free
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
// The event queue is a hand-specialized 4-ary min-heap of indices into an
// arena of event slots with a free list: scheduling, firing and canceling
// recycle slots instead of allocating, so the steady-state hot path is
// allocation-free (see bench_test.go and the zero-alloc regression tests).
// Cancel physically removes the event from the heap via its maintained
// position — mass cancellation (e.g. the FM retry layer descheduling
// timeouts) never leaves tombstones behind to bloat the queue.
type Engine struct {
	now     Time
	arena   []event
	free    []int32
	heap    []int32
	nextSeq uint64
	stopped bool

	// Processed counts events that have fired.
	Processed uint64
	// Scheduled counts events that have been scheduled (including later
	// canceled ones).
	Scheduled uint64
	// MaxPending is the high-water mark of the event queue — the deepest
	// the heap has ever been. Telemetry snapshots read it after a run to
	// report how much simultaneity the scenario actually generated.
	MaxPending int
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events currently scheduled. Canceled
// events are physically removed, so they never count.
func (e *Engine) Pending() int { return len(e.heap) }

// alloc takes a free arena slot (or grows the arena) and initializes it.
func (e *Engine) alloc(t Time, fn Handler, afn ArgHandler, arg any) EventID {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at = t
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	e.nextSeq++
	e.Scheduled++
	e.heap = append(e.heap, idx)
	if len(e.heap) > e.MaxPending {
		e.MaxPending = len(e.heap)
	}
	e.siftUp(len(e.heap) - 1)
	return EventID{slot: idx + 1, gen: ev.gen}
}

// release recycles a fired or canceled slot. Bumping the generation makes
// every outstanding EventID for the slot stale; clearing the callbacks
// drops references so closures and args become collectable.
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.heapPos = -1
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
	return e.alloc(t, fn, nil, nil)
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
	return e.alloc(t, nil, fn, arg)
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
	if ev.gen != id.gen || ev.heapPos < 0 {
		return false
	}
	e.removeAt(int(ev.heapPos))
	e.release(idx)
	return true
}

// Armed reports whether the identified event is still scheduled. A record
// that schedules one recurring event through AtArg can keep the EventID
// and ask here before scheduling again, instead of owning a Timer.
func (e *Engine) Armed(id EventID) bool {
	if id.slot == 0 {
		return false
	}
	ev := &e.arena[id.slot-1]
	return ev.gen == id.gen && ev.heapPos >= 0
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
	for len(e.heap) > 0 && !e.stopped {
		top := e.heap[0]
		at := e.arena[top].at
		if at > deadline {
			e.now = deadline
			return e.now
		}
		e.fire(e.popMin())
	}
	if len(e.heap) == 0 && deadline != Never && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// NextEventTime returns the timestamp of the earliest pending event, and
// whether one exists. The shard-group coordinator polls it to compute
// conservative execution horizons; it never modifies the queue.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.arena[e.heap[0]].at, true
}

// RunBefore processes events with timestamps strictly below limit, in
// order, until none remain or Stop is called. Unlike RunUntil it never
// advances the clock past the last processed event: in the sharded
// parallel path the clock of a quiet region is owned by the ShardGroup
// coordinator, which advances it only once every region has agreed the
// span is safe.
func (e *Engine) RunBefore(limit Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.arena[e.heap[0]].at >= limit {
			break
		}
		e.fire(e.popMin())
	}
	return e.now
}

// Step processes exactly one event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.fire(e.popMin())
	return true
}

// fire advances the clock to the event and runs its callback. The slot is
// released before the callback runs, so a reusable timer's handler can
// immediately rearm (possibly reusing the very slot it fired from).
func (e *Engine) fire(idx int32) {
	ev := &e.arena[idx]
	at, fn, afn, arg := ev.at, ev.fn, ev.afn, ev.arg
	e.release(idx)
	e.now = at
	e.Processed++
	if afn != nil {
		afn(e, arg)
		return
	}
	fn(e)
}

// less orders arena slots by (at, seq): time first, schedule order second.
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// The heap is 4-ary: children of position i are 4i+1..4i+4. A wider node
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

// popMin removes and returns the arena index of the earliest event.
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
	e.arena[idx].heapPos = -1
	return idx
}

// removeAt deletes the heap entry at pos, restoring order around it.
func (e *Engine) removeAt(pos int) {
	last := len(e.heap) - 1
	idx := e.heap[pos]
	e.arena[idx].heapPos = -1
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

// Timer is a reusable scheduled event with a pre-bound handler. It is the
// allocation-free replacement for the schedule-a-fresh-closure pattern on
// recurring events (link serializer kicks, serial work queues, timeouts):
// the callback is bound once at construction and every (re)schedule just
// takes an arena slot.
//
// A Timer tracks at most one pending firing: scheduling while armed
// cancels the pending one first. Like the Engine itself, a Timer is not
// safe for concurrent use.
type Timer struct {
	e  *Engine
	fn Handler
	id EventID
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func (e *Engine) NewTimer(fn Handler) *Timer {
	if fn == nil {
		panic("sim: nil timer handler")
	}
	return &Timer{e: e, fn: fn}
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.e.Armed(t.id) }

// ScheduleAt (re)schedules the timer to fire at the absolute instant at,
// canceling any pending firing first.
func (t *Timer) ScheduleAt(at Time) {
	t.e.Cancel(t.id)
	t.id = t.e.At(at, t.fn)
}

// ScheduleAfter (re)schedules the timer to fire d after the current
// instant, canceling any pending firing first.
func (t *Timer) ScheduleAfter(d Duration) { t.ScheduleAt(t.e.now.Add(d)) }

// Stop cancels the pending firing, if any, and reports whether one was
// descheduled.
func (t *Timer) Stop() bool { return t.e.Cancel(t.id) }
