package sim

import (
	"sort"
	"testing"
)

// Differential tests: the two-tier queue (sorted near run in front of the
// 4-ary arena heap) must fire events in exactly the order a naive reference queue (a sorted slice over (at, seq))
// produces, under randomized schedule/cancel/reschedule workloads. This
// pins the determinism contract the simulated metrics depend on.

// refQueue is the obviously-correct reference: a slice kept sorted by
// (at, seq), with physical removal on cancel.
type refQueue struct {
	events []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (q *refQueue) schedule(at Time, seq uint64, id int) {
	q.events = append(q.events, refEvent{at: at, seq: seq, id: id})
	sort.Slice(q.events, func(i, j int) bool {
		if q.events[i].at != q.events[j].at {
			return q.events[i].at < q.events[j].at
		}
		return q.events[i].seq < q.events[j].seq
	})
}

func (q *refQueue) cancel(id int) bool {
	for i, ev := range q.events {
		if ev.id == id {
			q.events = append(q.events[:i], q.events[i+1:]...)
			return true
		}
	}
	return false
}

func (q *refQueue) drainOrder() []int {
	var order []int
	for _, ev := range q.events {
		order = append(order, ev.id)
	}
	q.events = nil
	return order
}

// popThrough removes and returns the ids of all events with at <= deadline.
func (q *refQueue) popThrough(deadline Time) []int {
	var order []int
	i := 0
	for ; i < len(q.events) && q.events[i].at <= deadline; i++ {
		order = append(order, q.events[i].id)
	}
	q.events = q.events[i:]
	return order
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueueDifferentialDrain drives random schedule/cancel workloads into
// the engine and the reference queue, then drains both and compares the
// exact firing order.
func TestQueueDifferentialDrain(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		e := NewEngine()
		ref := &refQueue{}

		var got []int
		ids := make(map[int]EventID) // live engine events by test id
		var live []int
		nextID := 0

		ops := 200 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			switch {
			case len(live) > 0 && rng.Intn(4) == 0: // cancel a live event
				k := rng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				engOK := e.Cancel(ids[id])
				refOK := ref.cancel(id)
				if engOK != refOK {
					t.Fatalf("seed %d: cancel(%d) engine=%v ref=%v", seed, id, engOK, refOK)
				}
				delete(ids, id)
			default: // schedule; deliberate tie-heavy time distribution
				at := Time(rng.Intn(50))
				id := nextID
				nextID++
				seq := e.nextSeq
				id2 := id
				ids[id] = e.At(at, func(*Engine) { got = append(got, id2) })
				ref.schedule(at, seq, id)
				live = append(live, id)
			}
		}
		e.Run()
		want := ref.drainOrder()
		if !intsEqual(got, want) {
			t.Fatalf("seed %d: firing order diverged\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestQueueDifferentialInterleaved interleaves partial draining (RunUntil
// at increasing deadlines) with further scheduling and cancellation, so
// removal and refill churn the heap mid-run.
func TestQueueDifferentialInterleaved(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed ^ 0xa5a5)
		e := NewEngine()
		ref := &refQueue{}

		var got []int
		ids := make(map[int]EventID)
		var live []int
		nextID := 0
		now := Time(0)

		for round := 0; round < 20; round++ {
			n := 1 + rng.Intn(30)
			for i := 0; i < n; i++ {
				switch {
				case len(live) > 0 && rng.Intn(3) == 0:
					k := rng.Intn(len(live))
					id := live[k]
					live = append(live[:k], live[k+1:]...)
					if e.Cancel(ids[id]) != ref.cancel(id) {
						t.Fatalf("seed %d: cancel(%d) diverged", seed, id)
					}
					delete(ids, id)
				default:
					at := now + Time(rng.Intn(40))
					id := nextID
					nextID++
					seq := e.nextSeq
					id2 := id
					ids[id] = e.At(at, func(*Engine) { got = append(got, id2) })
					ref.schedule(at, seq, id)
					live = append(live, id)
				}
			}
			now += Time(10 + rng.Intn(20))
			got = got[:0]
			e.RunUntil(now)
			want := ref.popThrough(now)
			if !intsEqual(got, want) {
				t.Fatalf("seed %d round %d: firing order diverged\n got %v\nwant %v", seed, round, got, want)
			}
			for _, id := range want {
				delete(ids, id)
				for k, v := range live {
					if v == id {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
			}
		}
	}
}

// armed reports whether id still names a scheduled event: its slot holds
// the same generation and is not on the free list.
func armed(e *Engine, id EventID) bool {
	if id.slot == 0 {
		return false
	}
	ev := &e.arena[id.slot-1]
	return ev.gen == id.gen && ev.heapPos != posFree
}

// TestTimerRescheduleMatchesCancelPlusSchedule pins what re-arming a
// recurring event (a handler bound once plus its EventID) means: the
// pending firing is canceled and a fresh one scheduled, with a fresh seq,
// so it loses ties against events scheduled before the re-arm.
func TestTimerRescheduleMatchesCancelPlusSchedule(t *testing.T) {
	var order []string
	e := NewEngine()
	fn := func(*Engine) { order = append(order, "timer") }
	id := e.At(10, fn)
	e.At(20, func(*Engine) { order = append(order, "a") })
	e.Cancel(id) // the firing at 10 goes; the new one's seq is after "a"
	id = e.At(20, fn)
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "timer" {
		t.Fatalf("order = %v, want [a timer]", order)
	}
	if armed(e, id) {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStopAndRearm(t *testing.T) {
	fired := 0
	e := NewEngine()
	fn := func(*Engine) { fired++ }
	id := e.After(5, fn)
	if !armed(e, id) {
		t.Fatal("timer not armed after schedule")
	}
	if !e.Cancel(id) {
		t.Fatal("Cancel of an armed timer reported nothing to do")
	}
	if e.Cancel(id) || armed(e, id) {
		t.Fatal("a canceled timer's ID still descheduled or read armed")
	}
	e.Run()
	if fired != 0 {
		t.Fatalf("canceled timer fired %d times", fired)
	}
	id = e.After(5, fn)
	e.Run()
	if fired != 1 || armed(e, id) {
		t.Fatalf("rearmed timer fired %d times (armed after: %v), want 1", fired, armed(e, id))
	}
}

// TestEventIDStaleAcrossSlotReuse pins the generation stamping: an ID for
// a fired event must stay inert even after its arena slot is recycled by
// a new event.
func TestEventIDStaleAcrossSlotReuse(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func(*Engine) {})
	e.Run()
	fired := false
	e.At(2, func(*Engine) { fired = true }) // recycles the freed slot
	if e.Cancel(stale) {
		t.Fatal("stale EventID canceled a recycled slot's event")
	}
	e.Run()
	if !fired {
		t.Fatal("second event did not fire")
	}
}

// TestMassCancelShrinksQueue pins the tombstone-free property: canceling
// physically removes, so Pending drops immediately (the FM retry layer
// cancels timeouts en masse between runs).
func TestMassCancelShrinksQueue(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for i := 0; i < 1000; i++ {
		ids = append(ids, e.At(Time(i+1), func(*Engine) {}))
	}
	for _, id := range ids[:900] {
		if !e.Cancel(id) {
			t.Fatal("cancel of live event failed")
		}
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending after mass cancel = %d, want 100", got)
	}
	fired := 0
	e.At(2000, func(*Engine) { fired++ })
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
	if fired != 1 {
		t.Fatal("post-cancel scheduling broken")
	}
}

// diffQueue drives an engine and the reference in lockstep. After every
// operation it compares what fired, Pending and MaxPending with the
// reference, and checks the two tiers' invariant from the inside.
type diffQueue struct {
	t    testing.TB
	e    *Engine
	ref  refQueue
	ids  map[int]EventID
	got  []int
	next int
	max  int
}

func newDiffQueue(t testing.TB) *diffQueue {
	return &diffQueue{t: t, e: NewEngine(), ids: map[int]EventID{}}
}

// schedule queues an event delta after now in both queues and returns its
// test id.
func (d *diffQueue) schedule(delta Duration) int {
	id := d.next
	d.next++
	at := d.e.Now().Add(delta)
	d.ref.schedule(at, d.e.nextSeq, id)
	d.ids[id] = d.e.At(at, func(*Engine) { d.got = append(d.got, id) })
	d.check()
	return id
}

func (d *diffQueue) cancel(id int) {
	d.t.Helper()
	if eng, ref := d.e.Cancel(d.ids[id]), d.ref.cancel(id); eng != ref {
		d.t.Fatalf("cancel(%d): engine=%v ref=%v", id, eng, ref)
	}
	d.check()
}

func (d *diffQueue) step() {
	d.t.Helper()
	var want []int
	if len(d.ref.events) > 0 {
		want = []int{d.ref.events[0].id}
		d.ref.events = d.ref.events[1:]
	}
	d.got = d.got[:0]
	if fired := d.e.Step(); fired != (len(want) == 1) || !intsEqual(d.got, want) {
		d.t.Fatalf("Step fired %v %v, want %v", fired, d.got, want)
	}
	d.check()
}

// runUntil drains through the deadline. Handlers here never schedule, so
// the reference's prefix is the whole expectation.
func (d *diffQueue) runUntil(deadline Time) {
	d.t.Helper()
	want := d.ref.popThrough(deadline)
	d.got = d.got[:0]
	if now := d.e.RunUntil(deadline); now != deadline && deadline != Never {
		d.t.Fatalf("RunUntil(%v) left the clock at %v", deadline, now)
	}
	if !intsEqual(d.got, want) {
		d.t.Fatalf("RunUntil(%v) fired %v, want %v", deadline, d.got, want)
	}
	d.check()
}

func (d *diffQueue) check() {
	d.t.Helper()
	if n := len(d.ref.events); n > d.max {
		d.max = n
	}
	if d.e.Pending() != len(d.ref.events) || d.e.MaxPending != d.max {
		d.t.Fatalf("Pending %d MaxPending %d, reference %d and %d",
			d.e.Pending(), d.e.MaxPending, len(d.ref.events), d.max)
	}
	checkTiers(d.t, d.e)
}

// checkTiers verifies the queue's structure: near strictly descending by
// (at, seq), every near key below the far top, the far heap ordered, and
// every queued slot's heapPos naming where it is.
func checkTiers(t testing.TB, e *Engine) {
	t.Helper()
	for i := 0; i < e.nearLen; i++ {
		n := e.near[i]
		ev := &e.arena[n.idx]
		if ev.at != n.at || ev.seq != n.seq || ev.heapPos != posNear {
			t.Fatalf("near[%d] = %+v does not mirror its slot (at %v seq %d pos %d)", i, n, ev.at, ev.seq, ev.heapPos)
		}
		if i > 0 && !e.less(n.idx, e.near[i-1].idx) {
			t.Fatalf("near[%d] does not order before near[%d]", i, i-1)
		}
	}
	for pos, idx := range e.heap {
		if e.arena[idx].heapPos != int32(pos) {
			t.Fatalf("heap[%d]: slot says position %d", pos, e.arena[idx].heapPos)
		}
		if pos > 0 && e.less(idx, e.heap[(pos-1)>>2]) {
			t.Fatalf("heap[%d] orders before its parent", pos)
		}
	}
	if e.nearLen > 0 && len(e.heap) > 0 && !e.less(e.near[0].idx, e.heap[0]) {
		t.Fatal("the near run's maximum does not order before the far top")
	}
}

// TestQueueSpillAtCapacity schedules ever earlier events: each enters the
// near run, and once the run is full each pushes the run's maximum out.
func TestQueueSpillAtCapacity(t *testing.T) {
	d := newDiffQueue(t)
	const extra = 10
	for i := 0; i < nearCap+extra; i++ {
		d.schedule(Duration(1000 - i))
	}
	if d.e.nearLen != nearCap || len(d.e.heap) != extra || d.e.FarPushes != extra {
		t.Fatalf("near %d far %d pushes %d, want %d %d %d", d.e.nearLen, len(d.e.heap), d.e.FarPushes, nearCap, extra, extra)
	}
	// Later than the whole full run but earlier than the far top: the new
	// event is itself the spill.
	d.schedule(1000 - extra)
	if d.e.nearLen != nearCap || d.e.FarPushes != extra+1 {
		t.Fatalf("near %d pushes %d after an event between the tiers", d.e.nearLen, d.e.FarPushes)
	}
	d.runUntil(Never)
}

// TestQueueRefillFromHeap schedules in firing order, so everything past
// the capacity goes to the heap, then drains one event at a time across
// several refills.
func TestQueueRefillFromHeap(t *testing.T) {
	d := newDiffQueue(t)
	for i := 0; i < 3*nearCap; i++ {
		d.schedule(Duration(i / 3)) // runs of equal instants
	}
	if d.e.nearLen != nearCap || len(d.e.heap) != 2*nearCap {
		t.Fatalf("near %d far %d, want %d %d", d.e.nearLen, len(d.e.heap), nearCap, 2*nearCap)
	}
	for i := 0; i < nearCap; i++ {
		d.step()
	}
	if d.e.nearLen != 0 {
		t.Fatalf("near %d after draining it", d.e.nearLen)
	}
	d.step()
	if d.e.nearLen != nearCap/2-1 || len(d.e.heap) != 2*nearCap-nearCap/2 {
		t.Fatalf("near %d far %d after the first refill", d.e.nearLen, len(d.e.heap))
	}
	for d.e.Pending() > 0 {
		d.step()
	}
	d.step() // empty: fires nothing
}

// TestQueueCancelEachTier cancels the run's minimum, its maximum, an
// interior entry, the far top and a far leaf, then every other survivor.
func TestQueueCancelEachTier(t *testing.T) {
	d := newDiffQueue(t)
	var ids []int
	for i := 0; i < 2*nearCap; i++ {
		ids = append(ids, d.schedule(Duration(i/2)))
	}
	for _, k := range []int{0, nearCap - 1, nearCap / 2, nearCap, 2*nearCap - 1} {
		d.cancel(ids[k])
		d.cancel(ids[k]) // stale now: a no-op on both sides
	}
	for k := 1; k < len(ids); k += 2 {
		d.cancel(ids[k])
	}
	d.schedule(0) // reuses a canceled slot at the very front
	d.runUntil(Never)
}

// TestQueueTiesStraddleTiers holds one instant in both tiers at once:
// events of that instant must still fire in schedule order, whichever
// tier each went through and whenever it was spilled.
func TestQueueTiesStraddleTiers(t *testing.T) {
	d := newDiffQueue(t)
	for i := 0; i < nearCap+8; i++ {
		d.schedule(10) // the last 8 go far
	}
	for i := 0; i < 4; i++ {
		d.schedule(9)  // near; spills an instant-10 event that precedes all far ones
		d.schedule(10) // ties the far top: far
		d.schedule(11)
	}
	for i := 0; i < nearCap; i++ {
		d.step()
	}
	d.schedule(10 - Duration(d.e.Now())) // same instant again, mid-drain
	d.runUntil(Never)
}

// TestQueueRunUntilBetweenTiers stops at deadlines no event has: below the
// run's minimum, between the tiers, and past everything.
func TestQueueRunUntilBetweenTiers(t *testing.T) {
	d := newDiffQueue(t)
	for i := 0; i < nearCap; i++ {
		d.schedule(Duration(10 + i))
	}
	for i := 0; i < nearCap; i++ {
		d.schedule(Duration(1000 + i))
	}
	d.runUntil(5)
	d.runUntil(500) // drains the run, refills it, fires none of the refill
	if d.e.Pending() != nearCap {
		t.Fatalf("Pending %d after a deadline between the tiers, want %d", d.e.Pending(), nearCap)
	}
	d.schedule(100) // earlier than the refilled run
	d.runUntil(1000 + nearCap/2)
	d.runUntil(5000)
	if d.e.Pending() != 0 {
		t.Fatalf("Pending %d after the last deadline", d.e.Pending())
	}
}

// TestTimerRearmInsideHandlerNearFull rearms a timer (a handler bound once
// plus its EventID) from its own handler at the moment the near run is
// full again, so the rearm spills; the firing order must match
// cancel-plus-schedule on the reference.
func TestTimerRearmInsideHandlerNearFull(t *testing.T) {
	d := newDiffQueue(t)
	const timerID = -1
	var id EventID
	var fn Handler
	rearm := func(delta Duration) {
		d.ref.cancel(timerID)
		d.ref.schedule(d.e.Now().Add(delta), d.e.nextSeq, timerID)
		d.e.Cancel(id)
		id = d.e.After(delta, fn)
		d.check()
	}
	fires := 0
	fn = func(*Engine) {
		d.got = append(d.got, timerID)
		if fires++; fires > 6 {
			return
		}
		d.schedule(3)              // takes the fired slot's place: full again
		rearm(20)                  // lands inside the run: spills its maximum
		rearm(Duration(2 * fires)) // rearmed while armed, still inside the handler
	}
	for i := 0; i < nearCap-1; i++ {
		d.schedule(Duration(5 + i))
	}
	for i := 0; i < 8; i++ {
		d.schedule(Duration(200 + i))
	}
	rearm(1)
	if d.e.nearLen != nearCap {
		t.Fatalf("near %d before the run, want it full", d.e.nearLen)
	}
	pushes := d.e.FarPushes
	for d.e.Pending() > 0 {
		d.step()
	}
	if fires != 7 || d.e.FarPushes == pushes {
		t.Fatalf("timer fired %d times with %d spills; the case measures nothing", fires, d.e.FarPushes-pushes)
	}
}

// FuzzQueueOrder replays an arbitrary stream of schedule / cancel / step /
// run-until operations against the reference. Two bytes per operation;
// small deltas make ties and front insertions common, and a long enough
// stream fills the near run and works both tiers.
func FuzzQueueOrder(f *testing.F) {
	var deep, mixed []byte
	for i := 0; i < 3*nearCap; i++ {
		deep = append(deep, 0, byte(i*7))
		mixed = append(mixed, byte(i), byte(i*13))
	}
	for i := 0; i < 3*nearCap; i++ {
		deep = append(deep, byte(4+i%3), byte(i*5))
	}
	f.Add(deep)
	f.Add(mixed)
	f.Add([]byte{0, 3, 0, 3, 7, 0, 4, 1, 5, 0, 6, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		d := newDiffQueue(t)
		var live []int
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, int(ops[i+1])
			switch {
			case op < 3:
				live = append(live, d.schedule(Duration(arg%16)))
			case op == 3:
				live = append(live, d.schedule(Duration(arg)*8))
			case op == 4 && len(live) > 0: // may already have fired: then a no-op on both sides
				k := arg % len(live)
				d.cancel(live[k])
				live = append(live[:k], live[k+1:]...)
			case op == 5:
				d.step()
			case op == 6:
				d.runUntil(d.e.Now().Add(Duration(arg % 32)))
			case op == 7:
				d.runUntil(d.e.Now().Add(Duration(arg) * 8))
			}
		}
		d.runUntil(Never)
	})
}
