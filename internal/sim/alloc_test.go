package sim

import (
	"testing"
	"unsafe"
)

// Zero-allocation regression tests: the engine's steady-state hot path —
// scheduling into a warmed arena, firing, canceling, timer reuse — must
// not allocate. A regression here silently reintroduces per-event garbage
// across every simulation in the repository.

// Each steady-state pin runs at two depths: within the near run's capacity,
// and with several times more pending than it holds, so that spilling the
// run's maximum, far pushes, refills and far cancels are all inside the pin.
var pinDepths = []struct {
	name  string
	batch int
}{{"near", nearCap}, {"spill-refill", 4 * nearCap}}

func TestSteadyStateScheduleFireZeroAlloc(t *testing.T) {
	for _, d := range pinDepths {
		t.Run(d.name, func(t *testing.T) {
			e := NewEngine()
			fn := func(*Engine) {}
			// Warm the arena and heap past their steady-state size.
			for i := 0; i < 2*d.batch; i++ {
				e.After(Duration(i%17), fn)
			}
			e.Run()
			pushes := e.FarPushes
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < d.batch; i++ {
					e.After(Duration((d.batch-i)%67), fn) // mostly ever earlier: a full run spills
				}
				e.Run()
			})
			if allocs != 0 {
				t.Errorf("steady-state schedule/fire allocates %.1f per run, want 0", allocs)
			}
			if spilled := e.FarPushes > pushes; spilled != (d.batch > nearCap) {
				t.Errorf("far pushes moved: %v at batch %d", spilled, d.batch)
			}
		})
	}
}

func TestSteadyStateCancelZeroAlloc(t *testing.T) {
	for _, d := range pinDepths {
		t.Run(d.name, func(t *testing.T) {
			e := NewEngine()
			fn := func(*Engine) {}
			for i := 0; i < 2*d.batch; i++ {
				e.After(Duration(i%17), fn)
			}
			e.Run()
			ids := make([]EventID, d.batch)
			allocs := testing.AllocsPerRun(200, func() {
				for i := range ids {
					ids[i] = e.After(Duration(i%13+1), fn)
				}
				for _, id := range ids { // oldest first: near entries, then far ones
					e.Cancel(id)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state schedule/cancel allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

func TestTimerRescheduleZeroAlloc(t *testing.T) {
	for _, d := range pinDepths {
		t.Run(d.name, func(t *testing.T) {
			e := NewEngine()
			fn := func(*Engine) {}
			var id EventID
			rearm := func(after Duration) {
				e.Cancel(id)
				id = e.After(after, fn)
			}
			cycle := func() {
				for i := nearCap; i < d.batch; i++ { // none at the first depth
					e.After(Duration(10+i), fn)
				}
				rearm(1) // earliest of all: spills when the run is full
				rearm(2) // reschedule while armed
				e.Run()
			}
			cycle()
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Errorf("timer reuse allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestNearRunAllocBudget pins where the near run lives: inside the
// Engine, at its capacity. A fresh engine taking nearCap events allocates
// itself plus exactly what growing the arena and the free list costs,
// nothing per growth step of the run.
func TestNearRunAllocBudget(t *testing.T) {
	fn := func(*Engine) {}
	growth := testing.AllocsPerRun(20, func() {
		var arena []event
		var free []int32
		for i := 0; i < nearCap; i++ {
			arena = append(arena, event{})
		}
		for i := 0; i < nearCap; i++ {
			free = append(free, int32(i))
		}
		sinkArena, sinkFree = arena, free
	})
	got := testing.AllocsPerRun(20, func() {
		e := NewEngine()
		for i := 0; i < nearCap; i++ {
			e.After(Duration(nearCap-i), fn)
		}
		e.Run()
		sinkEngine = e
	})
	if got != growth+1 {
		t.Errorf("a fresh engine and %d events allocate %.0f, want %.0f (arena and free-list growth) + 1 (the engine)", nearCap, got, growth)
	}
}

var (
	sinkArena  []event
	sinkFree   []int32
	sinkEngine *Engine
)

// TestRecordSizes pins the arena's event record at 48 bytes: one
// callback and its argument, At and After included, since they schedule
// the Handler as the argument of a package trampoline.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 48 {
		t.Fatalf("sizeof(event) = %d, want 48", n)
	}
}

// TestAtAfterZeroAlloc pins the trampoline: At and After box a
// pre-bound Handler into the event's argument without allocating.
func TestAtAfterZeroAlloc(t *testing.T) {
	e := NewEngine()
	sink := 0
	var fn Handler = func(*Engine) { sink++ }
	e.After(1, fn)
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			e.At(e.Now().Add(Duration(i+1)), fn)
			e.After(Duration(i+1), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("At/After with a pre-bound Handler allocate %.1f per run, want 0", allocs)
	}
	if sink != 1+16*201 {
		t.Errorf("handler ran %d times, want %d", sink, 1+16*201)
	}
}

func TestAfterArgZeroAlloc(t *testing.T) {
	type payload struct{ n int }
	e := NewEngine()
	sink := 0
	fn := func(_ *Engine, arg any) { sink += arg.(*payload).n }
	p := &payload{n: 1}
	e.AfterArg(1, fn, p)
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			e.AfterArg(Duration(i+1), fn, p)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("AfterArg with pointer arg allocates %.1f per run, want 0", allocs)
	}
}
