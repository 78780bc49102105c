package sim

import "testing"

func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if got := r.At(0); got != i {
			t.Fatalf("At(0) = %d, want %d", got, i)
		}
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

func TestRingWrapAround(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	// Interleave pushes and pops so head walks around the buffer many
	// times at a depth that never forces a regrow after warmup.
	for i := 0; i < 1000; i++ {
		for j := 0; j < 3; j++ {
			r.Push(next)
			next++
		}
		for j := 0; j < 3; j++ {
			if got := r.Pop(); got != expect {
				t.Fatalf("Pop = %d, want %d", got, expect)
			}
			expect++
		}
	}
	if len(r.buf) > 8 {
		t.Errorf("buffer grew to %d for depth-3 traffic, want <= 8", len(r.buf))
	}
}

func TestRingSteadyStateZeroAlloc(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 16; i++ {
		r.Push(i)
	}
	r.Clear()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			r.Push(i)
		}
		for i := 0; i < 8; i++ {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ring traffic allocates %.1f per run, want 0", allocs)
	}
}

func TestRingClearReleasesAndReuses(t *testing.T) {
	var r Ring[*int]
	v := 7
	for i := 0; i < 5; i++ {
		r.Push(&v)
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len after Clear = %d", r.Len())
	}
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("Clear left a stored reference behind")
		}
	}
	r.Push(&v)
	if r.Len() != 1 || r.Pop() != &v {
		t.Fatal("ring unusable after Clear")
	}
}

func TestRingAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	var r Ring[int]
	r.Push(1)
	r.At(1)
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop of empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.Pop()
}

// TestRingDifferential drives a ring and a plain slice through the same
// random Push/Pop/At/Clear sequence, checking every observable after
// every step. Depths cross the 2, 4, 8 and 16-slot growth steps with the
// head anywhere in the buffer, so re-linearization is exercised at each.
func TestRingDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		var r Ring[int]
		var ref []int
		next := 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(100); {
			case op < 50 && len(ref) < 24:
				r.Push(next)
				ref = append(ref, next)
				next++
			case op < 95 && len(ref) > 0:
				if got := r.Pop(); got != ref[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, ref[0])
				}
				ref = ref[1:]
			case op >= 98:
				r.Clear()
				ref = ref[:0]
			}
			if r.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, r.Len(), len(ref))
			}
			for i, want := range ref {
				if got := r.At(i); got != want {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, i, got, want)
				}
			}
			if n := len(r.buf); n&(n-1) != 0 {
				t.Fatalf("seed %d step %d: buffer size %d is not a power of two", seed, step, n)
			}
		}
	}
}

// TestRingFirstPushIsSmall pins the minimum: a ring that only ever holds
// one element must not pay for eight.
func TestRingFirstPushIsSmall(t *testing.T) {
	var r Ring[int]
	r.Push(1)
	if len(r.buf) > 2 {
		t.Errorf("first push sized the buffer to %d slots, want <= 2", len(r.buf))
	}
}
