package sim

import "testing"

// Microbenchmarks for the event-queue hot path. Each reports events/sec so
// BENCH_sim.json captures engine throughput directly, alongside the ns/op
// and allocs/op the acceptance gates track.

// BenchmarkScheduleFire measures the steady-state schedule-then-drain
// cycle: the dominant pattern in packet simulations.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func(*Engine) {}
	const batch = 1024
	for i := 0; i < batch; i++ { // warm the arena
		e.After(Duration(i%97), fn)
	}
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			e.After(Duration(j%97), fn)
		}
		e.Run()
	}
	b.StopTimer()
	reportEventsPerSec(b, batch)
}

// BenchmarkScheduleCancel measures schedule immediately followed by
// physical cancellation — the FM retry layer's pattern.
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func(*Engine) {}
	const batch = 1024
	ids := make([]EventID, batch)
	for i := 0; i < batch; i++ {
		e.After(Duration(i%97+1), fn)
	}
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			ids[j] = e.After(Duration(j%97+1), fn)
		}
		for j := batch - 1; j >= 0; j-- {
			e.Cancel(ids[j])
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, batch)
}

// BenchmarkRearm measures re-arming a recurring event, a handler bound
// once plus its EventID, as the FM's assimilation debounce does: Cancel
// of the ID, then a fresh After.
func BenchmarkRearm(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func(*Engine) {}
	id := e.After(1, fn)
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(id)
		id = e.After(1, fn)
		e.Cancel(id)
		id = e.After(2, fn)
		e.Run()
	}
	b.StopTimer()
	reportEventsPerSec(b, 1)
}

// BenchmarkChurn mixes scheduling, cancellation and firing with handlers
// that schedule follow-ups, approximating a live fabric's queue dynamics.
func BenchmarkChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := NewRNG(1)
	var chain Handler
	depth := 0
	chain = func(e *Engine) {
		if depth++; depth%3 != 0 {
			e.After(Duration(rng.Intn(50)+1), chain)
		}
	}
	const batch = 512
	ids := make([]EventID, 0, batch)
	for i := 0; i < batch; i++ {
		e.After(Duration(rng.Intn(100)+1), chain)
	}
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = ids[:0]
		for j := 0; j < batch; j++ {
			ids = append(ids, e.After(Duration(rng.Intn(100)+1), chain))
		}
		for j := 0; j < batch/4; j++ {
			e.Cancel(ids[rng.Intn(batch)])
		}
		e.Run()
	}
	b.StopTimer()
	reportEventsPerSec(b, 0)
}

// BenchmarkQueueProfile holds the queue at a fixed depth under the four
// insertion patterns the two tiers are built around; every fired event
// schedules its successor, so one op is one pop plus one push.
//
//   - front-heavy: the rank mix measured on the bench workloads, at its
//     conservative end — 38 % of schedules are the very next event to fire
//     (measured: 40-60 %) and the mean insertion rank is 6 (measured: 5-10;
//     TestQueueProfileRankMix pins the mix) — at the pending depth of the
//     Table 1 fabrics (20) and at 1000, where the rest is long timeouts
//     that stay in the heap.
//   - uniform-1024: the classic hold model, mean rank n/2: nearly every
//     push goes to the heap and every pop comes out of a refill.
//   - cancel-storm: the FM retry layer — each op arms a far timeout,
//     fires one near event and cancels the timeout armed 256 ops ago.
func BenchmarkQueueProfile(b *testing.B) {
	b.Run("front-heavy-20", func(b *testing.B) { benchHold(b, frontHeavy(15, 5)) })
	b.Run("front-heavy-1000", func(b *testing.B) { benchHold(b, frontHeavy(15, 985)) })
	b.Run("uniform-1024", func(b *testing.B) {
		e := NewEngine()
		rng := NewRNG(1)
		var deltas [1024]Duration
		for i := range deltas {
			deltas[i] = Duration(rng.Intn(1 << 20))
		}
		k := 0
		var hold Handler
		hold = func(e *Engine) { k++; e.After(deltas[k&1023], hold) }
		for i := 0; i < 1024; i++ {
			e.After(deltas[i], hold)
		}
		benchHold(b, e)
	})
	b.Run("cancel-storm", func(b *testing.B) {
		e := NewEngine()
		var ring [256]EventID
		timeout := func(*Engine) {}
		k := 0
		var tick Handler
		tick = func(e *Engine) {
			e.Cancel(ring[k&255])
			ring[k&255] = e.After(Duration(100000+k&63), timeout)
			k++
			e.After(Duration(1+k&7), tick)
		}
		for i := 0; i < 4; i++ {
			e.After(Duration(i), tick)
		}
		benchHold(b, e)
	})
}

// frontHeavy builds an engine holding front short chains and back long
// ones. A short chain's next delta is 0 on 35 % of its firings and uniform
// on [1, 2000] otherwise; a long chain rearms far behind all of them.
func frontHeavy(front, back int) *Engine {
	e := NewEngine()
	rng := NewRNG(1)
	var deltas [1024]Duration
	for i := range deltas {
		if rng.Intn(100) >= 35 {
			deltas[i] = Duration(1 + rng.Intn(2000))
		}
	}
	k := 0
	var short, long Handler
	short = func(e *Engine) { k++; e.After(deltas[k&1023], short) }
	long = func(e *Engine) { k++; e.After(1_000_000+1000*deltas[k&1023], long) }
	for i := 0; i < front; i++ {
		e.After(deltas[i], short)
	}
	for i := 0; i < back; i++ {
		e.After(Duration(1_000_000+rng.Intn(2_000_000)), long)
	}
	return e
}

// benchHold fires holdBatch events per op on an engine whose handlers keep
// the queue populated.
func benchHold(b *testing.B, e *Engine) {
	const holdBatch = 4096
	b.ReportAllocs()
	for i := 0; i < 4*holdBatch; i++ { // reach the steady state, warm the arena
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < holdBatch; j++ {
			e.Step()
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, holdBatch)
}

// reportEventsPerSec derives throughput from the engine-independent
// counters: perOp > 0 means a fixed number of scheduled events per
// iteration; 0 derives the count from b.N-scaled elapsed totals via the
// benchmark's own processed tally being unavailable, so callers pass the
// per-iteration event count whenever it is static.
func reportEventsPerSec(b *testing.B, perOp int) {
	if perOp <= 0 {
		return
	}
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(float64(b.N)*float64(perOp)/secs, "events/s")
}

// BenchmarkEngineScheduleRun is the historical whole-engine benchmark:
// cold engine, 1000 events, drain. Kept for baseline comparability.
func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func(*Engine) {})
		}
		e.Run()
	}
}

// TestQueueProfileRankMix pins what "front-heavy" means: the insertion
// rank (pending events that fire before the new one) of the generator
// stays at the conservative end of the mix measured on the bench workloads
// (EXPERIMENTS.md "The simulator") — rank 0 on 30-42 %, mean 4.5-7.5 —
// at both depths.
func TestQueueProfileRankMix(t *testing.T) {
	for _, back := range []int{5, 985} {
		e := frontHeavy(15, back)
		const steps = 20000
		zero, sum := 0, 0
		for i := 0; i < steps; i++ {
			e.Step() // fires one event, which schedules exactly one
			var newest int32
			for idx := range e.arena {
				if ev := &e.arena[idx]; ev.heapPos != posFree && ev.seq == e.nextSeq-1 {
					newest = int32(idx)
				}
			}
			rank := 0
			for idx := range e.arena {
				if e.arena[idx].heapPos != posFree && e.less(int32(idx), newest) {
					rank++
				}
			}
			if sum += rank; rank == 0 {
				zero++
			}
		}
		share, mean := float64(zero)/steps, float64(sum)/steps
		if share < 0.30 || share > 0.42 || mean < 4.5 || mean > 7.5 {
			t.Errorf("%d pending: rank 0 on %.1f %% of schedules, mean rank %.2f; want 30-42 %% and 4.5-7.5", 15+back, 100*share, mean)
		}
		t.Logf("%d pending: rank 0 %.1f %%, mean rank %.2f, far pushes %.2f %%", 15+back, 100*share, mean, 100*float64(e.FarPushes)/float64(e.Scheduled))
	}
}
