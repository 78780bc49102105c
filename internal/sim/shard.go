package sim

import (
	"fmt"
	"sync"
)

// ShardGroup coordinates several Engines as one conservative parallel
// simulation. Each engine owns a disjoint region of the model; the only
// inter-region interaction is a message handoff with a known minimum
// latency (the lookahead), posted through Post and delivered at barrier
// points between rounds.
//
// The protocol is barrier-round conservative synchronization (in the
// bounded-lag family). Each round the coordinator reads every region's
// earliest pending event time N_i and computes a safe execution horizon
// per region:
//
//	limit_i = min over regions r != i of  N_r + dist(r,i)*L
//
// capped at the caller's deadline, where L is the lookahead and dist is
// the region-graph hop distance (every hop costs at least L). Any message
// a region r emits this round is sent while executing an event at some
// time t >= N_r, and reaches region i — directly or relayed — no earlier
// than t + dist(r,i)*L >= limit_i, so deliveries at the barrier are
// always in the receiver's future. Regions that could also be bitten by
// their *own* messages reflecting off a neighbour are additionally capped
// at N_i + 2*dmin_i*L when several regions run concurrently; when exactly
// one region is active it runs inline on the coordinator and its horizon
// tightens dynamically as it posts (to posted-arrival + return distance),
// which lets long serial stretches execute at full speed instead of
// being chopped into lookahead-sized windows.
//
// Deadlock-freedom: every round the region holding the globally earliest
// event is active (its limit is at least min2 + L > N_argmin, and its
// reflexive bound N + 2*dmin*L is strictly above N because L >= 1), so
// at least one event fires per round and simulated time advances.
//
// Determinism: each engine is sequentially deterministic, horizons are
// computed from queue state alone, and outboxes drain in a fixed
// (destination, source, FIFO) order at each barrier — so a run's results
// depend only on the region count, never on goroutine scheduling.
//
// The coordinator (the goroutine calling Run/RunUntil) and the per-region
// workers it spawns are the only goroutines that touch the group; Stop on
// a member engine mid-round is not supported.
type ShardGroup struct {
	engines   []*Engine
	lookahead Duration
	dist      [][]int32 // region-graph hop distance, dist[i][i] = 0
	dmin      []int32   // nearest-neighbour distance per region
	outbox    [][][]crossMsg
	rngs      []*RNG

	// single-active-round state: while region dynIdx runs inline, each
	// Post it makes may pull dynLimit in.
	dynIdx   int
	dynLimit Time

	next   []Time
	limits []Time
	active []int32

	Rounds uint64 // barrier rounds executed
	Inline uint64 // rounds with exactly one active region, run inline
	Stalls uint64 // region-rounds where pending work waited on lookahead
	Cross  uint64 // cross-region messages delivered
}

// crossMsg is one cross-region event handoff, buffered in a per-(src,dst)
// outbox until the barrier ending the round that produced it.
type crossMsg struct {
	at  Time
	fn  ArgHandler
	arg any
}

// NewShardGroup builds a group of n fresh engines with the given
// lookahead. Lookahead is clamped to at least one picosecond: a
// zero-lookahead model admits no conservative parallelism.
func NewShardGroup(n int, lookahead Duration) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShardGroup with %d regions", n))
	}
	g := &ShardGroup{
		engines: make([]*Engine, n),
		dist:    make([][]int32, n),
		dmin:    make([]int32, n),
		outbox:  make([][][]crossMsg, n),
		rngs:    make([]*RNG, n),
		dynIdx:  -1,
		next:    make([]Time, n),
		limits:  make([]Time, n),
		active:  make([]int32, 0, n),
	}
	g.SetLookahead(lookahead)
	for i := range g.engines {
		g.engines[i] = NewEngine()
		g.outbox[i] = make([][]crossMsg, n)
		g.dist[i] = make([]int32, n)
		for j := range g.dist[i] {
			if j != i {
				g.dist[i][j] = 1
			}
		}
		g.dmin[i] = 1
	}
	return g
}

// Shards returns the number of regions.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Engine returns region i's engine. All model state belonging to region i
// must schedule exclusively on it.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// SetLookahead sets the minimum cross-region message latency, clamped to
// at least one picosecond.
func (g *ShardGroup) SetLookahead(d Duration) {
	if d < 1 {
		d = 1
	}
	g.lookahead = d
}

// Lookahead reports the group's cross-region lookahead.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// SetDistances installs the region-graph hop-distance matrix: d[i][j] is
// the minimum number of cross-region link traversals on any path from
// region i to region j, each of which costs at least the lookahead.
// Larger (honest) distances widen execution horizons. The matrix must be
// square with zero diagonal and positive, finite off-diagonal entries.
func (g *ShardGroup) SetDistances(d [][]int32) {
	n := len(g.engines)
	if len(d) != n {
		panic(fmt.Sprintf("sim: distance matrix has %d rows for %d regions", len(d), n))
	}
	for i := 0; i < n; i++ {
		if len(d[i]) != n {
			panic(fmt.Sprintf("sim: distance row %d has %d entries for %d regions", i, len(d[i]), n))
		}
		if d[i][i] != 0 {
			panic(fmt.Sprintf("sim: distance diagonal [%d][%d] = %d", i, i, d[i][i]))
		}
		min := int32(0)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if d[i][j] < 1 {
				panic(fmt.Sprintf("sim: distance [%d][%d] = %d", i, j, d[i][j]))
			}
			if min == 0 || d[i][j] < min {
				min = d[i][j]
			}
		}
		g.dist[i] = d[i]
		g.dmin[i] = min
	}
}

// SeedRNGs derives one RNG per region by splitting the given root stream
// in region order. The root must be dedicated to the group: splitting
// advances it.
func (g *ShardGroup) SeedRNGs(root *RNG) {
	for i := range g.rngs {
		g.rngs[i] = root.Split()
	}
}

// RNG returns region i's random stream (nil before SeedRNGs).
func (g *ShardGroup) RNG(i int) *RNG { return g.rngs[i] }

// Post hands an event from region src to region dst, to fire at time at.
// It must be called only from region src's executing event handlers (or
// from the coordinator between rounds), with at no earlier than the
// emitting event's time plus dist(src,dst) lookaheads. The message is
// buffered and scheduled on dst's engine at the next barrier; scheduling
// panics there if the protocol's safety bound was violated.
func (g *ShardGroup) Post(src, dst int, at Time, fn ArgHandler, arg any) {
	g.outbox[src][dst] = append(g.outbox[src][dst], crossMsg{at: at, fn: fn, arg: arg})
	if g.dynIdx == src {
		// A lone active region must stop before the earliest instant a
		// consequence of this message could reflect back to it.
		if t := at + Time(g.dist[dst][src])*Time(g.lookahead); t < g.dynLimit {
			g.dynLimit = t
		}
	}
}

// Run executes rounds until every region drains, then returns the final
// common simulation time.
func (g *ShardGroup) Run() Time { return g.RunUntil(Never) }

// RunUntil executes rounds until every region's next event lies beyond
// deadline (events at exactly deadline still fire, matching
// Engine.RunUntil), then advances every region's clock to the common stop
// time and returns it.
func (g *ShardGroup) RunUntil(deadline Time) Time {
	n := len(g.engines)
	if n == 1 {
		return g.engines[0].RunUntil(deadline)
	}
	hardCap := Never
	if deadline != Never {
		hardCap = deadline + 1
	}
	L := Time(g.lookahead)
	for {
		min1 := Never
		have := 0
		for i, e := range g.engines {
			t, ok := e.NextEventTime()
			if !ok {
				t = Never
			} else {
				have++
			}
			g.next[i] = t
			if t < min1 {
				min1 = t
			}
		}
		if have == 0 || min1 > deadline {
			break
		}
		active := g.active[:0]
		for i := 0; i < n; i++ {
			lim := hardCap
			for r := 0; r < n; r++ {
				if r == i || g.next[r] == Never {
					continue
				}
				if t := g.next[r] + Time(g.dist[r][i])*L; t < lim {
					lim = t
				}
			}
			g.limits[i] = lim
			if g.next[i] < lim {
				active = append(active, int32(i))
			}
		}
		g.active = active
		g.Rounds++
		g.Stalls += uint64(have - len(active))
		if len(active) == 1 {
			g.Inline++
			i := active[0]
			g.runInline(int(i), g.limits[i])
		} else {
			var wg sync.WaitGroup
			for _, i := range active {
				lim := g.limits[i]
				if refl := g.next[i] + 2*Time(g.dmin[i])*L; refl < lim {
					lim = refl
				}
				wg.Add(1)
				go func(e *Engine, lim Time) {
					defer wg.Done()
					e.RunBefore(lim)
				}(g.engines[i], lim)
			}
			wg.Wait()
		}
		g.flush()
	}
	// Quiet epilogue: every remaining event (if any) is beyond the
	// deadline, so advancing all clocks to the common stop time cannot
	// skip work.
	end := Time(0)
	for _, e := range g.engines {
		if e.now > end {
			end = e.now
		}
	}
	if deadline != Never && deadline > end {
		end = deadline
	}
	for _, e := range g.engines {
		if e.now < end {
			e.now = end
		}
	}
	return end
}

// runInline executes one single-active-region round on the coordinator
// goroutine. The region's horizon starts at its static limit and tightens
// as it posts cross-region messages (see Post), so a region that never
// talks to its neighbours runs unthrottled.
func (g *ShardGroup) runInline(i int, limit Time) {
	e := g.engines[i]
	e.stopped = false
	g.dynIdx, g.dynLimit = i, limit
	for !e.stopped {
		at, ok := e.nextAt()
		if !ok || at >= g.dynLimit {
			break
		}
		e.fire(e.next())
	}
	g.dynIdx = -1
}

// flush delivers every buffered cross-region message, in (destination,
// source, FIFO) order so scheduling sequence numbers — and therefore
// same-timestamp tie-breaks — are independent of goroutine scheduling.
func (g *ShardGroup) flush() {
	for dst := range g.engines {
		e := g.engines[dst]
		for src := range g.engines {
			q := g.outbox[src][dst]
			if len(q) == 0 {
				continue
			}
			for k := range q {
				e.AtArg(q[k].at, q[k].fn, q[k].arg)
				q[k].arg = nil
			}
			g.Cross += uint64(len(q))
			g.outbox[src][dst] = q[:0]
		}
	}
}

// Now returns the latest region clock. After Run/RunUntil all regions
// agree and this is the common simulation time.
func (g *ShardGroup) Now() Time {
	t := Time(0)
	for _, e := range g.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Pending counts events still queued across all regions and outboxes.
func (g *ShardGroup) Pending() int {
	p := 0
	for _, e := range g.engines {
		p += e.Pending()
	}
	for _, row := range g.outbox {
		for _, q := range row {
			p += len(q)
		}
	}
	return p
}
