package main

import (
	"math"
	"sort"
	"time"
)

// opTimeout is how long a churn round waits for its subscribers; an
// operation that fails or times out is recorded at this latency so it
// counts as missing every percentile.
const opTimeout = 5 * time.Second

// percentile returns the q-quantile (0 < q <= 1) of sorted by nearest
// rank. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	// The small slack keeps a product like 0.9*100 = 90.00000000000001
	// from being rounded up a whole rank.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is percentile over an unsorted sample; 0 for an empty one.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return percentile(sortedCopy(v), q)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailPerMille are the candidates for the reported tail, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest candidate percentile that still has
// at least ten samples beyond its rank among n, or 0.5 when n supports
// none: a tail read off fewer than ten samples is a few slow operations,
// not a percentile.
func supportedTail(n int) float64 {
	for _, pm := range tailPerMille {
		if rank := (n*pm + 999) / 1000; n-rank >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0.5
}

// opLatencies collects one latency per operation. A failed operation is
// recorded at opTimeout whatever it measured.
type opLatencies struct {
	ms     []float64
	failed int
}

func (l *opLatencies) add(d time.Duration, ok bool) {
	if !ok {
		l.failed++
		d = opTimeout
	}
	l.ms = append(l.ms, ms(d))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cycleStats turns per-cycle measurements into the run's three timing
// metrics. A cycle is the smallest repeating unit of a workload (a
// down/up pair of rounds, one pass over the discovery cases): every cycle
// does the same kind of work, so the median over cycles is a steady
// estimate that a short stall of the host does not move, where a total
// over the whole run would carry it.
type cycleStats struct {
	wallS   []float64 // wall time of the cycle's operations
	latMS   []float64 // mean operation latency within the cycle
	events  []float64 // simulator events processed in the cycle
	opsEach int       // operations per cycle
}

func (c *cycleStats) add(wall time.Duration, meanLatMS float64, events uint64) {
	c.wallS = append(c.wallS, wall.Seconds())
	c.latMS = append(c.latMS, meanLatMS)
	c.events = append(c.events, float64(events))
}

// metrics fills in ops_per_s, op_wall_ms_p50 and events_per_s.
func (c *cycleStats) metrics(m map[string]float64) {
	rate := make([]float64, len(c.wallS))
	for i, w := range c.wallS {
		rate[i] = c.events[i] / w
	}
	m["ops_per_s"] = float64(c.opsEach) / median(c.wallS)
	m["op_wall_ms_p50"] = median(c.latMS)
	m["events_per_s"] = median(rate)
}
