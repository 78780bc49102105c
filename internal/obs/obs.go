// Package obs is the continuous observability plane layered on the
// zero-alloc telemetry registry: where internal/telemetry answers "what
// happened during this run", obs answers "what is happening right now"
// for a long-running process (cmd/asifmd).
//
// A periodic scraper feeds Samples — a frozen telemetry.Snapshot plus
// the serving layer's rib.Stats, stamped with wall time, simulation time
// and RIB generation — into a fixed-capacity ring-buffer time-series
// store. The newest sample and the oldest one the ring holds bound the
// window: counter deltas become per-second rates, and histogram-count
// deltas become windowed distributions whose p50/p99 are estimated by
// linear interpolation over the fixed buckets
// (telemetry.HistogramSnap.Quantile).
//
// Two HTTP views are derived, both dependency-free:
//
//	GET /metrics   Prometheus text exposition (cumulative metrics, the
//	               windowed rates and quantiles, staleness SLO, deliver
//	               latency): the plane's one windowed view
//	GET /events    bounded structured NDJSON event log tail
//
// The plane never touches the simulation hot path: scraping calls
// Registry.Snapshot (a cold path by design), and the producer decides
// when that is safe — the daemon serializes scrapes against simulation
// work with its own mutex. All Plane methods are safe for concurrent
// use.
package obs

import (
	"sync"
	"time"

	"repro/internal/rib"
	"repro/internal/telemetry"
)

// Config is New's argument. It has no fields, since the plane's sizes
// are the constants below, and stays so that callers' obs.New(obs.Config{})
// compiles.
type Config struct{}

// The plane's sizes.
const (
	// windowSamples is the number of most-recent samples a windowed
	// statistic (rate, histogram quantile) spans, and all the sample ring
	// holds: a minute of history at the daemon's default 1s scrape
	// interval.
	windowSamples = 60
	// eventCapacity bounds the event log.
	eventCapacity = 1024
)

// Sample is one scrape: everything the plane knows about one instant.
type Sample struct {
	// Wall is the scrape's wall-clock instant (stamped by Scrape when
	// zero).
	Wall time.Time
	// SimPS is the simulation clock in picoseconds.
	SimPS int64
	// Gen is the RIB generation current at the scrape.
	Gen uint64
	// Telemetry is the frozen registry snapshot.
	Telemetry telemetry.Snapshot
	// Serving is the RIB serving-layer view (staleness SLO included).
	Serving rib.Stats
}

// Plane is the observability plane: sample ring + event log + derived
// HTTP views.
type Plane struct {
	mu      sync.RWMutex
	ring    []Sample
	head    int // next write position
	n       int // samples stored
	scrapes uint64

	events *eventLog
}

// New builds a plane.
func New(Config) *Plane {
	return &Plane{
		ring:   make([]Sample, windowSamples),
		events: newEventLog(eventCapacity),
	}
}

// Scrape stores one sample, evicting the oldest when the ring is full.
func (p *Plane) Scrape(s Sample) {
	if s.Wall.IsZero() {
		s.Wall = time.Now()
	}
	p.mu.Lock()
	p.ring[p.head] = s
	p.head = (p.head + 1) % len(p.ring)
	if p.n < len(p.ring) {
		p.n++
	}
	p.scrapes++
	p.mu.Unlock()
}

// Scrapes returns the number of samples ever stored.
func (p *Plane) Scrapes() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.scrapes
}

// rateWindow reads the plane under its lock: the newest sample (ok is false
// before the first scrape), the oldest sample the ring holds (at most
// windowSamples-1 steps behind the newest), the wall seconds between the
// two (zero until two samples exist; the window is usable only when
// positive) and the number of samples ever stored. /metrics locates its
// window here.
func (p *Plane) rateWindow() (cur, base Sample, sec float64, scrapes uint64, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.n == 0 {
		return Sample{}, Sample{}, 0, p.scrapes, false
	}
	back := func(k int) Sample { return p.ring[(p.head-1-k+len(p.ring))%len(p.ring)] }
	cur = back(0)
	if p.n >= 2 {
		base = back(p.n - 1)
		sec = cur.Wall.Sub(base.Wall).Seconds()
	}
	return cur, base, sec, p.scrapes, true
}

// Log appends one structured event to the bounded event log.
func (p *Plane) Log(kind string, gen uint64, simPS int64, detail string) {
	p.events.append(Event{Wall: time.Now(), SimPS: simPS, Gen: gen, Kind: kind, Detail: detail})
}

// Events returns the newest-last tail of the event log, at most n
// entries (n <= 0 means everything retained).
func (p *Plane) Events(n int) []Event {
	return p.events.tail(n)
}

// EventsLogged returns how many events were ever appended; EventsDropped
// how many the bounded log has evicted.
func (p *Plane) EventsLogged() uint64  { return p.events.logged() }
func (p *Plane) EventsDropped() uint64 { return p.events.dropped() }
