// Package obs is the continuous observability plane layered on the
// zero-alloc telemetry registry: where internal/telemetry answers "what
// happened during this run", obs answers "what is happening right now"
// for a long-running process (cmd/asifmd).
//
// A periodic scraper feeds Samples — a frozen telemetry.Snapshot plus
// the serving layer's rib.Stats, stamped with wall time, simulation time
// and RIB generation — into a fixed-capacity ring-buffer time-series
// store. Successive samples are diffed into windowed statistics:
// counter deltas become per-second rates, gauge values become
// trajectories, and histogram-count deltas become windowed distributions
// whose p50/p90/p99 are estimated by linear interpolation over the fixed
// buckets (telemetry.HistogramSnap.Quantile).
//
// Three HTTP views are derived from the store, all dependency-free:
//
//	GET /metrics   Prometheus text exposition (cumulative metrics,
//	               windowed rates, staleness SLO, deliver latency)
//	GET /events    bounded structured NDJSON event log tail
//	GET /obs.json  the dashboard document cmd/asitop renders
//
// The plane never touches the simulation hot path: scraping calls
// Registry.Snapshot (a cold path by design), and the producer decides
// when that is safe — the daemon serializes scrapes against simulation
// work with its own mutex. All Plane methods are safe for concurrent
// use.
package obs

import (
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/rib"
	"repro/internal/telemetry"
)

// Config sizes the plane.
type Config struct {
	// Window is the number of most-recent samples a windowed statistic
	// (rate, histogram quantile) spans, and all the sample ring holds
	// (default DefaultWindow). At the daemon's default 1s scrape interval
	// the default ring holds a minute of history.
	Window int
	// EventCapacity bounds the event log (default DefaultEventCapacity).
	EventCapacity int
}

// Sizing defaults.
const (
	DefaultWindow        = 60
	DefaultEventCapacity = 1024
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
func New(cfg Config) *Plane {
	window := cfg.Window
	if window <= 0 {
		window = DefaultWindow
	}
	evCap := cfg.EventCapacity
	if evCap <= 0 {
		evCap = DefaultEventCapacity
	}
	return &Plane{
		ring:   make([]Sample, window),
		events: newEventLog(evCap),
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
// Window-1 steps behind the newest), the wall seconds between the
// two (zero until two samples exist; the window is usable only when
// positive) and the number of samples ever stored. /metrics and /obs.json
// both locate their window here.
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

// Rate is one windowed counter rate.
type Rate struct {
	Name   string  `json:"name"`
	PerSec float64 `json:"per_sec"`
}

// windowStats derives the statistics of the window tw, sec wall seconds
// long: the per-second rate of every counter and the summed rate of every
// counter-vector family that changed, sorted by name (a counter before a
// family of the same name), and p50/p90/p99 of every histogram with
// observations inside the window, in snapshot (name) order.
func windowStats(tw *telemetry.Window, sec float64) (rates []Rate, qs []HistQuantiles) {
	for _, c := range tw.Cur.Counters {
		d, _ := tw.Counter(c.Name)
		rates = append(rates, Rate{Name: c.Name, PerSec: float64(d) / sec})
	}
	for i, v := range tw.Cur.Vectors {
		if i > 0 && v.Name == tw.Cur.Vectors[i-1].Name {
			continue
		}
		if d := tw.Family(v.Name); d != 0 {
			rates = append(rates, Rate{Name: v.Name, PerSec: float64(d) / sec})
		}
	}
	slices.SortStableFunc(rates, func(a, b Rate) int { return strings.Compare(a.Name, b.Name) })
	for _, h := range tw.Cur.Histograms {
		if d, _ := tw.Histogram(h.Name, nil); d.Count > 0 {
			qs = append(qs, HistQuantiles{
				Name: h.Name, Unit: h.Unit, Count: d.Count,
				P50: d.Quantile(0.50), P90: d.Quantile(0.90), P99: d.Quantile(0.99),
			})
		}
	}
	return rates, qs
}

// HistQuantiles is one histogram's windowed quantile estimate.
type HistQuantiles struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
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
