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
	"sync"
	"time"

	"repro/internal/rib"
	"repro/internal/telemetry"
)

// Config sizes the plane.
type Config struct {
	// Capacity bounds the sample ring (default DefaultCapacity). At the
	// daemon's default 1s scrape interval the default ring holds ~4
	// minutes of history.
	Capacity int
	// Window is the number of most-recent samples a windowed statistic
	// (rate, histogram quantile) spans, capped by what the ring holds
	// (default DefaultWindow).
	Window int
	// EventCapacity bounds the event log (default DefaultEventCapacity).
	EventCapacity int
}

// Sizing defaults.
const (
	DefaultCapacity      = 256
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
	window int

	mu      sync.RWMutex
	ring    []Sample
	head    int // next write position
	n       int // samples stored
	scrapes uint64

	events *eventLog
}

// New builds a plane.
func New(cfg Config) *Plane {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	window := cfg.Window
	if window <= 0 {
		window = DefaultWindow
	}
	evCap := cfg.EventCapacity
	if evCap <= 0 {
		evCap = DefaultEventCapacity
	}
	return &Plane{
		window: window,
		ring:   make([]Sample, capacity),
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

// latest returns the newest sample; ok is false before the first scrape.
// Caller must hold p.mu (read side suffices).
func (p *Plane) latest() (Sample, bool) {
	if p.n == 0 {
		return Sample{}, false
	}
	return p.ring[(p.head-1+len(p.ring))%len(p.ring)], true
}

// windowBase returns the oldest sample inside the rate window (at most
// p.window-1 steps behind the newest). Caller must hold p.mu.
func (p *Plane) windowBase() (Sample, bool) {
	if p.n < 2 {
		return Sample{}, false
	}
	back := p.window - 1
	if back > p.n-1 {
		back = p.n - 1
	}
	return p.ring[(p.head-1-back+len(p.ring))%len(p.ring)], true
}

// Window returns the plane's current rate window: the newest sample, the
// window-base sample it is diffed against, and the wall seconds between
// them. ok is false until two samples exist.
func (p *Plane) Window() (cur, base Sample, seconds float64, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cur, okCur := p.latest()
	base, okBase := p.windowBase()
	if !okCur || !okBase {
		return Sample{}, Sample{}, 0, false
	}
	seconds = cur.Wall.Sub(base.Wall).Seconds()
	return cur, base, seconds, seconds > 0
}

// Rates computes the per-second rate of every counter (and the summed
// rate of every counter-vector family) over the current window, sorted
// by name. Nil until two samples span a positive wall interval.
func (p *Plane) Rates() []Rate {
	cur, base, sec, ok := p.Window()
	if !ok {
		return nil
	}
	rates, _ := windowStats(cur, base, sec)
	return rates
}

// Rate is one windowed counter rate.
type Rate struct {
	Name   string  `json:"name"`
	PerSec float64 `json:"per_sec"`
}

func sortRates(rs []Rate) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Name < rs[j-1].Name; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Quantiles estimates windowed p50/p90/p99 for every histogram with
// observations inside the window, sorted by name.
func (p *Plane) Quantiles() []HistQuantiles {
	cur, base, sec, ok := p.Window()
	if !ok {
		return nil
	}
	_, qs := windowStats(cur, base, sec)
	return qs
}

// windowStats derives the rates and quantiles of the window from base to
// cur, sec wall seconds long.
func windowStats(cur, base Sample, sec float64) ([]Rate, []HistQuantiles) {
	d := cur.Telemetry.Delta(base.Telemetry)
	var rates []Rate
	for _, c := range d.Counters {
		rates = append(rates, Rate{Name: c.Name, PerSec: float64(c.Value) / sec})
	}
	vecTotals := map[string]uint64{}
	var vecNames []string
	for _, v := range d.Vectors {
		if _, seen := vecTotals[v.Name]; !seen {
			vecNames = append(vecNames, v.Name)
		}
		vecTotals[v.Name] += v.Value
	}
	for _, name := range vecNames {
		rates = append(rates, Rate{Name: name, PerSec: float64(vecTotals[name]) / sec})
	}
	sortRates(rates)
	var qs []HistQuantiles
	for _, h := range d.Histograms {
		if h.Count == 0 {
			continue
		}
		qs = append(qs, HistQuantiles{
			Name: h.Name, Unit: h.Unit, Count: h.Count,
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		})
	}
	return rates, qs // Delta preserves snapshot order: quantiles are name-sorted
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
