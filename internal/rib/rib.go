// Package rib is the fabric manager's serving layer: a versioned,
// copy-on-write topology RIB with streaming subscribers.
//
// The discovery engine *installs* each completed run's database into the
// RIB; every install freezes an immutable generation-stamped Snapshot
// (topology plus the FIB derived from it) and fans the JSON diff against
// the previous generation out to subscribers. Subscribers get gNMI-style
// initial-sync-then-deltas semantics over path prefixes
// (/topology/switches/..., /fib/routes/...) with bounded per-subscriber
// queues: a reader that stalls long enough to overflow its queue has its
// backlog dropped and receives a resync marker followed by a fresh full
// snapshot — the installer never blocks on a slow reader, which is what
// keeps the serving layer off the simulation hot path entirely. A reader
// already waiting when a generation is published receives its delta from
// the installer directly; a subscription's pump goroutine carries only
// its initial sync, a backlog and the resync.
package rib

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Update ops.
const (
	// OpSet creates or replaces one leaf.
	OpSet = "set"
	// OpDelete removes one leaf.
	OpDelete = "delete"
)

// Batch types.
const (
	// SyncBatch carries a subscription's initial full state.
	SyncBatch = "sync"
	// DeltaBatch carries one generation's changes.
	DeltaBatch = "delta"
	// ResyncBatch replaces a stalled subscriber's entire state: the
	// reader must drop what it has and apply the batch as a fresh sync.
	ResyncBatch = "resync"
)

// Update is one leaf mutation.
type Update struct {
	Op    string          `json:"op"`
	Path  string          `json:"path"`
	Value json.RawMessage `json:"value,omitempty"`
}

// Batch is the unit of delivery: all updates of one generation (delta),
// or a full state transfer (sync/resync). Batches are immutable once
// published — they are shared by every subscriber.
type Batch struct {
	Gen  uint64 `json:"gen"`
	Type string `json:"type"`
	// Fingerprint is the generation's topology fingerprint
	// (core.DB.Fingerprint, hex) on sync/resync/delta batches, a
	// cross-check for subscribers that reconstruct state.
	Fingerprint string   `json:"fingerprint,omitempty"`
	Updates     []Update `json:"updates,omitempty"`
	// view is the shared view the batch was delivered from, so the HTTP
	// handler can write its memoized NDJSON line.
	view *view
}

// Serving-layer event kinds reported through Config.OnEvent.
const (
	// EventOverflow fires when a stalled subscriber's queue overflows
	// and its backlog is discarded.
	EventOverflow = "subscriber.overflow"
	// EventResync fires when the pump replaces a stalled subscriber's
	// state with a full current-snapshot resync.
	EventResync = "subscriber.resync"
)

// Config sizes the RIB.
type Config struct {
	// QueueDepth bounds each subscriber's pending-batch queue; a
	// subscriber that falls further behind is resynced. 0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// OnEvent, when non-nil, observes serving-layer events (EventOverflow,
	// EventResync) with the generation current when they happened. It is
	// called without RIB locks held: EventOverflow by the installer once
	// its offers are made, EventResync by the pump that builds the
	// resync. It must be cheap and must not call back into the RIB.
	OnEvent func(kind string, gen uint64)
}

// DefaultQueueDepth absorbs normal install bursts; chaos-rate churn
// against a deliberately stalled reader overflows it in tests.
const DefaultQueueDepth = 64

// installStampRing bounds the install-time memory the deliver-latency
// accounting keeps: the wall-clock install instants of the last 256
// generations, indexed by generation number. Deliveries of generations
// older than that (a reader 256+ generations behind has long since been
// resynced) simply skip the latency observation.
const installStampRing = 256

// RIB is the versioned topology store. One installer side (Install) and
// any number of reader sides (Current, Subscribe) may run concurrently.
type RIB struct {
	depth   int
	onEvent func(kind string, gen uint64)

	// installMu serializes installers, and so keeps every subscriber's
	// offers in generation order; mu guards the published snapshot and
	// subscriber set and is held only for the pointer swap and the copy
	// of the set, never for snapshot construction or a hand-off.
	installMu sync.Mutex
	installer installer       // reused by every install, under installMu
	fan       []*Subscription // the set an install offers to, under installMu
	mu        sync.Mutex
	cur       *Snapshot
	subs      map[*Subscription]struct{}

	installs atomic.Uint64
	resyncs  atomic.Uint64
	// built counts the shared views constructed (see view): full-state
	// bodies, filtered deltas and encoded lines. Tests read it to hold
	// each to once per (generation, prefix).
	built struct{ syncs, filters, lines atomic.Uint64 }

	// latMu guards the staleness-SLO accounting: the per-generation
	// install stamps and the install→deliver latency histogram. Both are
	// touched per install and per delivered batch (by the pump, or by
	// the installer for a hand-off) — far from the simulation hot path.
	latMu      sync.Mutex
	stamps     [installStampRing]installStamp
	latReg     *telemetry.Registry
	latency    *telemetry.Histogram
	deliveries uint64
}

// installStamp records when one generation was published.
type installStamp struct {
	gen uint64
	at  time.Time
}

// MetricDeliverLatency names the install→deliver wall-clock latency
// histogram: the time from Install publishing a generation to a
// subscriber's reader actually receiving a batch of that generation.
const MetricDeliverLatency = "rib.deliver.latency.ns"

// deliverLatencyBounds are the histogram's inclusive upper bounds in
// nanoseconds: 50µs up to 2.5s, roughly logarithmic. In-process readers
// sit at the bottom; an HTTP subscriber catching up after an overflow
// resync can reach the top.
var deliverLatencyBounds = []int64{
	50e3, 100e3, 250e3, 500e3,
	1e6, 2.5e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 500e6,
	1e9, 2.5e9,
}

// New returns an empty RIB at generation 0.
func New(cfg Config) *RIB {
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	r := &RIB{
		depth:   depth,
		onEvent: cfg.OnEvent,
		cur:     emptySnapshot(),
		subs:    make(map[*Subscription]struct{}),
		latReg:  telemetry.New(),
	}
	r.latency = r.latReg.Histogram(MetricDeliverLatency, "ns", deliverLatencyBounds)
	return r
}

// Install publishes a new generation built from the discovery database.
// The database is cloned before the RIB touches it, so the caller's copy
// stays live and mutable (the manager keeps assimilating into it, and its
// writes copy what they touch; see core.DB.Clone).
// Install returns the new generation number and the topology-level diff
// against the previous generation; it does bounded work per subscriber
// and never blocks on any of them.
//
// The new generation is published (Current returns it) before any
// subscriber is offered it, and the offers run outside the RIB lock, so
// Current, Stats and Subscribe never wait behind them. A reader parked on
// its channel receives its batch from the installer itself; building the
// views that takes falls to the installer too, at most once per distinct
// prefix. An install is O(subscribers + distinct prefixes × |delta|)
// beyond the snapshot.
func (r *RIB) Install(db *core.DB) (uint64, core.Diff) {
	r.installMu.Lock()
	defer r.installMu.Unlock()

	prev := r.Current()
	clone := db.Clone()
	d := core.DiffDBs(prev.DB, clone)
	next := prev.next(clone, d, &r.installer)

	r.latMu.Lock()
	r.stamps[next.Gen%installStampRing] = installStamp{gen: next.Gen, at: time.Now()}
	r.latMu.Unlock()

	r.mu.Lock()
	r.cur = next
	for s := range r.subs {
		r.fan = append(r.fan, s)
	}
	r.mu.Unlock()
	overflows := 0
	for _, s := range r.fan {
		if s.offer(next.pub) {
			overflows++
		}
	}
	clear(r.fan) // a closed subscription is not kept alive until the next install
	r.fan = r.fan[:0]
	r.installs.Add(1)
	if r.onEvent != nil {
		for i := 0; i < overflows; i++ {
			r.onEvent(EventOverflow, next.Gen)
		}
	}
	return next.Gen, d
}

// observeDelivery folds one delivered batch into the staleness-SLO
// accounting: the install→deliver wall latency of the batch's
// generation, when its install stamp is still in the ring.
func (r *RIB) observeDelivery(gen uint64) {
	now := time.Now()
	r.latMu.Lock()
	defer r.latMu.Unlock()
	r.deliveries++
	if st := r.stamps[gen%installStampRing]; st.gen == gen && !st.at.IsZero() {
		r.latency.Observe(now.Sub(st.at).Nanoseconds())
	}
}

// Current returns the latest published snapshot. Snapshots are immutable;
// the caller may hold it indefinitely.
func (r *RIB) Current() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Subscribe registers a subscriber for the given path prefix ("/",
// "/topology", "/fib/routes", ...). The first batch delivered is a full
// sync of the current generation; every later install delivers a delta
// (or, after an overflow, a resync). Close the subscription to release
// its queue and pump goroutine.
func (r *RIB) Subscribe(prefix string) *Subscription {
	if prefix == "" {
		prefix = "/"
	}
	s := &Subscription{
		rib:    r,
		prefix: prefix,
		notify: make(chan struct{}, 1),
		out:    make(chan Batch),
		done:   make(chan struct{}),
	}
	// Under the lock only the registration: the sync batch is the
	// generation's shared view for the prefix, built by the pump.
	r.mu.Lock()
	cur := r.cur
	s.last = cur.Gen
	r.subs[s] = struct{}{}
	r.mu.Unlock()
	go s.pump(cur)
	return s
}

// Staleness is the serving layer's freshness SLO view: how far behind
// the current generation the live subscribers' *delivered* state sits.
// Lag is measured in generations — a subscriber whose reader has
// consumed the latest batch lags 0; one that has not yet consumed its
// initial sync lags the full current generation.
type Staleness struct {
	// Subscribers is the population the percentiles are computed over.
	Subscribers int `json:"subscribers"`
	// P50, P99 and Max are generation-lag percentiles across the live
	// subscribers (nearest-rank).
	P50 uint64 `json:"p50"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

// Stats is a point-in-time view of the serving layer.
type Stats struct {
	// Gen is the current generation, Installs the number of installs
	// (equal unless the RIB was constructed around an existing DB).
	Gen      uint64 `json:"gen"`
	Installs uint64 `json:"installs"`
	// Leaves counts the current generation's served leaves.
	Leaves int `json:"leaves"`
	// Subscribers is the live subscription count; Resyncs the total
	// full-state retransmissions forced by subscriber queue overflows.
	Subscribers int    `json:"subscribers"`
	Resyncs     uint64 `json:"resyncs"`
	// Deliveries counts batches actually consumed by readers.
	Deliveries uint64 `json:"deliveries"`
	// Staleness is the generation-lag SLO across live subscribers.
	Staleness Staleness `json:"staleness"`
	// DeliverLatency is the install→deliver wall-latency histogram
	// (nanoseconds); DeliverP50NS / DeliverP99NS are its interpolated
	// quantiles.
	DeliverLatency telemetry.HistogramSnap `json:"deliver_latency"`
	DeliverP50NS   float64                 `json:"deliver_p50_ns"`
	DeliverP99NS   float64                 `json:"deliver_p99_ns"`
	// Fingerprint is the current generation's topology fingerprint, hex.
	Fingerprint string `json:"fingerprint"`
}

// Stats snapshots the serving-layer counters, including the staleness
// SLO percentiles across the live subscriber set. Safe to call
// concurrently with installs and deliveries.
func (r *RIB) Stats() Stats {
	r.mu.Lock()
	cur := r.cur
	lags := make([]uint64, 0, len(r.subs))
	for s := range r.subs {
		d := s.delivered.Load()
		if d > cur.Gen {
			// The subscriber consumed a batch published after cur was
			// read; it is as fresh as it gets.
			d = cur.Gen
		}
		lags = append(lags, cur.Gen-d)
	}
	r.mu.Unlock()

	st := Stats{
		Gen:         cur.Gen,
		Installs:    r.installs.Load(),
		Leaves:      cur.NumLeaves(),
		Subscribers: len(lags),
		Resyncs:     r.resyncs.Load(),
		Fingerprint: cur.pub.fpHex,
		Staleness:   lagPercentiles(lags),
	}
	r.latMu.Lock()
	st.Deliveries = r.deliveries
	snap := r.latReg.Snapshot()
	r.latMu.Unlock()
	if h, ok := snap.Histogram(MetricDeliverLatency); ok {
		st.DeliverLatency = h
		st.DeliverP50NS = h.Quantile(0.50)
		st.DeliverP99NS = h.Quantile(0.99)
	}
	return st
}

// lagPercentiles computes the nearest-rank staleness percentiles.
func lagPercentiles(lags []uint64) Staleness {
	st := Staleness{Subscribers: len(lags)}
	if len(lags) == 0 {
		return st
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	rank := func(q float64) uint64 {
		i := int(q*float64(len(lags))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lags) {
			i = len(lags) - 1
		}
		return lags[i]
	}
	st.P50 = rank(0.50)
	st.P99 = rank(0.99)
	st.Max = lags[len(lags)-1]
	return st
}

// unsubscribe removes a closed subscription from the fanout set.
func (r *RIB) unsubscribe(s *Subscription) {
	r.mu.Lock()
	delete(r.subs, s)
	r.mu.Unlock()
}
