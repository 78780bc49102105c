package core

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Telemetry metric names exported by the fabric manager. The per-phase
// families append a phase label: "fm.service.<phase>" histograms the FM
// processing time spent per work phase (start, completion, timeout,
// event, sync), and "fm.rtt.<kind>" histograms the request round-trip
// time — issue to completion arrival — per PI-4 request kind (probe,
// port-read, write, verify, claim). Round trips are the per-request
// latency a production FM would alarm on; the loss-discovery literature
// (CDP, OFDP) shows that is the signal operators actually watch.
// Unlike Result, whose counters cover one discovery run, these metrics
// accumulate over the manager's whole lifetime — they also see phases no
// Result covers, such as event-route distribution, so in a full
// experiment run fm.timeouts may exceed the measured Result.TimedOut.
const (
	MetricFMServicePrefix = "fm.service."
	MetricFMRTTPrefix     = "fm.rtt."
	MetricFMQueueDepth    = "fm.queue.depth.max"
	MetricFMTimeouts      = "fm.timeouts"
	MetricFMRetries       = "fm.retries"
	MetricFMGiveups       = "fm.giveups"
	MetricFMStale         = "fm.stale"
)

// Continuous-assimilation metric names. fm.assim.events counts PI-5
// reports accepted into the coalescing front-end (its windowed rate is
// the sustained PI-5s/s assimilated); fm.assim.events.coalesced the
// subset absorbed into an already-open batch (saved runs);
// fm.assim.superseded reports replaced by a later report for the same
// (reporter, port); fm.assim.flushes the batched partial runs and
// fm.assim.batch.size their size distribution. The fm.db.staleness.*
// gauges publish the per-node last-validated age percentiles
// (picoseconds) the daemon's staleness re-audit is keyed on.
const (
	MetricFMAssimEvents     = "fm.assim.events"
	MetricFMAssimCoalesced  = "fm.assim.events.coalesced"
	MetricFMAssimSuperseded = "fm.assim.superseded"
	MetricFMAssimFlushes    = "fm.assim.flushes"
	MetricFMAssimBatch      = "fm.assim.batch.size"
	MetricFMDBStaleP50      = "fm.db.staleness.p50"
	MetricFMDBStaleP99      = "fm.db.staleness.p99"
	MetricFMDBStaleMax      = "fm.db.staleness.max"
)

// label names a work phase for metric naming.
func (k workKind) label() string {
	switch k {
	case wStart:
		return "start"
	case wCompletion:
		return "completion"
	case wTimeout:
		return "timeout"
	case wEvent:
		return "event"
	case wFlush:
		return "flush"
	default:
		return "sync"
	}
}

// label names a request kind for metric naming.
func (k reqKind) label() string {
	switch k {
	case reqProbeGeneral:
		return "probe"
	case reqReadPort:
		return "port-read"
	case reqWrite:
		return "write"
	case reqVerify:
		return "verify"
	default:
		return "claim"
	}
}

// durationBounds are the shared histogram bucket bounds for FM timing
// metrics, in picoseconds: 500ns up to 5ms, roughly logarithmic. FM
// processing times sit in the low microseconds; request round trips
// stretch into the tens and hundreds of microseconds on large fabrics
// under slow-device factors.
var durationBounds = []int64{
	int64(500 * sim.Nanosecond),
	int64(1 * sim.Microsecond),
	int64(2 * sim.Microsecond),
	int64(5 * sim.Microsecond),
	int64(10 * sim.Microsecond),
	int64(20 * sim.Microsecond),
	int64(50 * sim.Microsecond),
	int64(100 * sim.Microsecond),
	int64(200 * sim.Microsecond),
	int64(500 * sim.Microsecond),
	int64(1 * sim.Millisecond),
	int64(5 * sim.Millisecond),
}

// fmTelemetry is the manager's bundle of pre-registered metric handles,
// non-nil only when Options.Telemetry is set. Hot paths guard on the one
// pointer; every observation is an array-indexed histogram bump or an
// integer increment, allocation-free either way.
type fmTelemetry struct {
	service    [numWorkKinds]*telemetry.Histogram
	rtt        [numReqKinds]*telemetry.Histogram
	queueDepth *telemetry.Gauge
	timeouts   *telemetry.Counter
	retries    *telemetry.Counter
	giveups    *telemetry.Counter
	stale      *telemetry.Counter

	assimEvents     *telemetry.Counter
	assimCoalesced  *telemetry.Counter
	assimSuperseded *telemetry.Counter
	assimFlushes    *telemetry.Counter
	assimBatch      *telemetry.Histogram
	stalenessP50    *telemetry.Gauge
	stalenessP99    *telemetry.Gauge
	stalenessMax    *telemetry.Gauge
}

// batchBounds buckets coalesced-batch sizes (events per flush); powers
// of two past assimBatchMax, since superseded reports count too.
var batchBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// newFMTelemetry registers the FM metric set with reg.
func newFMTelemetry(reg *telemetry.Registry) *fmTelemetry {
	t := &fmTelemetry{
		queueDepth:      reg.Gauge(MetricFMQueueDepth),
		timeouts:        reg.Counter(MetricFMTimeouts),
		retries:         reg.Counter(MetricFMRetries),
		giveups:         reg.Counter(MetricFMGiveups),
		stale:           reg.Counter(MetricFMStale),
		assimEvents:     reg.Counter(MetricFMAssimEvents),
		assimCoalesced:  reg.Counter(MetricFMAssimCoalesced),
		assimSuperseded: reg.Counter(MetricFMAssimSuperseded),
		assimFlushes:    reg.Counter(MetricFMAssimFlushes),
		assimBatch:      reg.Histogram(MetricFMAssimBatch, "events", batchBounds),
		stalenessP50:    reg.Gauge(MetricFMDBStaleP50),
		stalenessP99:    reg.Gauge(MetricFMDBStaleP99),
		stalenessMax:    reg.Gauge(MetricFMDBStaleMax),
	}
	for k := workKind(0); k < numWorkKinds; k++ {
		t.service[k] = reg.Histogram(MetricFMServicePrefix+k.label(), "ps", durationBounds)
	}
	for k := reqKind(0); k < numReqKinds; k++ {
		t.rtt[k] = reg.Histogram(MetricFMRTTPrefix+k.label(), "ps", durationBounds)
	}
	return t
}
