package sim

import (
	"time"

	"repro/internal/telemetry"
)

// Engine telemetry metric names. The engine itself stays free of
// telemetry branching — its hot path maintains only the Processed count,
// the MaxPending high-water mark and, on the far-heap path alone, the
// FarPushes count — and the publishers below copy them out on cold paths.
const (
	// MetricEvents counts simulation events processed.
	MetricEvents = "sim.events"
	// MetricQueueFar counts events that entered the queue's far heap instead
	// of being served by the sorted near run (cheap while few do).
	MetricQueueFar = "sim.queue.far"
	// MetricHeapMax is the event queue's depth high-water mark, both tiers.
	MetricHeapMax = "sim.heap.depth.max"
	// MetricEventsPerSec is the wall-clock event throughput of the run,
	// published only for a caller that passes RecordTelemetry a wall
	// duration (the repo benchmark does; rig.Snapshot passes none).
	MetricEventsPerSec = "sim.events.per.sec"
)

// RecordTelemetry publishes the engine's run statistics to reg: events
// processed, far-heap pushes, the pending high-water mark, and — when the caller
// supplies the run's wall-clock duration — the simulator's events/sec
// throughput. The totals are republished with SetTotal semantics, so a
// long-running daemon may call this on every telemetry scrape without
// double-counting; a nil registry ignores everything.
func (e *Engine) RecordTelemetry(reg *telemetry.Registry, wall time.Duration) {
	reg.Counter(MetricEvents).SetTotal(e.Processed)
	reg.Counter(MetricQueueFar).SetTotal(e.FarPushes)
	reg.Gauge(MetricHeapMax).SetMax(int64(e.MaxPending))
	if wall > 0 {
		reg.Gauge(MetricEventsPerSec).Set(int64(float64(e.Processed) / wall.Seconds()))
	}
}
