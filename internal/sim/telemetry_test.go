package sim

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestEngineRecordTelemetryRepublishes(t *testing.T) {
	e := NewEngine()
	for i := 0; i < nearCap+5; i++ { // the last 5 go to the far heap
		e.After(Duration(i+1)*Microsecond, func(*Engine) {})
	}
	e.Run()

	reg := telemetry.New()
	e.RecordTelemetry(reg, time.Millisecond)
	// A second publication (a daemon scrape) must not double-count.
	e.RecordTelemetry(reg, 0)
	s := reg.Snapshot()
	if got, _ := s.Counter(MetricEvents); got != e.Processed {
		t.Errorf("sim.events %d, want %d after republication", got, e.Processed)
	}
	if got, _ := s.Counter(MetricQueueFar); got != 5 {
		t.Errorf("sim.queue.far %d, want 5", got)
	}
	if got, _ := s.Gauge(MetricHeapMax); got != int64(e.MaxPending) {
		t.Errorf("heap max %d, want %d", got, e.MaxPending)
	}
}
