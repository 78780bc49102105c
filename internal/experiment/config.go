package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config is the description of one simulation run. It collapses the
// knobs that accreted across RunSpec and core.Options — loss model, retry
// policy, telemetry, spans — into one place. Build it as a literal and
// call Validate to get validation errors before running; the zero values
// of the optional fields reproduce the paper's baseline (lossless fabric,
// no retries, factors of 1, no instrumentation).
type Config struct {
	// Topology is a Table 1 topology name (topo.ByName).
	Topology string
	// Algorithm selects the discovery variant under test.
	Algorithm core.Kind
	// FMFactor and DeviceFactor scale the FM and device processing-time
	// models; zero means the calibrated default of 1.
	FMFactor     float64
	DeviceFactor float64
	// Seed makes the run reproducible; equal configs replay bit-identically.
	Seed uint64
	// Change selects the topological change injected after the transient.
	Change Change
	// LossRate injects uniform per-link-traversal packet loss; zero means
	// a lossless fabric, the paper's assumption.
	LossRate float64
	// Faults, when non-nil, overrides LossRate with a full fault plan
	// (per-link rules, delays, flaps).
	Faults *fabric.FaultPlan
	// MaxRetries and RetryBackoff configure the FM's timeout-retry
	// policy; zero MaxRetries disables retries.
	MaxRetries   int
	RetryBackoff sim.Duration
	// Telemetry enables per-run metric collection: FM per-phase service
	// and round-trip histograms, fabric per-link/per-VC counters, and
	// engine statistics, snapshotted into Outcome.Telemetry. Enabling it
	// never changes any simulated metric.
	Telemetry bool
	// Spans enables causal span tracing: every FM-issued PI-4 request
	// gets a request span with per-attempt, per-hop, queueing and
	// device-service child spans, and every other packet's hops are
	// recorded without a parent, all snapshotted into Outcome.Spans.
	// Enabling it never changes any simulated metric.
	Spans bool
}

// rigConfig translates the run description into the assembly it needs: the
// loss model becomes a fault plan, the retry policy and factors the
// manager's options.
func (c Config) rigConfig() rig.Config {
	rc := rig.Config{
		Seed:         c.Seed,
		DeviceFactor: c.DeviceFactor,
		Telemetry:    c.Telemetry,
		Spans:        c.Spans,
		Manager: core.Options{
			Algorithm:    c.Algorithm,
			FMFactor:     c.FMFactor,
			MaxRetries:   c.MaxRetries,
			RetryBackoff: c.RetryBackoff,
		},
	}
	switch {
	case c.Faults != nil:
		rc.Faults = *c.Faults
	case c.LossRate > 0:
		rc.Faults = fabric.Uniform(c.LossRate)
	}
	return rc
}

// Validate reports the first problem that would make the run fail or be
// meaningless. RunConfig also tolerates unvalidated configs, reporting
// problems through Outcome.Err instead.
func (c Config) Validate() error {
	if _, err := topo.ByName(c.Topology); err != nil {
		return err
	}
	if !c.Algorithm.Valid() {
		return fmt.Errorf("experiment: unknown algorithm %v", c.Algorithm)
	}
	if c.Change < NoChange || c.Change > AddSwitch {
		return fmt.Errorf("experiment: unknown change %v", c.Change)
	}
	if c.FMFactor < 0 || c.DeviceFactor < 0 {
		return fmt.Errorf("experiment: negative processing factor (fm=%v, device=%v)", c.FMFactor, c.DeviceFactor)
	}
	if c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("experiment: loss rate %v outside [0, 1]", c.LossRate)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("experiment: negative retry limit %d", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("experiment: negative retry backoff %v", c.RetryBackoff)
	}
	return nil
}
