package experiment

import (
	"fmt"
	"math"

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
	// Topology is a catalogue or parametric topology name (topo.ByName).
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
	// Faults is the fault plan the fabric runs under (per-link loss,
	// delays, flaps); fabric.Uniform(loss) is the loss sweeps' uniform
	// per-link-traversal loss. The zero plan is the paper's lossless
	// fabric.
	Faults fabric.FaultPlan
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

// rigConfig translates the run description into the assembly it needs:
// the retry policy and factors become the manager's options.
func (c Config) rigConfig() rig.Config {
	return rig.Config{
		Seed:         c.Seed,
		DeviceFactor: c.DeviceFactor,
		Faults:       c.Faults,
		Telemetry:    c.Telemetry,
		Spans:        c.Spans,
		Manager: core.Options{
			Algorithm:    c.Algorithm,
			FMFactor:     c.FMFactor,
			MaxRetries:   c.MaxRetries,
			RetryBackoff: c.RetryBackoff,
		},
	}
}

// Validate reports the first problem that would make the run fail or be
// meaningless, naming the asidisc flag that sets the field. RunConfig also
// tolerates unvalidated configs, reporting problems through Outcome.Err.
func (c Config) Validate() error {
	if err := topo.CheckName(c.Topology); err != nil {
		return err
	}
	if !c.Algorithm.Valid() {
		return fmt.Errorf("experiment: unknown algorithm %v", c.Algorithm)
	}
	if c.Change < NoChange || c.Change > AddSwitch {
		return fmt.Errorf("experiment: unknown change %v", c.Change)
	}
	if f := c.FMFactor; !(f >= 0 && f <= math.MaxFloat64) {
		return fmt.Errorf("experiment: -fm-factor %v: processing factor must be finite and non-negative", f)
	}
	if f := c.DeviceFactor; !(f >= 0 && f <= math.MaxFloat64) {
		return fmt.Errorf("experiment: -dev-factor %v: processing factor must be finite and non-negative", f)
	}
	if loss := c.Faults.Default.Loss; !(loss >= 0 && loss <= 1) {
		return fmt.Errorf("experiment: -loss %v: loss rate outside [0, 1]", loss)
	}
	if c.MaxRetries < 0 || c.MaxRetries > math.MaxUint8 {
		return fmt.Errorf("experiment: -retries %d: retry limit outside [0, %d]", c.MaxRetries, math.MaxUint8)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("experiment: -retry-backoff %v: negative retry backoff", c.RetryBackoff)
	}
	if c.RetryBackoff > core.MaxRetryBackoff {
		return fmt.Errorf("experiment: -retry-backoff %v: retry backoff past %v", c.RetryBackoff, core.MaxRetryBackoff)
	}
	return nil
}
