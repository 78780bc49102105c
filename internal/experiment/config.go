package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config is the validated description of one simulation run. It collapses
// the knobs that accreted across RunSpec and core.Options — loss model,
// retry policy, tracing, telemetry — into one place. Build it with
// NewConfig to get validation errors at construction time; the zero
// values of the optional fields reproduce the paper's baseline (lossless
// fabric, no retries, factors of 1, no instrumentation).
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
	// Trace optionally records packet-level fabric events for the run.
	Trace trace.Recorder
	// Telemetry enables per-run metric collection: FM per-phase service
	// and round-trip histograms, fabric per-link/per-VC counters, and
	// engine statistics, snapshotted into Outcome.Telemetry. Enabling it
	// never changes any simulated metric.
	Telemetry bool
	// Spans enables causal span tracing: every FM-issued PI-4 request
	// gets a request span with per-attempt, per-hop, queueing and
	// device-service child spans, snapshotted into Outcome.Spans.
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
		Trace:        c.Trace,
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

// Option adjusts a Config under construction in NewConfig.
type Option func(*Config)

// WithSeed sets the run's reproducibility seed.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithChange selects the topological change to inject.
func WithChange(ch Change) Option {
	return func(c *Config) { c.Change = ch }
}

// WithFactors scales the FM and device processing-time models.
func WithFactors(fmFactor, deviceFactor float64) Option {
	return func(c *Config) { c.FMFactor, c.DeviceFactor = fmFactor, deviceFactor }
}

// WithLoss injects uniform per-link-traversal packet loss.
func WithLoss(rate float64) Option {
	return func(c *Config) { c.LossRate = rate }
}

// WithFaults installs a full fault plan, overriding WithLoss.
func WithFaults(p *fabric.FaultPlan) Option {
	return func(c *Config) { c.Faults = p }
}

// WithRetries configures the FM's timeout-retry policy.
func WithRetries(maxRetries int, backoff sim.Duration) Option {
	return func(c *Config) { c.MaxRetries, c.RetryBackoff = maxRetries, backoff }
}

// WithTrace attaches a packet-level trace recorder.
func WithTrace(rec trace.Recorder) Option {
	return func(c *Config) { c.Trace = rec }
}

// WithTelemetry enables per-run metric collection.
func WithTelemetry() Option {
	return func(c *Config) { c.Telemetry = true }
}

// WithSpans enables causal span tracing for the run.
func WithSpans() Option {
	return func(c *Config) { c.Spans = true }
}

// NewConfig builds and validates a run configuration.
func NewConfig(topology string, alg core.Kind, opts ...Option) (Config, error) {
	cfg := Config{Topology: topology, Algorithm: alg}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// MustConfig is NewConfig for statically known-good configurations; it
// panics on a validation error.
func MustConfig(topology string, alg core.Kind, opts ...Option) Config {
	cfg, err := NewConfig(topology, alg, opts...)
	if err != nil {
		panic(err)
	}
	return cfg
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
