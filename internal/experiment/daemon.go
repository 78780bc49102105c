package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/topo"
)

// DaemonConfig describes one long-running fabric-manager daemon
// (cmd/asifmd): the fabric it manages, the discovery algorithm it runs,
// and the churn and serving knobs of its steady state. It is the
// daemon-mode analogue of Config: where Config describes one finite
// measured run, DaemonConfig describes an open-ended process, and it is
// loaded as JSON from a -config file.
type DaemonConfig struct {
	// Topology names the managed fabric (catalogue or parametric name).
	Topology string `json:"topology"`
	// Algorithm is a core.Kind slug; empty selects "parallel".
	Algorithm string `json:"algorithm"`
	// Seed drives every random stream: fabric build, churn schedule.
	Seed uint64 `json:"seed"`
	// ChurnOps is the number of switch up/down toggles per churn round;
	// 0 disables churn (the daemon only serves the initial discovery).
	ChurnOps int `json:"churn_ops"`
	// Rounds bounds the daemon's churn rounds; 0 means run until the
	// process is stopped.
	Rounds int `json:"rounds,omitempty"`
	// AuditEvery forces a full rediscovery after every N rounds (0
	// disables forced audits; change assimilation still runs on PI-5).
	AuditEvery int `json:"audit_every"`
	// QueueDepth bounds each subscriber's batch queue; 0 selects the
	// serving layer's default.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Listen is the HTTP serving address; empty selects ":8080".
	Listen string `json:"listen"`
	// ScrapeMS is the observability plane's scrape interval in
	// milliseconds; 0 selects the default (1000).
	ScrapeMS int `json:"scrape_ms"`
	// AssimWindowUS enables the coalescing assimilation front-end
	// (requires the "partial" algorithm): PI-5 reports debounce for this
	// many microseconds of simulated time, then one batched partial run
	// assimilates the union. 0 keeps per-event assimilation.
	AssimWindowUS int `json:"assim_window_us,omitempty"`
	// StaleAfterMS makes the daemon's step re-audit whenever the
	// maximum per-node database staleness (simulated time since last
	// validated contact) exceeds this many milliseconds; 0 disables the
	// staleness trigger (AuditEvery still audits by round count).
	StaleAfterMS int `json:"stale_after_ms,omitempty"`
}

// DefaultDaemonConfig returns the documented defaults.
func DefaultDaemonConfig() DaemonConfig {
	return DaemonConfig{
		Topology:   "8-port 3-tree",
		Algorithm:  core.Parallel.Slug(),
		Seed:       1,
		ChurnOps:   4,
		AuditEvery: 8,
		Listen:     ":8080",
		ScrapeMS:   1000,
	}
}

// kindSlugs names every accepted algorithm slug, for error messages.
func kindSlugs() string {
	var slugs []string
	for _, k := range core.AllKinds() {
		if k == core.Distributed {
			continue // needs a multi-FM team; not a daemon algorithm
		}
		slugs = append(slugs, k.Slug())
	}
	return strings.Join(slugs, ", ")
}

// Validate checks the config and resolves nothing: call Kind and
// topo.ByName afterwards. Errors name the valid values.
func (dc DaemonConfig) Validate() error {
	if dc.Topology == "" {
		return fmt.Errorf("experiment: daemon config has no topology (catalogue: %s; or parametric like %q)",
			strings.Join(topo.Names(), ", "), "8x8 mesh")
	}
	if _, err := topo.ByName(dc.Topology); err != nil {
		return fmt.Errorf("experiment: daemon config: %w", err)
	}
	if dc.Algorithm != "" {
		k, ok := core.KindBySlug(dc.Algorithm)
		if !ok || k == core.Distributed {
			return fmt.Errorf("experiment: daemon config algorithm %q (valid: %s)", dc.Algorithm, kindSlugs())
		}
	}
	if dc.ChurnOps < 0 {
		return fmt.Errorf("experiment: daemon config churn_ops %d is negative", dc.ChurnOps)
	}
	if dc.Rounds < 0 {
		return fmt.Errorf("experiment: daemon config rounds %d is negative", dc.Rounds)
	}
	if dc.AuditEvery < 0 {
		return fmt.Errorf("experiment: daemon config audit_every %d is negative", dc.AuditEvery)
	}
	if dc.QueueDepth < 0 {
		return fmt.Errorf("experiment: daemon config queue_depth %d is negative", dc.QueueDepth)
	}
	if dc.ScrapeMS < 0 {
		return fmt.Errorf("experiment: daemon config scrape_ms %d is negative", dc.ScrapeMS)
	}
	if dc.AssimWindowUS < 0 {
		return fmt.Errorf("experiment: daemon config assim_window_us %d is negative", dc.AssimWindowUS)
	}
	if dc.AssimWindowUS > 0 && dc.Kind() != core.Partial {
		return fmt.Errorf("experiment: daemon config assim_window_us requires algorithm %q, not %q",
			core.Partial.Slug(), dc.Kind().Slug())
	}
	if dc.StaleAfterMS < 0 {
		return fmt.Errorf("experiment: daemon config stale_after_ms %d is negative", dc.StaleAfterMS)
	}
	return nil
}

// Kind resolves the algorithm slug (default parallel). Call after
// Validate.
func (dc DaemonConfig) Kind() core.Kind {
	if dc.Algorithm == "" {
		return core.Parallel
	}
	k, _ := core.KindBySlug(dc.Algorithm)
	return k
}

// DecodeDaemonConfig parses a daemon config, rejecting unknown fields so
// config files cannot silently rot, and validates it.
func DecodeDaemonConfig(r io.Reader) (DaemonConfig, error) {
	dc := DefaultDaemonConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dc); err != nil {
		return DaemonConfig{}, fmt.Errorf("experiment: decoding daemon config: %w", err)
	}
	if err := dc.Validate(); err != nil {
		return DaemonConfig{}, err
	}
	return dc, nil
}

// EncodeJSON renders the config as indented JSON with a trailing
// newline. A field whose default is not its zero value is always
// written: a config that sets it to zero (churn_ops 0 disables churn)
// must not decode back to the default.
func (dc DaemonConfig) EncodeJSON() []byte {
	b, err := json.MarshalIndent(dc, "", "  ")
	if err != nil {
		panic(err) // plain-data struct; cannot fail
	}
	return append(b, '\n')
}
