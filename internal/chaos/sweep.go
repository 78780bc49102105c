package chaos

import "repro/internal/rig"

// SweepOptions configures a seeded batch of generated scenarios.
type SweepOptions struct {
	// Seed is the base seed; run i executes Generate(Seed+i, Profile).
	Seed    uint64
	Runs    int
	Profile Profile
	// Exec is passed through to Execute for every run.
	Exec Options
	// CrossCheck runs every paper algorithm per scenario instead of the
	// scenario's own.
	CrossCheck bool
	// Workers bounds concurrent executions; <= 0 means GOMAXPROCS.
	Workers int
}

// SweepResult is one run's deterministic outcome. Everything here
// depends only on (Scenario, Exec options) — never on worker count or
// scheduling — so a sweep's results can be byte-compared across
// parallelism levels.
type SweepResult struct {
	Scenario Scenario
	// Fingerprint is the run's combined observable hash:
	// Report.Fingerprint for a single-algorithm run, the cross-check's
	// fold over every mode otherwise. Zero when the scenario could not
	// execute at all (oracle verdicts still fingerprint the run).
	Fingerprint uint64
	// Vacuous reports a run with no trustworthy convergence comparison
	// (single-algorithm runs only).
	Vacuous bool
	// SpanCount/SpanDropped summarize the run's span log when spans were
	// requested; the log itself is discarded so a long sweep at scale
	// holds at most Workers logs in memory at once.
	SpanCount   int
	SpanDropped int
	Err         error
}

// Sweep generates and executes Runs scenarios across a bounded worker
// pool, preserving run order in the returned slice. Execute is pure —
// each run owns its engine, fabric, and seed-derived RNG, and the chaos
// package keeps no mutable package state — so the same SweepOptions
// yield identical results at any Workers setting; parallelism only buys
// wall-clock time.
func Sweep(o SweepOptions) []SweepResult {
	out := make([]SweepResult, o.Runs)
	rig.ForEach(o.Runs, o.Workers, func(i int) {
		out[i] = sweepOne(Generate(o.Seed+uint64(i), o.Profile), o)
	})
	return out
}

// sweepOne executes a single generated scenario under the sweep's
// options.
func sweepOne(sc Scenario, o SweepOptions) SweepResult {
	res := SweepResult{Scenario: sc}
	if o.CrossCheck {
		res.Fingerprint, res.Err = crossCheck(sc, o.Exec)
		return res
	}
	rep, err := Execute(sc, o.Exec)
	if err != nil {
		res.Err = err
		return res
	}
	res.Fingerprint = rep.Fingerprint
	res.Vacuous = rep.Vacuous()
	if rep.Spans != nil {
		res.SpanCount = len(rep.Spans.Spans)
		res.SpanDropped = rep.Spans.Dropped
	}
	res.Err = (Oracle{}).Check(rep)
	return res
}
