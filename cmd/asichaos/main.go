// Command asichaos drives the deterministic chaos harness: it generates
// seeded scenarios (random or catalogue fabrics under loss, delay, hot
// removals/additions and link flaps), executes them through the full
// sim/fabric/core stack, and checks every run against the convergence
// and conservation oracle. Failures are greedily shrunk to a minimal
// reproducer and emitted as JSON, which -replay runs back verbatim.
//
// Usage:
//
//	asichaos -runs 25                       # quick smoke sweep
//	asichaos -runs 50 -profile churn        # back-to-back changes mid-assimilation
//	asichaos -runs 100 -workers 8           # parallel sweep, deterministic output
//	asichaos -runs 25 -algs all             # cross-check all paper algorithms
//	asichaos -seed 7 -profile lossy -v      # one seed, verbose report
//	asichaos -replay repro.json -spans      # re-run a failure, span timeline
//	asichaos -emit-corpus internal/chaos/testdata/corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/span"
)

func main() {
	var common cli.Common
	seed := flag.Uint64("seed", 1, "base seed; run i uses seed+i")
	runs := flag.Int("runs", 1, "number of generated scenarios to execute")
	profile := flag.String("profile", "quick", "generation profile: "+strings.Join(chaos.ProfileNames(), ", "))
	algs := flag.String("algs", "", "\"all\" cross-checks every paper algorithm per scenario; \"scenario\" (default) runs each scenario's own")
	replay := flag.String("replay", "", "replay a scenario JSON file instead of generating")
	shrink := flag.Bool("shrink", true, "greedily shrink failing scenarios before reporting")
	spans := flag.Bool("spans", false, "trace causal spans and print the span report (replay mode)")
	common.RegisterWorkers(flag.CommandLine)
	verbose := flag.Bool("v", false, "print a line per scenario")
	emitCorpus := flag.String("emit-corpus", "", "write the built-in corpus scenarios into a directory and exit")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
	if err := common.Validate(); err != nil {
		fail(2, err)
	}
	if *runs < 1 {
		fail(2, fmt.Errorf("bad -runs %d (valid: 1 or more scenarios)", *runs))
	}

	if *emitCorpus != "" {
		if err := emit(*emitCorpus); err != nil {
			fail(1, err)
		}
		return
	}

	// Telemetry is on for the oracle coverage it adds.
	opt := chaos.Options{Telemetry: true, Spans: *spans}

	if *replay != "" {
		b, err := os.ReadFile(*replay)
		if err != nil {
			fail(2, err)
		}
		sc, err := chaos.DecodeJSON(b)
		if err != nil {
			fail(2, err)
		}
		if err := replayOne(sc, opt, *shrink); err != nil {
			fail(1, err)
		}
		return
	}

	crossCheck := false
	switch *algs {
	case "", "scenario":
	case "all":
		crossCheck = true
	default:
		fail(2, fmt.Errorf("bad -algs %q (valid: scenario, all)", *algs))
	}
	p, ok := chaos.ProfileByName(*profile)
	if !ok {
		fail(2, fmt.Errorf("unknown profile %q (valid: %s)", *profile, strings.Join(chaos.ProfileNames(), ", ")))
	}
	if *spans {
		// The full span report only prints in replay mode; a sweep keeps
		// per-run counts and drops each log as its run completes, so large
		// fabrics don't pin a million-span log per scenario.
		fmt.Fprintln(os.Stderr, "note: sweep mode summarizes spans per run; use -replay for the full span report")
	}

	results := chaos.Sweep(chaos.SweepOptions{
		Seed:       *seed,
		Runs:       *runs,
		Profile:    p,
		Exec:       opt,
		CrossCheck: crossCheck,
		Workers:    common.Workers,
	})
	failures, vacuous := 0, 0
	for _, r := range results {
		if r.Vacuous {
			vacuous++
		}
		if r.Err == nil {
			if *verbose {
				fmt.Printf("ok   %-16s alg=%-13s events=%d fp=%#016x%s\n",
					r.Scenario.Name, r.Scenario.Algorithm, len(r.Scenario.Events),
					r.Fingerprint, spanSummary(r))
			}
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", r.Scenario.Name, r.Err)
		min := r.Scenario
		if *shrink {
			min = chaos.Shrink(r.Scenario, func(c chaos.Scenario) bool {
				return checkOne(c, opt, crossCheck) != nil
			})
			fmt.Fprintf(os.Stderr, "shrunk to %d switches, %d events:\n",
				scenarioSwitches(min), len(min.Events))
		}
		os.Stderr.Write(min.EncodeJSON())
	}
	fmt.Printf("%d scenarios, %d failures, %d vacuous (no trustworthy convergence comparison)\n",
		*runs, failures, vacuous)
	if failures > 0 {
		os.Exit(1)
	}
}

// spanSummary renders the per-run span counts for a verbose sweep line.
func spanSummary(r chaos.SweepResult) string {
	if r.SpanCount == 0 && r.SpanDropped == 0 {
		return ""
	}
	return fmt.Sprintf(" spans=%d(dropped %d)", r.SpanCount, r.SpanDropped)
}

// checkOne executes a scenario (cross-checking every paper algorithm if
// asked) and returns the oracle's verdict; the shrinker uses it as its
// still-failing predicate.
func checkOne(sc chaos.Scenario, opt chaos.Options, crossCheck bool) error {
	if crossCheck {
		return chaos.CrossCheck(sc, opt)
	}
	rep, err := chaos.Execute(sc, opt)
	if err != nil {
		return err
	}
	return (chaos.Oracle{}).Check(rep)
}

// replayOne re-runs one scenario verbatim and prints its full report.
func replayOne(sc chaos.Scenario, opt chaos.Options, shrink bool) error {
	rep, err := chaos.Execute(sc, opt)
	if err != nil {
		return err
	}
	name := sc.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("scenario:       %s (seed %d)\n", name, sc.Seed)
	fmt.Printf("algorithm:      %s\n", sc.Algorithm)
	fmt.Printf("events:         %d scripted, last change at %v\n", len(sc.Events), rep.LastChange)
	fmt.Printf("runs:           %d completed (churn run index %d, audit ran: %v)\n",
		len(rep.Results), rep.ChurnRun, rep.AuditRan)
	fmt.Printf("ground truth:   %d devices / %d links; post-churn DB %d / %d\n",
		rep.WantDevices, rep.WantLinks, rep.PostChurnDevices, rep.PostChurnLinks)
	fmt.Printf("pi5 after last: %d delivered\n", rep.PI5AfterLast)
	fmt.Printf("fingerprint:    %#x (db %#x)\n", rep.Fingerprint, rep.DBFingerprint)
	if rep.Vacuous() {
		fmt.Println("note:           vacuous run — no trustworthy convergence comparison")
	}
	if rep.Spans != nil {
		a, err := span.Analyze(*rep.Spans)
		if err != nil {
			return err
		}
		fmt.Println("\ncausal spans:")
		if err := span.WriteReport(os.Stdout, a); err != nil {
			return err
		}
	}
	if err := (chaos.Oracle{}).Check(rep); err != nil {
		if shrink {
			min := chaos.Shrink(sc, func(c chaos.Scenario) bool {
				r, e := chaos.Execute(c, opt)
				return e != nil || (chaos.Oracle{}).Check(r) != nil
			})
			fmt.Fprintf(os.Stderr, "shrunk to %d switches, %d events:\n",
				scenarioSwitches(min), len(min.Events))
			os.Stderr.Write(min.EncodeJSON())
		}
		return err
	}
	fmt.Println("oracle:         ok")
	return nil
}

// scenarioSwitches counts the scenario topology's switches.
func scenarioSwitches(sc chaos.Scenario) int {
	tp, err := sc.Topology.Build()
	if err != nil {
		return -1
	}
	return tp.NumSwitches()
}

// emit writes the built-in corpus into dir.
func emit(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sc := range chaos.CorpusScenarios() {
		path := filepath.Join(dir, chaos.CorpusFilename(sc))
		if err := os.WriteFile(path, sc.EncodeJSON(), 0o644); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}
