package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
)

// config is the daemon's settings: the fabric it manages, the discovery
// algorithm it runs, and the churn, audit and serving knobs of its
// steady state. Each field has exactly one flag, whose usage line in
// parseFlags documents it.
type config struct {
	topology      string        // -topo: catalogue or parametric name
	alg           core.Kind     // -alg: never Distributed
	seed          uint64        // -seed: fabric build and churn schedule
	listen        string        // -listen: HTTP serving address
	rounds        int           // -rounds: 0 runs until the process is stopped
	churnOps      int           // -churn-ops: switch toggles per round
	auditEvery    int           // -audit-every: rounds between forced audits
	staleAfterMS  int           // -stale-after-ms: DB staleness that re-audits
	assimWindowUS int           // -assim-window-us: PI-5 coalescing window
	scrapeMS      int           // -scrape-ms: observability scrape interval
	interval      time.Duration // -interval: wall-clock pause between rounds
	debug         string        // -debug: pprof and expvar address
}

// parseFlags parses the daemon's command line into a validated config;
// a flag not given keeps its documented default. Every refusal names its
// flag and is reported on out.
func parseFlags(out io.Writer, args []string) (config, error) {
	c := config{alg: core.Parallel}
	fs := flag.NewFlagSet("asifmd", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&c.topology, "topo", "8-port 3-tree", "managed fabric: a catalogue or parametric topology name")
	fs.Func("alg", "discovery `algorithm`: "+strings.Join(cli.AlgorithmNames(), ", ")+
		"; aliases sp, sd, p (default parallel)", func(s string) (err error) {
		c.alg, err = cli.Algorithm(s)
		return err
	})
	fs.Uint64Var(&c.seed, "seed", 1, "random seed: fabric build and churn schedule")
	fs.StringVar(&c.listen, "listen", ":8080", "HTTP serving address")
	fs.IntVar(&c.rounds, "rounds", 0, "churn rounds before the fabric is quiesced (0 runs until stopped)")
	fs.IntVar(&c.churnOps, "churn-ops", 4, "switch toggles per churn round (0 disables churn)")
	fs.IntVar(&c.auditEvery, "audit-every", 8, "force a full rediscovery every N rounds (0 disables)")
	fs.IntVar(&c.staleAfterMS, "stale-after-ms", 0, "re-audit when the maximum per-node DB staleness exceeds this many simulated ms (0 disables)")
	fs.IntVar(&c.assimWindowUS, "assim-window-us", 0, "coalesce PI-5 reports for this many simulated us per partial run (requires -alg partial; 0 assimilates each)")
	fs.IntVar(&c.scrapeMS, "scrape-ms", 1000, "observability scrape interval in ms")
	fs.DurationVar(&c.interval, "interval", time.Second, "wall-clock pause between churn rounds")
	fs.StringVar(&c.debug, "debug", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return config{}, err // fs has reported it
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(out, err)
		return config{}, err
	}
	return c, nil
}

// validate checks what the flag types do not; each error names its flag
// and the valid values.
func (c config) validate() error {
	if _, err := cli.Topology(c.topology); err != nil {
		return fmt.Errorf("bad -topo: %v", err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"rounds", c.rounds}, {"churn-ops", c.churnOps}, {"audit-every", c.auditEvery},
		{"stale-after-ms", c.staleAfterMS}, {"assim-window-us", c.assimWindowUS},
	} {
		if f.v < 0 {
			return fmt.Errorf("bad -%s %d (valid: 0 to disable, or a positive count)", f.name, f.v)
		}
	}
	if c.assimWindowUS > 0 && c.alg != core.Partial {
		return fmt.Errorf("bad -assim-window-us %d: coalescing requires -alg %s, not %s",
			c.assimWindowUS, core.Partial.Slug(), c.alg.Slug())
	}
	if c.scrapeMS <= 0 {
		return fmt.Errorf("bad -scrape-ms %d (valid: a positive interval)", c.scrapeMS)
	}
	if c.interval <= 0 {
		return fmt.Errorf("bad -interval %v (valid: a positive duration)", c.interval)
	}
	return nil
}
