// Command asifmd is the long-running fabric-manager daemon: it owns one
// simulated ASI fabric, keeps the discovery engine converged under
// continuous churn, installs every completed discovery into a versioned
// topology RIB, derives a FIB per generation, and streams JSON diffs to
// HTTP subscribers over gNMI-style paths. A continuous observability
// plane scrapes the daemon's telemetry into a ring-buffer time-series
// store and serves it as Prometheus text and a structured event log;
// cmd/asitop renders both, with /stats, as a live dashboard.
//
// Usage:
//
//	asifmd                                   # defaults: 8-port 3-tree, :8080
//	asifmd -config daemon.json               # full config file
//	asifmd -topo "8x8 mesh" -listen :9000    # flag overrides
//	asifmd -rounds 100 -interval 250ms       # bounded churn, 4 rounds/s
//	asifmd -debug :6060                      # net/http/pprof + expvar
//
// Observe with any HTTP client:
//
//	curl -N 'http://localhost:8080/subscribe?path=/fib/routes'
//	curl 'http://localhost:8080/metrics'     # Prometheus exposition
//	curl 'http://localhost:8080/events?n=50' # NDJSON event log tail
//	curl 'http://localhost:8080/stats'       # serving layer + staleness SLO
package main

import (
	_ "expvar" // -debug: /debug/vars on the default mux
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug: /debug/pprof on the default mux
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/rib"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	var common cli.Common
	common.RegisterConfig(flag.CommandLine)
	topoName := flag.String("topo", "", "override the config topology")
	alg := flag.String("alg", "", "override the config algorithm ("+
		"serial-packet, serial-device, parallel, partial; aliases sp, sd, p)")
	seed := flag.Uint64("seed", 0, "override the config seed")
	listen := flag.String("listen", "", "override the config listen address")
	rounds := flag.Int("rounds", 0, "override the config churn-round bound (an explicit 0 runs until stopped)")
	churnOps := flag.Int("churn-ops", -1, "override the config toggles per churn round")
	scrapeMS := flag.Int("scrape-ms", 0, "override the config observability scrape interval in ms (an explicit 0 selects the 1000 ms default)")
	interval := flag.Duration("interval", time.Second, "wall-clock pause between churn rounds")
	debugAddr := flag.String("debug", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	flag.Parse()
	if err := common.Validate(); err != nil {
		fatal(2, err)
	}

	cfg, err := common.LoadDaemonConfig()
	if err != nil {
		fatal(2, err)
	}
	if *topoName != "" {
		cfg.Topology = *topoName
	}
	if *alg != "" {
		k, err := cli.Algorithm(*alg)
		if err != nil {
			fatal(2, err)
		}
		cfg.Algorithm = k.Slug()
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.Seed = *seed
		case "listen":
			cfg.Listen = *listen
		case "rounds":
			cfg.Rounds = *rounds
		case "churn-ops":
			cfg.ChurnOps = *churnOps
		case "scrape-ms":
			cfg.ScrapeMS = *scrapeMS
		}
	})
	if err := cfg.Validate(); err != nil {
		fatal(2, err)
	}

	if *debugAddr != "" {
		// DefaultServeMux already carries /debug/pprof/ (net/http/pprof)
		// and /debug/vars (expvar) from their package imports.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/debug/pprof and /debug/vars\n", *debugAddr)
	}

	d, err := newDaemon(cfg)
	if err != nil {
		fatal(1, err)
	}
	if err := d.bootstrap(); err != nil {
		fatal(1, err)
	}
	d.serve(*interval)
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

// daemon owns the managed fabric (one rig), the serving layer and the
// observability plane. All simulation work happens under mu; the RIB and
// the plane decouple every reader from that hot path.
type daemon struct {
	cfg experiment.DaemonConfig
	rig *rig.Rig
	rib *rib.RIB
	ch  *chaos.Churner

	// mu serializes simulation work (churn rounds, audits) against the
	// periodic telemetry scrape: the registry is not safe for concurrent
	// use, so the scraper and the simulation take turns.
	mu    sync.Mutex
	plane *obs.Plane

	// simNow mirrors the simulation clock (picoseconds) for hooks that
	// fire off the simulation goroutine (RIB overflow/resync events).
	simNow    atomic.Int64
	rounds    int
	lastAudit int // rounds value at the most recent audit
}

func newDaemon(cfg experiment.DaemonConfig) (*daemon, error) {
	tp, err := topo.ByName(cfg.Topology)
	if err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg, plane: obs.New(obs.Config{})}
	// Serving-layer events (subscriber overflow → resync) feed the
	// structured event log; the hook fires without RIB locks held.
	d.rib = rib.New(rib.Config{QueueDepth: cfg.QueueDepth, OnEvent: func(kind string, gen uint64) {
		d.plane.Log(kind, gen, d.simNow.Load(), "")
	}})

	rc := rig.Config{
		Seed:      cfg.Seed,
		Telemetry: true,
		Manager:   core.Options{Algorithm: cfg.Kind()},
	}
	if cfg.AssimWindowUS > 0 {
		rc.Manager.AssimWindow = sim.Micros(float64(cfg.AssimWindowUS))
		rc.Manager.AssimBatchMax = cfg.AssimBatchMax
	}
	if d.rig, err = rig.New(tp, rc); err != nil {
		return nil, err
	}
	d.rig.Manager.OnDiscoveryComplete = func(r core.Result) {
		// The install is the cold-path bridge from simulation to serving:
		// clone the FM database, stamp a generation, fan out diffs.
		gen, diff := d.rib.Install(d.rig.Manager.DB())
		detail := fmt.Sprintf("%s in %s", d.cfg.Kind().Slug(), r.Duration)
		if !diff.Empty() {
			detail += fmt.Sprintf("; +%d/-%d devices +%d/-%d links",
				len(diff.AddedDevices), len(diff.RemovedDevices),
				len(diff.AddedLinks), len(diff.RemovedLinks))
		}
		d.plane.Log(obs.EventDiscoveryConverge, gen, int64(d.rig.Engine.Now()), detail)
	}
	if cfg.ChurnOps > 0 {
		d.ch, err = chaos.NewChurner(tp, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// run drains the simulation to quiescence and publishes the (quiescent)
// simulation clock to the off-goroutine hooks.
func (d *daemon) run() {
	d.rig.Run()
	d.simNow.Store(int64(d.rig.Engine.Now()))
}

// bootstrap runs the transient period: initial discovery plus
// event-route distribution, producing RIB generation 1.
func (d *daemon) bootstrap() error {
	d.plane.Log(obs.EventDiscoveryStart, 0, int64(d.rig.Engine.Now()), "bootstrap")
	err := d.rig.Bootstrap()
	d.simNow.Store(int64(d.rig.Engine.Now()))
	return err
}

// round applies one churn round and drains the simulation back to
// quiescence; PI-5 driven assimilation installs along the way. Callers
// hold d.mu.
func (d *daemon) round() {
	d.rounds++
	evs := d.ch.Round(d.cfg.ChurnOps)
	d.plane.Log(obs.EventChurnApply, d.rib.Current().Gen, int64(d.rig.Engine.Now()),
		fmt.Sprintf("round %d: %d toggles", d.rounds, len(evs)))
	d.applyChurn(evs)
}

// applyChurn injects the toggles, offset from now, and drains to
// quiescence. A toggle the fabric refuses goes to the event log.
func (d *daemon) applyChurn(evs []chaos.Event) {
	base := d.rig.Engine.Now()
	for _, ev := range evs {
		ev.Hotplug(d.rig, base, func(err error) {
			d.plane.Log(obs.EventChurnError, d.rib.Current().Gen, int64(d.rig.Engine.Now()),
				fmt.Sprintf("%s node %d: %v", ev.Op, ev.Node, err))
		})
	}
	d.run()
}

// step is one steady-state tick of serve: a churn round, then a
// re-audit when one of its triggers is armed, then, on every fourth
// round, expiry of dead PI-5 cursors. Each part drains the simulation to
// quiescence, so no debounced report outlives a step. It takes d.mu and
// returns the number of cursors expired.
func (d *daemon) step() (expired int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.round()
	if n := d.cfg.AuditEvery; n > 0 && d.rounds-d.lastAudit >= n {
		d.audit(fmt.Sprintf("%d rounds since audit", d.rounds-d.lastAudit))
	} else if ms := d.cfg.StaleAfterMS; ms > 0 {
		if _, _, max := d.rig.Manager.DBStaleness(); max > sim.Duration(ms)*sim.Millisecond {
			d.audit(fmt.Sprintf("max staleness %v", max))
		}
	}
	if d.rounds%4 == 0 {
		expired = d.rig.Manager.ExpireReporters()
	}
	return expired
}

// audit forces a full rediscovery (one more generation, even when the
// topology is unchanged); detail names what triggered it.
func (d *daemon) audit(detail string) {
	d.plane.Log(obs.EventAudit, d.rib.Current().Gen, int64(d.rig.Engine.Now()), detail)
	d.plane.Log(obs.EventDiscoveryStart, d.rib.Current().Gen, int64(d.rig.Engine.Now()), "audit")
	d.rig.Manager.StartDiscovery()
	d.run()
	d.lastAudit = d.rounds
}

// quiesce restores every churned-down switch and audits, making the
// served state the full topology again.
func (d *daemon) quiesce() {
	if d.ch == nil {
		return
	}
	d.applyChurn(d.ch.Quiesce())
	d.audit("quiesce rediscovery")
}

// scrape publishes the simulation totals into the registry and stores
// one observability sample. It takes d.mu, so it never overlaps
// simulation work.
func (d *daemon) scrape() {
	d.mu.Lock()
	// Refresh the per-node DB-staleness percentile gauges at scrape time:
	// they age with the simulation clock, not with churn.
	d.rig.Manager.RecordDBStaleness()
	snap := d.rig.Snapshot()
	simPS := int64(d.rig.Engine.Now())
	d.mu.Unlock()

	stats := d.rib.Stats() // safe concurrently; outside the sim mutex
	d.plane.Scrape(obs.Sample{
		SimPS:     simPS,
		Gen:       stats.Gen,
		Telemetry: snap,
		Serving:   stats,
	})
}

// handler builds the daemon's full HTTP surface: the RIB's serving
// routes plus the observability plane's two views.
func (d *daemon) handler() http.Handler {
	srv := rib.NewServer(d.rib)
	srv.Handle("GET /metrics", d.plane.MetricsHandler())
	srv.Handle("GET /events", d.plane.EventsHandler())
	return srv.Handler()
}

// scrapeEvery resolves the configured scrape cadence.
func (d *daemon) scrapeEvery() time.Duration {
	if d.cfg.ScrapeMS > 0 {
		return time.Duration(d.cfg.ScrapeMS) * time.Millisecond
	}
	return time.Second
}

// serve streams forever (or for cfg.Rounds rounds): HTTP on cfg.Listen,
// one step per interval on this goroutine, scrapes paced by cfg.ScrapeMS
// on their own.
func (d *daemon) serve(interval time.Duration) {
	ln, err := net.Listen("tcp", d.cfg.Listen)
	if err != nil {
		fatal(1, err)
	}
	go http.Serve(ln, d.handler())
	fmt.Fprintf(os.Stderr, "asifmd: managing %q (%s), serving on http://%s\n",
		d.cfg.Topology, d.cfg.Kind(), ln.Addr())

	d.scrape() // populate /metrics before the first tick
	go func() {
		t := time.NewTicker(d.scrapeEvery())
		defer t.Stop()
		for range t.C {
			d.scrape()
		}
	}()

	if d.ch == nil {
		fmt.Fprintln(os.Stderr, "asifmd: churn disabled; serving the initial discovery")
		select {} // serve until the process is stopped
	}
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for d.cfg.Rounds == 0 || d.rounds < d.cfg.Rounds {
		<-tick.C
		expired := d.step()
		s := d.rib.Stats()
		fmt.Fprintf(os.Stderr, "asifmd: round %d gen %d leaves %d subscribers %d down %d lag(p99) %d\n",
			d.rounds, s.Gen, s.Leaves, s.Subscribers, d.ch.Down(), s.Staleness.P99)
		if expired > 0 {
			fmt.Fprintf(os.Stderr, "asifmd: expired %d dead PI-5 cursors\n", expired)
		}
	}
	d.mu.Lock()
	d.quiesce()
	d.mu.Unlock()
	fmt.Fprintf(os.Stderr, "asifmd: %d rounds done, fabric quiesced at gen %d; still serving\n",
		d.rounds, d.rib.Current().Gen)
	select {} // serve until the process is stopped
}
