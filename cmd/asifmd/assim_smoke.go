package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// runAssimSmoke is `-assim-smoke N`: the continuous-assimilation
// verification mode behind `make assim-smoke`. It drives N keeper-driven
// churn rounds against the coalescing partial FM on a synthetic clock
// (every concern fires at its exact deadline, no wall sleeping),
// restores the fabric, and fails unless
//
//   - the final audited database matches the live ground truth with a
//     path-consistent view,
//   - the /metrics exposition served over a real socket shows coalesced
//     assimilation happened (events, coalesced subset, flushes) and the
//     DB-staleness gauges are populated, and
//   - no report is left stranded in the debounce window.
//
// It prints the sustained assimilated PI-5 rate in simulated time.
func (d *daemon) runAssimSmoke(rounds int, jsonOut bool) error {
	if d.ch == nil {
		return fmt.Errorf("asifmd: assim-smoke needs churn (set churn_ops > 0)")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, d.handler())

	const interval = 100 * time.Millisecond
	now := time.Now()
	k := d.newKeeper(now, interval, true)
	startPS := d.rig.Now()
	for d.rounds < rounds {
		// Once returns the earliest next deadline; jumping the synthetic
		// clock straight to it exercises every concern's own cadence.
		now = k.Once(now)
	}
	d.mu.Lock()
	d.quiesce()
	pending := d.rig.Manager.AssimPending()
	res, haveRes := d.rig.Manager.LastResult()
	d.mu.Unlock()

	if pending != 0 {
		return fmt.Errorf("asifmd: %d reports stranded in the debounce window after quiesce", pending)
	}
	if !haveRes {
		return fmt.Errorf("asifmd: no discovery run ever completed")
	}
	if err := chaos.CheckConverged(d.rig.Fabric, d.rig.Manager, res); err != nil {
		return fmt.Errorf("asifmd: post-quiesce audit diverged: %w", err)
	}

	// Scrape, then assert over the wire exactly what an operator's
	// dashboard would query.
	d.scrape()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ln.Addr()))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	points, _, err := obs.ParseProm(resp.Body)
	if err != nil {
		return fmt.Errorf("asifmd: /metrics did not parse: %w", err)
	}
	metric := func(name string) (float64, bool) {
		for _, pt := range points {
			if pt.Name == name {
				return pt.Value, true
			}
		}
		return 0, false
	}
	events, _ := metric("asi_fm_assim_events")
	coalesced, _ := metric("asi_fm_assim_events_coalesced")
	flushes, _ := metric("asi_fm_assim_flushes")
	if events == 0 || coalesced == 0 || flushes == 0 {
		return fmt.Errorf("asifmd: coalescing left no metric trace: %v events, %v coalesced, %v flushes",
			events, coalesced, flushes)
	}
	if flushes >= events {
		return fmt.Errorf("asifmd: %v flushes for %v events; coalescing saved nothing", flushes, events)
	}
	for _, name := range []string{"asi_fm_db_staleness_p50", "asi_fm_db_staleness_p99", "asi_fm_db_staleness_max"} {
		if _, ok := metric(name); !ok {
			return fmt.Errorf("asifmd: %s missing from /metrics", name)
		}
	}

	simSpan := d.rig.Now().Sub(startPS)
	perSec := 0.0
	if simSpan > 0 {
		perSec = events / (float64(simSpan) / float64(sim.Second))
	}
	s := d.rib.Stats()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"topology":        d.cfg.Topology,
			"algorithm":       d.cfg.Kind().Slug(),
			"rounds":          d.rounds,
			"generations":     s.Gen,
			"assim_events":    events,
			"assim_coalesced": coalesced,
			"assim_flushes":   flushes,
			"pi5_per_sec_sim": perSec,
		})
	} else {
		fmt.Printf("asifmd assim-smoke: %q %s: %d rounds, %d generations, %.0f PI-5s assimilated "+
			"(%.0f coalesced, %.0f flushes), sustained %.0f PI-5s/s (sim): OK\n",
			d.cfg.Topology, core.Partial.Slug(), d.rounds, s.Gen, events, coalesced, flushes, perSec)
	}
	return nil
}
