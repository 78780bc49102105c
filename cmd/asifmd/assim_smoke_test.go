package main

import (
	"net/http/httptest"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
)

// TestAssimSmoke proves the continuous-assimilation engine end to end.
// It drives 12 steps of churn against the coalescing partial FM back to
// back (no wall sleeping), restores the fabric, and fails unless
//
//   - the final audited database matches the live ground truth with a
//     path-consistent view,
//   - the /metrics exposition served over a real socket shows the
//     coalesced assimilation the run has always produced (152 PI-5s, 142
//     of them coalesced, 10 flushes, generation 21) and the DB-staleness
//     gauges are populated, and
//   - no report is left stranded in the debounce window.
//
// It logs the sustained assimilated PI-5 rate in simulated time.
func TestAssimSmoke(t *testing.T) {
	const rounds = 12
	cfg := experiment.DefaultDaemonConfig()
	cfg.Algorithm = core.Partial.Slug()
	cfg.AssimWindowUS = 200
	cfg.StaleAfterMS = 5
	d := startDaemon(t, cfg)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	startPS := d.rig.Engine.Now()
	for d.rounds < rounds {
		d.step()
	}
	d.mu.Lock()
	d.quiesce()
	pending := d.rig.Manager.AssimPending()
	res, haveRes := d.rig.Manager.LastResult()
	d.mu.Unlock()

	if pending != 0 {
		t.Errorf("%d reports stranded in the debounce window after quiesce", pending)
	}
	if !haveRes {
		t.Fatal("no discovery run ever completed")
	}
	if err := chaos.CheckConverged(d.rig.Fabric, d.rig.Manager, res); err != nil {
		t.Fatalf("post-quiesce audit diverged: %v", err)
	}

	// Scrape, then assert over the wire exactly what an operator's
	// dashboard would query.
	d.scrape()
	byName, _ := scrapeMetrics(t, ts.URL)
	metric := func(name string) float64 {
		pts := byName[name]
		if len(pts) == 0 {
			t.Fatalf("%s missing from /metrics", name)
		}
		return pts[0].Value
	}
	events := metric("asi_fm_assim_events")
	coalesced := metric("asi_fm_assim_events_coalesced")
	flushes := metric("asi_fm_assim_flushes")
	gen := d.rib.Stats().Gen
	if events != 152 || coalesced != 142 || flushes != 10 || gen != 21 {
		t.Errorf("%v PI-5s assimilated (%v coalesced, %v flushes) over %d generations; want 152 (142, 10) over 21",
			events, coalesced, flushes, gen)
	}
	for _, name := range []string{"asi_fm_db_staleness_p50", "asi_fm_db_staleness_p99", "asi_fm_db_staleness_max"} {
		metric(name)
	}
	if simSpan := d.rig.Engine.Now().Sub(startPS); simSpan > 0 {
		t.Logf("%q: sustained %.0f PI-5s/s (sim)", d.cfg.Topology, events/(float64(simSpan)/float64(sim.Second)))
	}
}
