package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrapeMetrics fetches and parses /metrics into per-name samples.
func scrapeMetrics(t *testing.T, url string) (map[string][]obs.PromPoint, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.MetricsContentType {
		t.Errorf("content type %q", ct)
	}
	points, types, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	byName := map[string][]obs.PromPoint{}
	for _, pt := range points {
		if math.IsNaN(pt.Value) || math.IsInf(pt.Value, 0) {
			t.Errorf("non-finite sample %s = %v", pt.Name, pt.Value)
		}
		byName[pt.Name] = append(byName[pt.Name], pt)
	}
	return byName, types
}

// TestObsSmoke drives the full observability plane end to end: an
// in-process asifmd under churn, scraped twice over HTTP, must serve
// machine-parseable Prometheus text with finite windowed rates, populated
// staleness percentiles, unit-labelled windowed quantiles and an NDJSON
// event log.
func TestObsSmoke(t *testing.T) {
	d := startDaemon(t, "-topo", "4x4 mesh", "-churn-ops", "2", "-audit-every", "2")
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// A consuming subscriber and a stalled one: the staleness SLO gets a
	// population with spread.
	fresh := d.rib.Subscribe("/")
	defer fresh.Close()
	go func() {
		for range fresh.Updates() {
		}
	}()
	stalled := d.rib.Subscribe("/")
	defer stalled.Close()

	// First scrape, three steps of churn, second scrape: the window
	// between them makes the rates non-degenerate, and the re-audit
	// (-audit-every 2) fires along the way.
	d.scrape()
	first, _ := scrapeMetrics(t, ts.URL)
	for d.rounds < 3 {
		d.step()
	}
	d.scrape()
	second, types := scrapeMetrics(t, ts.URL)

	value := func(m map[string][]obs.PromPoint, name string) float64 {
		pts := m[name]
		if len(pts) == 0 {
			t.Fatalf("%s missing from exposition", name)
		}
		return pts[0].Value
	}

	// Cumulative counters advanced across the churn.
	if f, s := value(first, "asi_sim_events"), value(second, "asi_sim_events"); s <= f {
		t.Errorf("sim.events did not advance: %v -> %v", f, s)
	}
	if g := value(second, "asi_rib_generation"); g <= 1 {
		t.Errorf("generation %v after churn", g)
	}
	if types["asi_sim_events"] != "counter" || types["asi_rib_generation"] != "gauge" {
		t.Errorf("types drifted: %v %v", types["asi_sim_events"], types["asi_rib_generation"])
	}

	// Windowed rates exist and are finite (ParseProm already rejected
	// NaN/Inf); the event rate must be positive across a churn window.
	if r := value(second, "asi_sim_events_rate"); r <= 0 {
		t.Errorf("windowed event rate %v, want > 0", r)
	}
	if w := value(second, "asi_obs_window_seconds"); w <= 0 {
		t.Errorf("window %vs", w)
	}

	// Staleness SLO populated: three quantile series, max > 0 thanks to
	// the stalled subscriber.
	sl := map[string]float64{}
	for _, pt := range second["asi_rib_staleness_generations"] {
		sl[pt.Labels["quantile"]] = pt.Value
	}
	if len(sl) != 3 {
		t.Fatalf("staleness series %v, want quantiles 0.5/0.99/1", sl)
	}
	if sl["1"] == 0 {
		t.Error("stalled subscriber shows zero max staleness")
	}
	if sl["1"] < sl["0.99"] || sl["0.99"] < sl["0.5"] {
		t.Errorf("staleness quantiles out of order: %v", sl)
	}
	// The consuming subscriber produced deliver-latency observations.
	if c := value(second, "asi_rib_deliver_latency_ns_count"); c == 0 {
		t.Error("deliver latency histogram empty")
	}

	// Every windowed quantile gauge carries its histogram's unit.
	quantiles := 0
	for name, pts := range second {
		base, ok := strings.CutSuffix(name, "_p50")
		if !ok {
			base, ok = strings.CutSuffix(name, "_p99")
		}
		if !ok || types[base] != "histogram" {
			continue
		}
		quantiles++
		if u := pts[0].Labels["unit"]; u == "" {
			t.Errorf("%s carries no unit label", name)
		}
	}
	if quantiles == 0 {
		t.Error("no windowed quantile gauges in the exposition")
	}
	if u := second["asi_fm_rtt_port_read_p50"]; len(u) == 0 || u[0].Labels["unit"] != "ps" {
		t.Errorf("asi_fm_rtt_port_read_p50 = %+v, want a unit=\"ps\" sample", u)
	}
	// The event log streamed NDJSON with converge and churn entries.
	resp, err := http.Get(ts.URL + "/events?n=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("event line did not parse: %v", err)
		}
		kinds[e.Kind]++
	}
	for _, want := range []string{obs.EventDiscoveryStart, obs.EventDiscoveryConverge, obs.EventChurnApply, obs.EventAudit} {
		if kinds[want] == 0 {
			t.Errorf("no %q event logged (saw %v)", want, kinds)
		}
	}
}
