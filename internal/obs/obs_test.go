package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// lineDB builds a synthetic discovery database: a chain of n switches
// hanging off host endpoint DSN 1, with the last tail switches omitted.
func lineDB(n, tail int) *core.DB {
	db := core.NewDB(1)
	db.AddNode(&core.Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1})
	for i := 0; i < n-tail; i++ {
		dsn := asi.DSN(2 + i)
		db.AddNode(&core.Node{DSN: dsn, Type: asi.DeviceSwitch, Ports: 4})
		if i == 0 {
			db.AddLink(core.Link{A: 1, APort: 0, B: dsn, BPort: 0})
		} else {
			db.AddLink(core.Link{A: dsn - 1, APort: 1, B: dsn, BPort: 0})
		}
	}
	return db
}

// sampleAt snapshots reg into a Sample stamped at wall.
func sampleAt(reg *telemetry.Registry, wall time.Time, gen uint64, serving rib.Stats) obs.Sample {
	return obs.Sample{
		Wall:      wall,
		SimPS:     int64(gen) * 1000,
		Gen:       gen,
		Telemetry: reg.Snapshot(),
		Serving:   serving,
	}
}

// exposition renders p and parses it into the first sample of each name.
func exposition(t *testing.T, p *obs.Plane) map[string]obs.PromPoint {
	t.Helper()
	var buf bytes.Buffer
	p.WriteProm(&buf)
	points, _, err := obs.ParseProm(&buf)
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	byName := map[string]obs.PromPoint{}
	for _, pt := range points {
		if _, seen := byName[pt.Name]; !seen {
			byName[pt.Name] = pt
		}
	}
	return byName
}

func TestWindowRatesAndQuantiles(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter("a.count")
	v := reg.CounterVec("v.per", 3)
	h := reg.Histogram("h.lat", "ns", []int64{10, 100, 1000})
	c.Add(10)
	v.Inc(0)
	h.Observe(5)

	p := obs.New(obs.Config{})
	t0 := time.Unix(1000, 0)
	p.Scrape(sampleAt(reg, t0, 1, rib.Stats{}))

	c.Add(20) // +20 over 2s -> 10/s
	v.Inc(1)
	v.Inc(2) // +2 family-wide -> 1/s
	for i := 0; i < 10; i++ {
		h.Observe(50) // all in (10,100]
	}
	p.Scrape(sampleAt(reg, t0.Add(2*time.Second), 2, rib.Stats{}))

	m := exposition(t, p)
	if w := m["asi_obs_window_seconds"].Value; w != 2 {
		t.Fatalf("window %vs, want 2s", w)
	}
	if r := m["asi_a_count_rate"].Value; r != 10 {
		t.Errorf("a.count rate %v, want 10/s", r)
	}
	if r := m["asi_v_per_rate"].Value; r != 1 {
		t.Errorf("v.per family rate %v, want 1/s", r)
	}
	p50, ok := m["asi_h_lat_p50"]
	if !ok {
		t.Fatal("no windowed p50 of h.lat")
	}
	if p50.Value <= 10 || p50.Value > 100 {
		t.Errorf("windowed p50 %v outside the (10,100] bucket", p50.Value)
	}
	if p50.Labels["unit"] != "ns" || m["asi_h_lat_p99"].Labels["unit"] != "ns" {
		t.Errorf("quantile labels %v %v, want unit=ns on both", p50.Labels, m["asi_h_lat_p99"].Labels)
	}
}

func TestRingEvictionAndWindowClamp(t *testing.T) {
	reg := telemetry.New()
	p := obs.New(obs.Config{})
	t0 := time.Unix(2000, 0)
	for i := 0; i < 61; i++ {
		p.Scrape(sampleAt(reg, t0.Add(time.Duration(i)*time.Second), uint64(i+1), rib.Stats{Gen: uint64(i + 1)}))
	}
	if p.Scrapes() != 61 {
		t.Errorf("scrapes %d, want 61", p.Scrapes())
	}
	// The 61st scrape evicts the first: the 60 samples retained span 59
	// steps back, one second each.
	m := exposition(t, p)
	if g, w := m["asi_rib_generation"].Value, m["asi_obs_window_seconds"].Value; g != 61 || w != 59 {
		t.Errorf("window = gen %v over %vs, want gen 61 over 59s", g, w)
	}
}

func TestEventLogBoundedTail(t *testing.T) {
	p := obs.New(obs.Config{})
	// The log holds 1 024 events: the 1 025th evicts the first.
	for i := 1; i <= 1025; i++ {
		p.Log(obs.EventChurnApply, uint64(i), int64(i), "")
	}
	if p.EventsLogged() != 1025 || p.EventsDropped() != 1 {
		t.Errorf("logged %d dropped %d, want 1025/1", p.EventsLogged(), p.EventsDropped())
	}
	evs := p.Events(0)
	if len(evs) != 1024 || evs[0].Gen != 2 || evs[1023].Gen != 1025 {
		t.Fatalf("tail of %d events from gen %d, want gens 2..1025 oldest first", len(evs), evs[0].Gen)
	}
	if got := p.Events(2); len(got) != 2 || got[0].Gen != 1024 || got[1].Gen != 1025 {
		t.Errorf("tail(2) = %+v, want gens 1024,1025", got)
	}

	ts := httptest.NewServer(p.EventsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var lines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d did not parse: %v", lines, err)
		}
		if e.Kind != obs.EventChurnApply {
			t.Errorf("kind %q", e.Kind)
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("served %d NDJSON lines, want 3", lines)
	}
	if resp, err = http.Get(ts.URL + "?n=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: %v %v", err, resp.Status)
	}
	resp.Body.Close()
}

// servingStats builds a rib.Stats with non-trivial staleness and deliver
// latency by driving a real RIB.
func servingStats(t *testing.T) rib.Stats {
	t.Helper()
	r := rib.New(rib.Config{})
	r.Install(lineDB(4, 0))
	sub := r.Subscribe("/")
	defer sub.Close()
	<-sub.Updates()
	stalled := r.Subscribe("/")
	defer stalled.Close()
	for i := 1; i <= 3; i++ {
		r.Install(lineDB(4, i))
		<-sub.Updates()
	}
	return r.Stats()
}

func TestPromExpositionParses(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter("fm.fake-total")
	reg.Gauge("fm.queue.depth").Set(7)
	v := reg.CounterVec("fm.fake.vec", 2)
	h := reg.Histogram("fm.rtt.fake", "ps", []int64{100, 200})
	c.Add(4)
	v.Inc(0)
	h.Observe(150)

	p := obs.New(obs.Config{})
	t0 := time.Unix(3000, 0)
	p.Scrape(sampleAt(reg, t0, 1, rib.Stats{}))
	c.Add(6)
	v.Inc(1)
	h.Observe(50)
	p.Scrape(sampleAt(reg, t0.Add(2*time.Second), 2, servingStats(t)))
	p.Log(obs.EventAudit, 2, 0, "")

	var buf bytes.Buffer
	p.WriteProm(&buf)
	text := buf.String()
	points, types, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition did not parse: %v\n%s", err, text)
	}

	byName := map[string][]obs.PromPoint{}
	for _, pt := range points {
		if math.IsNaN(pt.Value) || math.IsInf(pt.Value, 0) {
			t.Errorf("non-finite sample %s = %v", pt.Name, pt.Value)
		}
		byName[pt.Name] = append(byName[pt.Name], pt)
	}

	checks := []struct {
		name string
		typ  string
		want float64
	}{
		{"asi_up", "gauge", 1},
		{"asi_obs_scrapes_total", "counter", 2},
		{"asi_obs_events_logged_total", "counter", 1},
		{"asi_obs_window_seconds", "gauge", 2},
		{"asi_fm_fake_total", "counter", 10},
		{"asi_fm_fake_total_rate", "gauge", 3}, // +6 over 2s
		{"asi_fm_queue_depth", "gauge", 7},
		{"asi_fm_fake_vec_rate", "gauge", 0.5}, // +1 family-wide over 2s
		{"asi_rib_generation", "gauge", 4},
		{"asi_rib_installs_total", "counter", 4},
	}
	for _, ck := range checks {
		pts := byName[ck.name]
		if len(pts) == 0 {
			t.Errorf("%s missing from exposition", ck.name)
			continue
		}
		if types[ck.name] != ck.typ {
			t.Errorf("%s typed %q, want %q", ck.name, types[ck.name], ck.typ)
		}
		if pts[0].Value != ck.want {
			t.Errorf("%s = %v, want %v", ck.name, pts[0].Value, ck.want)
		}
	}

	// Vector indices carry labels.
	if pts := byName["asi_fm_fake_vec"]; len(pts) != 2 ||
		pts[0].Labels["index"] != "0" || pts[1].Labels["index"] != "1" {
		t.Errorf("vector exposition wrong: %+v", pts)
	}

	// Histogram triple: final bucket equals count; sum sane.
	if types["asi_fm_rtt_fake"] != "histogram" {
		t.Errorf("histogram typed %q", types["asi_fm_rtt_fake"])
	}
	var inf, count float64
	for _, pt := range byName["asi_fm_rtt_fake_bucket"] {
		if pt.Labels["le"] == "+Inf" {
			inf = pt.Value
		}
	}
	if pts := byName["asi_fm_rtt_fake_count"]; len(pts) == 1 {
		count = pts[0].Value
	}
	if inf != 2 || count != 2 {
		t.Errorf("histogram +Inf bucket %v / count %v, want 2/2", inf, count)
	}
	// Windowed quantile gauges exist (one observation in window).
	if len(byName["asi_fm_rtt_fake_p50"]) == 0 || len(byName["asi_fm_rtt_fake_p99"]) == 0 {
		t.Error("windowed histogram quantile gauges missing")
	}

	// Staleness SLO series with quantile labels, ordered.
	sl := map[string]float64{}
	for _, pt := range byName["asi_rib_staleness_generations"] {
		sl[pt.Labels["quantile"]] = pt.Value
	}
	if len(sl) != 3 {
		t.Fatalf("staleness series %v, want quantiles 0.5/0.99/1", sl)
	}
	if sl["1"] < sl["0.99"] || sl["0.99"] < sl["0.5"] {
		t.Errorf("staleness quantiles out of order: %v", sl)
	}
	if sl["1"] == 0 {
		t.Error("stalled subscriber shows zero max staleness")
	}
	// Deliver latency histogram made it through.
	if types["asi_rib_deliver_latency_ns"] != "histogram" {
		t.Errorf("deliver latency typed %q", types["asi_rib_deliver_latency_ns"])
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"1leading_digit 4\n",
		"name{unterminated=\"x\" 4\n",
		"name{l=unquoted} 4\n",
		"name{l=`raw`} 4\n",
		"name{1l=\"x\"} 4\n",
		"name{l=\"x\" m=\"y\"} 4\n",
		"name notafloat\n",
		"# TYPE x sometype\n",
	} {
		if _, _, err := obs.ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm accepted %q", bad)
		}
	}
	// Prometheus-style edge values pass, and so does a label value that
	// ends in an escaped backslash or holds a comma or a brace.
	pts, _, err := obs.ParseProm(strings.NewReader("x +Inf\ny{a=\"b\",c=\"d\"} 1e3\nz{a=\"q\\\\\",b=\",}\",} 2\n"))
	if err != nil || len(pts) != 3 || !math.IsInf(pts[0].Value, 1) || pts[1].Labels["c"] != "d" ||
		pts[2].Labels["a"] != `q\` || pts[2].Labels["b"] != ",}" {
		t.Errorf("edge parse: %+v, %v", pts, err)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("a.count").Add(2)
	p := obs.New(obs.Config{})
	t0 := time.Unix(4000, 0)
	p.Scrape(sampleAt(reg, t0, 1, rib.Stats{}))
	reg.Counter("a.count").Add(2)
	p.Scrape(sampleAt(reg, t0.Add(time.Second), 2, rib.Stats{Gen: 2, Installs: 2}))
	p.Log(obs.EventDiscoveryConverge, 2, 2000, "8 leaves")

	mts := httptest.NewServer(p.MetricsHandler())
	defer mts.Close()
	resp, err := http.Get(mts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.MetricsContentType {
		t.Errorf("metrics content type %q", ct)
	}
	points, _, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("served exposition did not parse: %v", err)
	}
	got := map[string]float64{}
	for _, pt := range points {
		got[pt.Name] = pt.Value
	}
	for name, want := range map[string]float64{
		"asi_rib_generation": 2, "asi_rib_installs_total": 2, "asi_obs_scrapes_total": 2,
		"asi_a_count_rate": 2, "asi_obs_events_logged_total": 1,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// Before any scrape the plane serves a degenerate but valid exposition:
// the plane's own counters and no window.
func TestEmptyPlaneServes(t *testing.T) {
	m := exposition(t, obs.New(obs.Config{}))
	if m["asi_up"].Value != 1 || m["asi_obs_scrapes_total"].Value != 0 {
		t.Errorf("empty exposition %v", m)
	}
	for _, absent := range []string{"asi_obs_window_seconds", "asi_rib_generation"} {
		if _, ok := m[absent]; ok {
			t.Errorf("empty exposition has %s", absent)
		}
	}
}
