package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rib"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// served starts what asifmd's handler mounts — rib.NewServer plus the
// plane's /metrics and /events — over an 8x8 torus under coalesced
// Partial assimilation. The plane holds two scrapes one wall second
// apart with a switch toggled down and back between them; every
// discovery installs into the RIB and logs its event, and a subscriber
// consumes the stream.
func served(t *testing.T) *httptest.Server {
	t.Helper()
	tp, err := topo.ByName("8x8 torus")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Telemetry: true,
		Manager: core.Options{Algorithm: core.Partial, AssimWindow: 200 * sim.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	rb := rib.New(rib.Config{})
	plane := obs.New(obs.Config{})
	r.Manager.OnDiscoveryComplete = func(core.Result) {
		gen, _ := rb.Install(r.Manager.DB())
		plane.Log(obs.EventDiscoveryConverge, gen, int64(r.Engine.Now()), "")
	}
	if err := r.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sub := rb.Subscribe("/")
	t.Cleanup(sub.Close)
	go func() {
		for range sub.Updates() {
		}
	}()
	t0 := time.Unix(8000, 0)
	scrape := func(wall time.Time) {
		r.Manager.RecordDBStaleness()
		plane.Scrape(obs.Sample{Wall: wall, SimPS: int64(r.Engine.Now()), Gen: rb.Current().Gen,
			Telemetry: r.Snapshot(), Serving: rb.Stats()})
	}
	scrape(t0)
	sw := r.Fabric.RandomSwitch(r.RNG)
	for _, down := range []bool{true, false} {
		if err := r.Toggle(sw, down); err != nil {
			t.Fatal(err)
		}
		r.Run()
	}
	scrape(t0.Add(time.Second))
	// The subscriber's reader records a delivery after taking the batch.
	for deadline := time.Now().Add(5 * time.Second); rb.Stats().DeliverLatency.Count == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the subscriber consumed no batch")
		}
		time.Sleep(time.Millisecond)
	}

	srv := rib.NewServer(rb)
	srv.Handle("GET /metrics", plane.MetricsHandler())
	srv.Handle("GET /events", plane.EventsHandler())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fetchFrame polls ts once and renders the frame.
func fetchFrame(t *testing.T, ts *httptest.Server, events int) (*frame, string) {
	t.Helper()
	f, err := fetch(&http.Client{Timeout: 5 * time.Second}, ts.URL+"/", events)
	if err != nil {
		t.Fatal(err)
	}
	hist := map[string][]float64{}
	push(hist, f.rates)
	return f, render(f, hist, ts.URL)
}

// TestOnceFrame runs the -once pipeline against the daemon's real
// handlers: every block of the frame renders from /metrics, /stats and
// /events.
func TestOnceFrame(t *testing.T) {
	ts := served(t)
	before := time.Now()
	f, frame := fetchFrame(t, ts, 2)
	if f.at.Before(before) || f.at.After(time.Now()) {
		t.Errorf("frame clock %v is not the fetch time", f.at)
	}
	if f.serving.Gen == 0 {
		t.Error("the served RIB is at generation 0")
	}
	if len(f.events) != 2 {
		t.Errorf("-events 2 fetched %d events", len(f.events))
	}
	dur := `[0-9.]+(ps|ns|us|ms|s)`
	for _, want := range []string{
		fmt.Sprintf(`(?m)^gen %d +sim `, f.serving.Gen) + dur + ` +window 1\.0s +scrapes 2$`,
		`(?m)^  sim_events +[0-9.]+/s  \S+$`,
		`(?m)^db-stale  p50 ` + dur + ` +p99 ` + dur + ` +max ` + dur,
		`(?m)^assim +[0-9.]+ PI-5/s assimilated .* batch p50 \d+ p99 \d+$`,
		`(?m)^  fm_rtt_\S+ +p50 ` + dur + ` +p99 ` + dur + `$`,
		`(?m)^serving   installs [1-9]\d* +leaves [1-9]\d* +subscribers 1 `,
		`(?m)^staleness p50 \d+ +p99 \d+ +max \d+ `,
		`(?m)^deliver   p50 \S+ +p99 \S+ +\([1-9]\d* observations\)$`,
		`(?m)^events \([1-9]\d* logged, 0 dropped\)$`,
		`(?m)^  \d\d:\d\d:\d\d  gen [1-9]\d* +discovery\.converge`,
	} {
		if !regexp.MustCompile(want).MatchString(frame) {
			t.Errorf("frame has no line matching %s:\n%s", want, frame)
		}
	}
}

// metricsFrame renders the frame asitop builds from the /metrics of a
// plane that scrapes reg, lets between change it, and scrapes it again
// one wall second later.
func metricsFrame(t *testing.T, reg *telemetry.Registry, between func()) string {
	t.Helper()
	p := obs.New(obs.Config{})
	t0 := time.Unix(9000, 0)
	p.Scrape(obs.Sample{Wall: t0, Telemetry: reg.Snapshot()})
	between()
	p.Scrape(obs.Sample{Wall: t0.Add(time.Second), Telemetry: reg.Snapshot()})
	var buf bytes.Buffer
	p.WriteProm(&buf)
	f := &frame{values: map[string]float64{}}
	if err := f.readMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return render(f, map[string][]float64{}, "http://test")
}

// TestRenderAssimBlock pins the assimilation block of the frame to the
// series it reads: each staleness gauge, each coalescing rate and each
// batch-size quantile has a value no other column shares.
func TestRenderAssimBlock(t *testing.T) {
	reg := telemetry.New()
	events := reg.Counter(core.MetricFMAssimEvents)
	coalesced := reg.Counter(core.MetricFMAssimCoalesced)
	flushes := reg.Counter(core.MetricFMAssimFlushes)
	batch := reg.Histogram(core.MetricFMAssimBatch, "events", []int64{4, 8, 16})
	frame := metricsFrame(t, reg, func() {
		reg.Gauge(core.MetricFMDBStaleP50).Set(int64(40 * sim.Microsecond))
		reg.Gauge(core.MetricFMDBStaleP99).Set(int64(900 * sim.Microsecond))
		reg.Gauge(core.MetricFMDBStaleMax).Set(int64(2 * sim.Millisecond))
		events.Add(121)
		coalesced.Add(110)
		flushes.Add(8)
		// Three batches in (4, 8] and one in (8, 16]: the windowed p50
		// interpolates to 4+4·2/3 ≈ 7, the p99 to 8+8·0.96 ≈ 16.
		for _, n := range []int64{5, 6, 7, 12} {
			batch.Observe(n)
		}
	})
	for _, want := range []string{
		`(?m)^db-stale  p50 40\.000us +p99 900\.000us +max 2\.000ms +\(`,
		`(?m)^assim     121\.0 PI-5/s assimilated   110\.0/s coalesced   8\.0 flushes/s   batch p50 7 p99 16$`,
	} {
		if !regexp.MustCompile(want).MatchString(frame) {
			t.Errorf("frame has no line matching %s:\n%s", want, frame)
		}
	}
}

// TestRenderNoAssim checks the block degrades cleanly: no staleness
// gauges and no PI-5 flow leave the frame free of assimilation lines.
func TestRenderNoAssim(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(core.MetricFMAssimEvents).Add(3)
	frame := metricsFrame(t, reg, func() {})
	for _, absent := range []string{"db-stale", "assimilated"} {
		if strings.Contains(frame, absent) {
			t.Errorf("idle frame still shows %q:\n%s", absent, frame)
		}
	}
}

// TestCheckFlagsRefusesBusyPolling: -interval 0 would poll the daemon
// in a tight loop and a negative -events retry a 400 forever, so both are
// refused, naming the flag; the defaults and an explicit -events 0 pass.
func TestCheckFlagsRefusesBusyPolling(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		events   int
		flag     string
	}{{0, 8, "-interval"}, {-time.Second, 8, "-interval"}, {time.Second, -1, "-events"}} {
		if err := checkFlags(tc.interval, tc.events); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("checkFlags(%v, %d) = %v, want a refusal naming %s", tc.interval, tc.events, err, tc.flag)
		}
	}
	for _, events := range []int{8, 0} {
		if err := checkFlags(time.Second, events); err != nil {
			t.Errorf("checkFlags(1s, %d) = %v", events, err)
		}
	}
}
