package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rib"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// writePromRef is the fmt-based renderer WriteProm replaced, kept as the
// referee: the pooled, append-based renderer must produce its document
// byte for byte.
func writePromRef(p *Plane, w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	cur, base, sec, scrapes, ok := p.rateWindow()
	writeMetaRef(bw, "asi_up", "gauge", "whether the observability plane is serving")
	writeSampleRef(bw, "asi_up", "", 1)
	writeMetaRef(bw, "asi_obs_scrapes_total", "counter", "telemetry samples stored")
	writeSampleRef(bw, "asi_obs_scrapes_total", "", float64(scrapes))
	writeMetaRef(bw, "asi_obs_events_logged_total", "counter", "structured events appended to the bounded log")
	writeSampleRef(bw, "asi_obs_events_logged_total", "", float64(p.EventsLogged()))
	writeMetaRef(bw, "asi_obs_events_dropped_total", "counter", "structured events evicted from the bounded log")
	writeSampleRef(bw, "asi_obs_events_dropped_total", "", float64(p.EventsDropped()))
	if !ok {
		return
	}

	var delta telemetry.Snapshot
	windowed := sec > 0
	if windowed {
		delta = deltaRef(cur.Telemetry, base.Telemetry)
	}
	writeMetaRef(bw, "asi_obs_window_seconds", "gauge", "wall span of the rate window")
	writeSampleRef(bw, "asi_obs_window_seconds", "", sec)
	writeMetaRef(bw, "asi_sim_time_ps", "gauge", "simulation clock, picoseconds")
	writeSampleRef(bw, "asi_sim_time_ps", "", float64(cur.SimPS))

	deltaC := map[string]uint64{}
	deltaH := map[string]telemetry.HistogramSnap{}
	if windowed {
		for _, c := range delta.Counters {
			deltaC[c.Name] = c.Value
		}
		for _, v := range delta.Vectors {
			deltaC[v.Name] += v.Value
		}
		for _, h := range delta.Histograms {
			deltaH[h.Name] = h
		}
	}

	for _, c := range cur.Telemetry.Counters {
		name := promNameRef(c.Name)
		writeMetaRef(bw, name, "counter", "telemetry counter "+c.Name)
		writeSampleRef(bw, name, "", float64(c.Value))
		if windowed {
			writeMetaRef(bw, name+"_rate", "gauge", "windowed per-second rate of "+c.Name)
			writeSampleRef(bw, name+"_rate", "", float64(deltaC[c.Name])/sec)
		}
	}
	for _, g := range cur.Telemetry.Gauges {
		name := promNameRef(g.Name)
		writeMetaRef(bw, name, "gauge", "telemetry gauge "+g.Name)
		writeSampleRef(bw, name, "", float64(g.Value))
	}
	lastVec := ""
	for _, v := range cur.Telemetry.Vectors {
		name := promNameRef(v.Name)
		if v.Name != lastVec {
			writeMetaRef(bw, name, "counter", "telemetry counter family "+v.Name)
			lastVec = v.Name
			if windowed {
				writeMetaRef(bw, name+"_rate", "gauge", "windowed per-second rate of "+v.Name+" (all indices)")
				writeSampleRef(bw, name+"_rate", "", float64(deltaC[v.Name])/sec)
			}
		}
		writeSampleRef(bw, name, fmt.Sprintf(`index="%d"`, v.Index), float64(v.Value))
	}
	for _, h := range cur.Telemetry.Histograms {
		writeHistogramRef(bw, promNameRef(h.Name), "telemetry histogram "+h.Name, h)
		if dh, ok := deltaH[h.Name]; ok && dh.Count > 0 {
			name := promNameRef(h.Name)
			writeMetaRef(bw, name+"_p50", "gauge", "windowed p50 of "+h.Name)
			unit := ""
			if h.Unit != "" {
				unit = fmt.Sprintf("unit=%q", h.Unit)
			}
			writeSampleRef(bw, name+"_p50", unit, dh.Quantile(0.50))
			writeMetaRef(bw, name+"_p99", "gauge", "windowed p99 of "+h.Name)
			writeSampleRef(bw, name+"_p99", unit, dh.Quantile(0.99))
		}
	}

	sv := cur.Serving
	writeMetaRef(bw, "asi_rib_generation", "gauge", "current RIB generation")
	writeSampleRef(bw, "asi_rib_generation", "", float64(sv.Gen))
	writeMetaRef(bw, "asi_rib_installs_total", "counter", "RIB generations installed")
	writeSampleRef(bw, "asi_rib_installs_total", "", float64(sv.Installs))
	writeMetaRef(bw, "asi_rib_leaves", "gauge", "served leaves in the current generation")
	writeSampleRef(bw, "asi_rib_leaves", "", float64(sv.Leaves))
	writeMetaRef(bw, "asi_rib_subscribers", "gauge", "live subscriptions")
	writeSampleRef(bw, "asi_rib_subscribers", "", float64(sv.Subscribers))
	writeMetaRef(bw, "asi_rib_resyncs_total", "counter", "full-state resyncs forced by subscriber overflow")
	writeSampleRef(bw, "asi_rib_resyncs_total", "", float64(sv.Resyncs))
	writeMetaRef(bw, "asi_rib_deliveries_total", "counter", "batches consumed by subscriber readers")
	writeSampleRef(bw, "asi_rib_deliveries_total", "", float64(sv.Deliveries))
	writeMetaRef(bw, "asi_rib_staleness_generations", "gauge", "subscriber generation-lag percentiles (staleness SLO)")
	writeSampleRef(bw, "asi_rib_staleness_generations", `quantile="0.5"`, float64(sv.Staleness.P50))
	writeSampleRef(bw, "asi_rib_staleness_generations", `quantile="0.99"`, float64(sv.Staleness.P99))
	writeSampleRef(bw, "asi_rib_staleness_generations", `quantile="1"`, float64(sv.Staleness.Max))
	if sv.DeliverLatency.Count > 0 || len(sv.DeliverLatency.Bounds) > 0 {
		writeHistogramRef(bw, "asi_rib_deliver_latency_ns", "install-to-deliver wall latency, nanoseconds", sv.DeliverLatency)
	}
}

// deltaRef is the change from prev to cur, metric by metric, as the
// Snapshot.Delta the telemetry.Window replaced computed it, kept as the
// referee of the exposition's windowed values: counters and vector slots
// subtract (a reset clamps to the current value), an unchanged vector
// slot is left out, gauges keep cur's value, histograms subtract counts
// and sums and zero their extrema. Names are unique in a registry
// snapshot, so maps match them.
func deltaRef(cur, prev telemetry.Snapshot) telemetry.Snapshot {
	var d telemetry.Snapshot
	sub := func(v, old uint64, ok bool) uint64 {
		if ok && old <= v {
			return v - old
		}
		return v
	}
	prevC := map[string]uint64{}
	for _, c := range prev.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range cur.Counters {
		old, ok := prevC[c.Name]
		d.Counters = append(d.Counters, telemetry.CounterSnap{Name: c.Name, Value: sub(c.Value, old, ok)})
	}
	d.Gauges = cur.Gauges
	type slot struct {
		name string
		idx  int
	}
	prevV := map[slot]uint64{}
	for _, v := range prev.Vectors {
		prevV[slot{v.Name, v.Index}] = v.Value
	}
	for _, v := range cur.Vectors {
		old, ok := prevV[slot{v.Name, v.Index}]
		if val := sub(v.Value, old, ok); val != 0 {
			d.Vectors = append(d.Vectors, telemetry.VecSnap{Name: v.Name, Index: v.Index, Value: val})
		}
	}
	prevH := map[string]telemetry.HistogramSnap{}
	for _, h := range prev.Histograms {
		prevH[h.Name] = h
	}
	for _, h := range cur.Histograms {
		dh := telemetry.HistogramSnap{Name: h.Name, Unit: h.Unit, Count: h.Count, Sum: h.Sum,
			Bounds: h.Bounds, Counts: append([]uint64(nil), h.Counts...)}
		if old, ok := prevH[h.Name]; ok && old.Count <= h.Count && len(old.Counts) == len(h.Counts) {
			dh.Count -= old.Count
			dh.Sum -= old.Sum
			for i := range dh.Counts {
				dh.Counts[i] = sub(dh.Counts[i], old.Counts[i], true)
			}
		}
		d.Histograms = append(d.Histograms, dh)
	}
	return d
}

func writeMetaRef(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSampleRef(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloatRef(v))
}

func writeHistogramRef(w io.Writer, name, help string, h telemetry.HistogramSnap) {
	writeMetaRef(w, name, "histogram", help)
	cum := uint64(0)
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloatRef(float64(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloatRef(float64(h.Sum)))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

func formatFloatRef(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func promNameRef(name string) string {
	var b strings.Builder
	b.WriteString("asi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// checkAgainstRef renders p both ways and fails on the first byte that
// differs.
func checkAgainstRef(t *testing.T, p *Plane, what string) {
	t.Helper()
	var got, want bytes.Buffer
	p.WriteProm(&got)
	writePromRef(p, &want)
	if got.String() == want.String() {
		return
	}
	g, w := got.String(), want.String()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := strings.LastIndexByte(w[:i], '\n') + 1
	t.Fatalf("%s: exposition differs from the reference at byte %d (%d vs %d bytes):\n got: %.200q\nwant: %.200q",
		what, i, len(g), len(w), g[lo:], w[lo:])
}

// Metric names the random planes draw from: shared across kinds (a
// counter and a vector family under one exposition name), with runes
// outside the Prometheus alphabet, multi-byte and empty.
var refNames = []string{"", "a", "a.b", "fm.rtt.port-read", "x_y", "Z9", "sp ace", "é.ü", "b", "fabric.link.tx.packets"}

// Histogram units the random planes draw from: none, the two duration
// units, and one that needs quoting.
var refUnits = []string{"", "ns", "ps", `q"\é`}

// TestWritePromMatchesReference drives random planes through the states
// the exposition has to get right — no sample, one, many; counter and
// histogram resets; vector slots that appear and vanish; metrics
// registered inside the window; extreme gauges; windows that are empty,
// negative or full, the ring evicting — and compares every render with the
// fmt-based reference byte for byte.
func TestWritePromMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(Config{Window: 1 + rng.Intn(8), EventCapacity: 1 + rng.Intn(4)})
		checkAgainstRef(t, p, fmt.Sprintf("seed %d, empty plane", seed))
		reg := telemetry.New()
		wall := time.Unix(5000, 0)
		for step := 0; step < 30; step++ {
			mutateRegistry(rng, reg)
			switch rng.Intn(6) {
			case 0: // the same instant: a zero-length window
			case 1:
				wall = wall.Add(-time.Duration(rng.Intn(3)) * time.Second)
			default:
				wall = wall.Add(time.Duration(1+rng.Intn(3000)) * time.Millisecond)
			}
			p.Scrape(Sample{Wall: wall, SimPS: rng.Int63() >> uint(rng.Intn(63)), Gen: uint64(step), Telemetry: reg.Snapshot(), Serving: randomServing(rng)})
			if rng.Intn(3) == 0 {
				p.Log(EventAudit, uint64(step), 0, "")
			}
			checkAgainstRef(t, p, fmt.Sprintf("seed %d, step %d", seed, step))
		}
	}
}

// mutateRegistry applies one random round of registration and
// observation to reg.
func mutateRegistry(rng *rand.Rand, reg *telemetry.Registry) {
	name := func() string { return refNames[rng.Intn(len(refNames))] }
	if rng.Intn(8) == 0 {
		reg.Reset() // counters go backwards; vector slots vanish
	}
	for i := rng.Intn(4); i > 0; i-- {
		reg.Counter(name()).Add(uint64(rng.Intn(1000)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		g := reg.Gauge(name())
		switch rng.Intn(4) {
		case 0:
			g.Set(math.MaxInt64)
		case 1:
			g.Set(math.MinInt64)
		default:
			g.Set(rng.Int63n(1<<40) - 1<<39)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		v := reg.CounterVec(name(), 1+rng.Intn(6))
		v.Add(rng.Intn(v.Len()), uint64(rng.Intn(50)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		h := reg.Histogram(name(), refUnits[rng.Intn(len(refUnits))], []int64{10, 1000, 1e6, 1e21 / 1e3})
		for j := rng.Intn(20); j > 0; j-- {
			h.Observe(rng.Int63n(1 << uint(rng.Intn(62))))
		}
	}
}

// randomServing returns serving-layer stats with or without a deliver
// latency histogram.
func randomServing(rng *rand.Rand) rib.Stats {
	s := rib.Stats{
		Gen: uint64(rng.Intn(100)), Installs: uint64(rng.Intn(100)), Leaves: rng.Intn(500),
		Subscribers: rng.Intn(9), Resyncs: uint64(rng.Intn(4)), Deliveries: rng.Uint64(),
		Staleness: rib.Staleness{P50: uint64(rng.Intn(3)), P99: uint64(rng.Intn(9)), Max: uint64(rng.Intn(99))},
	}
	switch rng.Intn(3) {
	case 0:
		s.DeliverLatency = telemetry.HistogramSnap{Bounds: []int64{1000, 1e6}, Counts: []uint64{1, 2, 3}, Count: 6, Sum: rng.Int63()}
	case 1:
		s.DeliverLatency = telemetry.HistogramSnap{Count: 2, Sum: 7}
	}
	return s
}

// The value formatter needs no special cases: strconv already spells the
// non-finite values the way Prometheus does.
func TestPromValueMatchesFormatFloat(t *testing.T) {
	var w promWriter
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -2.5, 1e21, 1e-7, math.MaxFloat64, math.SmallestNonzeroFloat64, float64(math.MaxInt64)} {
		w.b = w.b[:0]
		w.value(v)
		if got, want := string(w.b), " "+formatFloatRef(v)+"\n"; got != want {
			t.Errorf("value(%v) = %q, want %q", v, got, want)
		}
	}
}

// daemonPlane returns a plane holding two scrapes of an 8x8 torus under
// coalesced Partial assimilation, one switch toggle apart, with a RIB's
// serving stats: the state a running daemon's /metrics renders.
func daemonPlane(tb testing.TB) *Plane {
	tb.Helper()
	tp, err := topo.ByName("8x8 torus")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Telemetry: true,
		Manager: core.Options{Algorithm: core.Partial, AssimWindow: 200 * sim.Microsecond}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Bootstrap(); err != nil {
		tb.Fatal(err)
	}
	rb := rib.New(rib.Config{})
	rb.Install(r.Manager.DB())
	p := New(Config{})
	t0 := time.Unix(6000, 0)
	p.Scrape(Sample{Wall: t0, SimPS: int64(r.Engine.Now()), Telemetry: r.Snapshot(), Serving: rb.Stats()})
	sw := r.Fabric.RandomSwitch(r.RNG)
	for _, down := range []bool{true, false} {
		if err := r.Toggle(sw, down); err != nil {
			tb.Fatal(err)
		}
		r.Run()
	}
	rb.Install(r.Manager.DB())
	p.Scrape(Sample{Wall: t0.Add(time.Second), SimPS: int64(r.Engine.Now()), Telemetry: r.Snapshot(), Serving: rb.Stats()})
	return p
}

func TestWritePromDaemonPlaneMatchesReference(t *testing.T) {
	p := daemonPlane(t)
	checkAgainstRef(t, p, "daemon plane")
	var buf bytes.Buffer
	p.WriteProm(&buf)
	for _, want := range []string{"asi_fm_assim_events_rate ", "asi_fabric_link_tx_packets{index=", `asi_fm_rtt_verify_p99{unit="ps"} `} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("the daemon plane's exposition has no %q line: the window exercises too little", want)
		}
	}
}

// TestWritePromAllocBudget pins a steady-state render of a daemon-sized
// plane at two allocations at most (it measures none); the fmt renderer
// it replaced made a Delta snapshot, three maps and a string per metric
// name on every render.
func TestWritePromAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled writers at random under -race")
	}
	p := daemonPlane(t)
	p.WriteProm(io.Discard)
	if allocs := testing.AllocsPerRun(50, func() { p.WriteProm(io.Discard) }); allocs > 2 {
		t.Errorf("a steady-state /metrics render allocates %.1f per run, want <= 2", allocs)
	}
}

// stallWriter blocks inside Write until released, after saying so.
type stallWriter struct {
	entered chan<- struct{}
	release <-chan struct{}
	got     *[]byte
}

func (s stallWriter) Write(b []byte) (int, error) {
	s.entered <- struct{}{}
	<-s.release
	*s.got = append([]byte(nil), b...)
	return len(b), nil
}

// TestWritePromStalledReaderBlocksNothing holds one render inside its
// Write while other renders and scrapes run from several goroutines: they
// must all complete (the plane's lock is not held across Write), and the
// stalled reader must still receive the document of the state it
// rendered (its buffer is not handed to another render). Run with -race.
func TestWritePromStalledReaderBlocksNothing(t *testing.T) {
	reg := telemetry.New()
	rng := rand.New(rand.NewSource(7))
	p := New(Config{Window: 4})
	t0 := time.Unix(7000, 0)
	var samples []Sample
	for i := 0; i < 40; i++ {
		mutateRegistry(rng, reg)
		samples = append(samples, Sample{Wall: t0.Add(time.Duration(i) * time.Second), Gen: uint64(i), Telemetry: reg.Snapshot(), Serving: randomServing(rng)})
	}
	p.Scrape(samples[0])
	p.Scrape(samples[1])
	var want bytes.Buffer
	writePromRef(p, &want)

	entered, release := make(chan struct{}), make(chan struct{})
	var got []byte
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		p.WriteProm(stallWriter{entered: entered, release: release, got: &got})
	}()
	<-entered

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 2 + g; i < len(samples); i += 4 {
				p.Scrape(samples[i])
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var buf bytes.Buffer
				p.WriteProm(&buf)
				if _, _, err := ParseProm(&buf); err != nil {
					t.Errorf("concurrent render did not parse: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(release)
	<-stalled
	if string(got) != want.String() {
		t.Errorf("the stalled reader received %d bytes that are not the document it rendered (%d bytes)", len(got), want.Len())
	}
}

var sinkProm int

// BenchmarkWriteProm is one steady-state /metrics render of a
// daemon-sized plane: the first render, which fills the writer pool, is
// left out.
func BenchmarkWriteProm(b *testing.B) {
	p := daemonPlane(b)
	var w countWriter
	p.WriteProm(&w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.WriteProm(&w)
	}
	sinkProm = int(w)
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(b []byte) (int, error) {
	*c += countWriter(len(b))
	return len(b), nil
}
