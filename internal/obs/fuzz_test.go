package obs

import (
	"bytes"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// renderPoints writes parsed points and types back out in the
// exposition format: TYPE lines, then one sample a point, labels sorted
// and quoted.
func renderPoints(points []PromPoint, types map[string]string) []byte {
	var b bytes.Buffer
	for _, name := range sortedKeys(types) {
		b.WriteString("# TYPE " + name + " " + types[name] + "\n")
	}
	for _, p := range points {
		b.WriteString(p.Name)
		if len(p.Labels) > 0 {
			b.WriteByte('{')
			for i, k := range sortedKeys(p.Labels) {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(k + "=" + strconv.Quote(p.Labels[k]))
			}
			b.WriteByte('}')
		}
		b.WriteString(" " + formatFloatRef(p.Value) + "\n")
	}
	return b.Bytes()
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// samePoints compares two parses point by point; NaN equals NaN.
func samePoints(a, b []PromPoint) bool {
	return slices.EqualFunc(a, b, func(x, y PromPoint) bool {
		return x.Name == y.Name && maps.Equal(x.Labels, y.Labels) &&
			(x.Value == y.Value || math.IsNaN(x.Value) && math.IsNaN(y.Value))
	})
}

// checkPromRoundTrip parses doc and, if ParseProm accepts it (or must,
// for a document WriteProm rendered), re-renders the result and requires
// the second parse to give the same points and types.
func checkPromRoundTrip(t testing.TB, doc []byte, mustParse bool) {
	t.Helper()
	points, types, err := ParseProm(bytes.NewReader(doc))
	if err != nil {
		if mustParse {
			t.Fatalf("a rendered plane does not parse: %v", err)
		}
		return
	}
	again := renderPoints(points, types)
	points2, types2, err := ParseProm(bytes.NewReader(again))
	if err != nil {
		t.Fatalf("the re-rendered document does not parse: %v\n%s", err, again)
	}
	if !samePoints(points, points2) || !maps.Equal(types, types2) {
		t.Fatalf("the re-rendered document parses differently:\n%s", again)
	}
}

// promSeeds renders the planes the fuzz target starts from — the series
// of testdata/metric_names.golden, as a telemetry run and the serving
// layer register them, and a daemon's plane — and cuts them into one
// seed a metric family: the fuzzer minimises what it finds, which is
// slow on a whole document.
func promSeeds(tb testing.TB) [][]byte {
	o := experiment.RunConfig(experiment.Config{
		Topology: "3x3 mesh", Algorithm: core.Parallel,
		Seed: 1, Telemetry: true, Change: experiment.RemoveSwitch,
	})
	if o.Err != nil {
		tb.Fatal(o.Err)
	}
	p := New(Config{})
	serving := randomServing(rand.New(rand.NewSource(1)))
	serving.DeliverLatency = telemetry.HistogramSnap{Bounds: []int64{1000, 1e6}, Counts: []uint64{1, 2, 3}, Count: 6, Sum: 5e6}
	t0 := time.Unix(7000, 0)
	p.Scrape(Sample{Wall: t0, Telemetry: *o.Telemetry, Serving: serving})
	p.Scrape(Sample{Wall: t0.Add(time.Second), Telemetry: *o.Telemetry, Serving: serving})
	var golden, daemon bytes.Buffer
	p.WriteProm(&golden)
	names, err := os.ReadFile("testdata/metric_names.golden")
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range strings.Fields(string(names)) {
		if !strings.Contains(golden.String(), promNameRef(name)) {
			tb.Fatalf("the seed plane has no series %s", promNameRef(name))
		}
	}
	daemonPlane(tb).WriteProm(&daemon)
	var seeds [][]byte
	for _, doc := range []string{golden.String(), daemon.String()} {
		checkPromRoundTrip(tb, []byte(doc), true)
		for _, family := range strings.Split(doc, "# HELP ") {
			if family != "" {
				seeds = append(seeds, []byte("# HELP "+family))
			}
		}
	}
	return seeds
}

// FuzzPromRoundTrip holds the exposition pair to the fuzz wall's rule.
// What ParseProm accepts re-renders into a document that parses to the
// same points and types. And the fuzzed bytes seed a random plane whose
// WriteProm render must parse and round-trip the same way.
func FuzzPromRoundTrip(f *testing.F) {
	for _, doc := range promSeeds(f) {
		f.Add(doc)
	}
	f.Add([]byte("# TYPE a counter\na{x=\"1\",y=\"q\\\"\\\\\"} +Inf\nb NaN\nc{} -0\n"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkPromRoundTrip(t, doc, false)
		h := fnv.New64a()
		h.Write(doc)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		p := New(Config{})
		reg := telemetry.New()
		wall := time.Unix(5000, 0)
		for step := 0; step < 3; step++ {
			mutateRegistry(rng, reg)
			wall = wall.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
			p.Scrape(Sample{Wall: wall, Telemetry: reg.Snapshot(), Serving: randomServing(rng)})
		}
		var b bytes.Buffer
		p.WriteProm(&b)
		checkPromRoundTrip(t, b.Bytes(), true)
	})
}
