// Command asidisc runs a single fabric discovery simulation and prints
// its measurements: topology, algorithm, processing factors and the
// optional topological change are selectable. It also lists the
// topology catalogue, describes any topology without running it, and
// prints the FM timeline report of a saved span log.
//
// Usage:
//
//	asidisc -list                               # catalogue and parametric families
//	asidisc -describe -topo "dragonfly 16x64"   # counts, switch degrees, every link
//	asidisc -topo "8x8 mesh" -alg parallel
//	asidisc -topo "4-port 3-tree" -alg serial-packet -change remove -seed 3
//	asidisc -topo "3x3 mesh" -alg serial-device -timeline
//	asidisc -topo "4x4 mesh" -loss 1e-3 -retries 3
//	asidisc -topo "4x4 mesh" -retries 3 -flap 0,50,100
//	asidisc -topo "3x3 mesh" -telemetry -json   # machine-readable run report
//	asidisc -topo "3x3 mesh" -spans             # causal span Gantt + critical path
//	asidisc -topo "3x3 mesh" -spans-out t.json  # Chrome/Perfetto trace file
//	asidisc -spans-in t.json                    # that file's -spans report
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asi"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

func main() {
	topoName := flag.String("topo", "3x3 mesh", "topology name (see -list)")
	list := flag.Bool("list", false, "list the catalogue topologies and parametric families and exit")
	describe := flag.Bool("describe", false, "describe the -topo fabric (counts, switch degrees, every link) instead of running it")
	alg := flag.String("alg", "parallel", "discovery algorithm: "+strings.Join(cli.AlgorithmNames(), ", "))
	change := flag.String("change", "none", "topological change: "+strings.Join(cli.ChangeNames(), ", "))
	seed := flag.Uint64("seed", 1, "random seed (selects the changed switch)")
	fmFactor := flag.Float64("fm-factor", 1, "FM processing speed factor")
	devFactor := flag.Float64("dev-factor", 1, "device processing speed factor")
	timeline := flag.Bool("timeline", false, "print the FM packet-processing timeline")
	traceN := flag.Int("trace", 0, "print the first N packet-level fabric events (implies span tracing)")
	loss := flag.Float64("loss", 0, "uniform per-link packet loss probability (0 = lossless)")
	retries := flag.Int("retries", 0, "max timeout retries per request (0 = paper behaviour: fail immediately)")
	backoffUS := flag.Float64("retry-backoff", 0, "base retry backoff in microseconds (0 = default 100us; doubles per attempt)")
	flapSpec := flag.String("flap", "", "flap a link: \"link,at_us,dur_us\" (see -trace for link ids)")
	tele := flag.Bool("telemetry", false, "collect run telemetry (per-phase FM histograms, fabric counters)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable run report on stdout")
	spans := flag.Bool("spans", false, "trace causal PI-4 spans and print the FM timeline report")
	spansOut := flag.String("spans-out", "", "trace causal spans and write a Chrome trace-event JSON file (implies span tracing)")
	spansIn := flag.String("spans-in", "", "print the -spans report of a Chrome trace-event file written by -spans-out, running nothing")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
	if *list {
		printCatalogue()
		return
	}
	if *spansIn != "" {
		l, err := readChrome(*spansIn)
		if err != nil {
			fail(1, err)
		}
		if err := writeSpanReport(l); err != nil {
			fail(1, err)
		}
		if l.Dropped > 0 {
			fmt.Printf("span log truncated: %d spans dropped\n", l.Dropped)
		}
		return
	}
	if *describe {
		tp, err := topo.ByName(*topoName)
		if err != nil {
			fail(2, err)
		}
		if err := tp.Validate(); err != nil {
			fail(1, fmt.Errorf("INVALID: %w", err))
		}
		describeTopology(tp)
		return
	}
	kind, err := cli.Algorithm(*alg)
	if err != nil {
		fail(2, err)
	}
	ch, err := cli.Change(*change)
	if err != nil {
		fail(2, err)
	}
	// Checked before sim.Micros, which would wrap a huge or non-finite
	// value round to a negative duration.
	if !(*backoffUS >= 0 && *backoffUS <= core.MaxRetryBackoff.Microseconds()) {
		fail(2, fmt.Errorf("bad -retry-backoff %v (want microseconds, 0 up to %v)", *backoffUS, core.MaxRetryBackoff))
	}
	if *jsonOut && (*spans || *traceN > 0) {
		fail(2, fmt.Errorf("-json carries no span log: drop -spans and -trace, or save the trace with -spans-out"))
	}
	cfg := experiment.Config{
		Topology:     *topoName,
		Algorithm:    kind,
		Seed:         *seed,
		Change:       ch,
		FMFactor:     *fmFactor,
		DeviceFactor: *devFactor,
		Faults:       fabric.Uniform(*loss),
		MaxRetries:   *retries,
		RetryBackoff: sim.Micros(*backoffUS),
		Telemetry:    *tele,
		Spans:        *spans || *spansOut != "" || *traceN > 0,
	}
	if *flapSpec != "" {
		flap, err := cli.Flap(*flapSpec)
		if err != nil {
			fail(2, err)
		}
		cfg.Faults.Flaps = append(cfg.Faults.Flaps, flap)
	}
	if err := cfg.Validate(); err != nil {
		fail(2, err)
	}
	out := experiment.RunConfig(cfg)

	if *spansOut != "" && out.Spans != nil {
		fh, err := os.Create(*spansOut)
		if err != nil {
			fail(1, err)
		}
		if err := span.WriteChrome(fh, *out.Spans); err != nil {
			fail(1, err)
		}
		if err := fh.Close(); err != nil {
			fail(1, err)
		}
	}

	if *jsonOut {
		if err := experiment.NewRunReport(out).JSON(os.Stdout); err != nil {
			fail(1, err)
		}
		if out.Err != nil {
			os.Exit(1)
		}
		return
	}
	if out.Err != nil {
		fail(1, out.Err)
	}

	fmt.Printf("topology:        %s (%d devices, %d switches)\n", *topoName, out.PhysicalNodes, out.Switches)
	fmt.Printf("algorithm:       %v (FM factor %.2f, device factor %.2f)\n", kind, *fmFactor, *devFactor)
	fmt.Printf("change:          %v (seed %d)\n", ch, *seed)
	fmt.Printf("active nodes:    %d\n", out.ActiveNodes)
	if ch != experiment.NoChange {
		fmt.Printf("initial run:     %v\n", out.Initial)
	}
	fmt.Printf("measured run:    %v\n", out.Result)
	fmt.Printf("discovery time:  %.6f s\n", out.Result.Duration.Seconds())
	fmt.Printf("mgmt traffic:    %d pkts / %d B sent, %d pkts / %d B received\n",
		out.Result.PacketsSent, out.Result.BytesSent,
		out.Result.PacketsReceived, out.Result.BytesReceived)
	fmt.Printf("avg FM proc:     %.2f us over %d packets\n",
		out.Result.AvgFMProcessing().Microseconds(), out.Result.Processed)
	if out.Result.TimedOut > 0 {
		fmt.Printf("timeouts:        %d\n", out.Result.TimedOut)
	}
	if out.Result.Retries > 0 {
		fmt.Printf("retries:         %d\n", out.Result.Retries)
	}
	if out.Result.GaveUp > 0 {
		fmt.Printf("gave up:         %d\n", out.Result.GaveUp)
	}
	if out.Result.Stale > 0 {
		fmt.Printf("stale replies:   %d\n", out.Result.Stale)
	}
	if out.Telemetry != nil {
		printTelemetry(out)
	}
	if *timeline {
		fmt.Println("\npacket#  processed-at (s)")
		for i, at := range out.Result.Timeline {
			fmt.Printf("%7d  %.9f\n", i+1, at.Seconds())
		}
	}
	if *traceN > 0 && out.Spans != nil {
		fmt.Println("\nfabric trace:")
		if err := span.WritePackets(os.Stdout, *out.Spans, *traceN); err != nil {
			fail(1, err)
		}
	}
	if *spans && out.Spans != nil {
		fmt.Println("\ncausal spans:")
		if err := writeSpanReport(*out.Spans); err != nil {
			fail(1, err)
		}
	}
	if (*spans || *traceN > 0) && out.Spans != nil && out.Spans.Dropped > 0 {
		fmt.Printf("span log truncated: %d spans dropped\n", out.Spans.Dropped)
	}
}

// readChrome loads the span log of a Chrome trace-event file.
func readChrome(path string) (span.Log, error) {
	fh, err := os.Open(path)
	if err != nil {
		return span.Log{}, err
	}
	defer fh.Close()
	return span.ReadChrome(fh)
}

// writeSpanReport prints the span analysis of a log: per-run Gantt,
// critical path and per-kind breakdown.
func writeSpanReport(l span.Log) error {
	a, err := span.Analyze(l)
	if err != nil {
		return err
	}
	return span.WriteReport(os.Stdout, a)
}

// printTelemetry summarizes the run's metric snapshot as text; the full
// detail (bucket counts, per-link vectors) is available under -json.
func printTelemetry(out experiment.Outcome) {
	s := out.Telemetry
	fmt.Println("\ntelemetry:")
	for _, c := range s.Counters {
		if c.Value > 0 {
			fmt.Printf("  %-28s %d\n", c.Name, c.Value)
		}
	}
	for _, g := range s.Gauges {
		fmt.Printf("  %-28s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		mean := float64(h.Sum) / float64(h.Count)
		fmt.Printf("  %-28s n=%-6d mean=%.3fus min=%.3fus max=%.3fus\n",
			h.Name, h.Count,
			sim.Duration(mean).Microseconds(),
			sim.Duration(h.Min).Microseconds(),
			sim.Duration(h.Max).Microseconds())
	}
}

// printCatalogue lists every catalogue topology with its device counts,
// then the parametric family spellings.
func printCatalogue() {
	fmt.Printf("%-16s %9s %10s %7s\n", "Topology", "Switches", "Endpoints", "Total")
	for _, s := range topo.Catalogue() {
		fmt.Printf("%-16s %9d %10d %7d\n", s.Name, s.Switches, s.Endpoints, s.Total())
	}
	fmt.Println("\nparametric families (any size): \"RxC mesh\", \"RxC torus\", \"M-port N-tree\", \"dragonfly KxM\", \"autofat PxN\"")
}

// describeTopology prints the topology's counts, its switch degree
// distribution and its full cabling.
func describeTopology(tp *topo.Topology) {
	fmt.Println(tp)
	var degrees [asi.MaxSwitchPorts + 1]int
	for _, n := range tp.Nodes {
		if n.Type != asi.DeviceSwitch {
			continue
		}
		d := 0
		for p := 0; p < n.Ports; p++ {
			if _, _, ok := tp.Peer(n.ID, p); ok {
				d++
			}
		}
		degrees[d]++
	}
	fmt.Println("switch degree distribution:")
	for d, c := range degrees {
		if c > 0 {
			fmt.Printf("  degree %2d: %d switches\n", d, c)
		}
	}
	fmt.Println("links:")
	for _, l := range tp.Links {
		fmt.Printf("  %s[%d] -- %s[%d]\n", tp.Nodes[l.A].Label, l.APort, tp.Nodes[l.B].Label, l.BPort)
	}
}
