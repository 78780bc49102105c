// Command asidisc runs a single fabric discovery simulation and prints
// its measurements: topology, algorithm, processing factors and the
// optional topological change are selectable.
//
// Usage:
//
//	asidisc -topo "8x8 mesh" -alg parallel
//	asidisc -topo "4-port 3-tree" -alg serial-packet -change remove -seed 3
//	asidisc -topo "3x3 mesh" -alg serial-device -timeline
//	asidisc -topo "4x4 mesh" -loss 1e-3 -retries 3
//	asidisc -topo "4x4 mesh" -retries 3 -flap 0,50,100
//	asidisc -topo "3x3 mesh" -telemetry -json   # machine-readable run report
//	asidisc -topo "3x3 mesh" -spans             # causal span Gantt + critical path
//	asidisc -topo "3x3 mesh" -spans-out t.json  # Chrome/Perfetto trace (see asitrace)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/span"
)

func main() {
	topoName := flag.String("topo", "3x3 mesh", "topology name (see asitopo -list)")
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
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
	kind, err := cli.Algorithm(*alg)
	if err != nil {
		fail(2, err)
	}
	ch, err := cli.Change(*change)
	if err != nil {
		fail(2, err)
	}
	if _, err := cli.Topology(*topoName); err != nil {
		fail(2, err)
	}

	cfg := experiment.Config{
		Topology:     *topoName,
		Algorithm:    kind,
		Seed:         *seed,
		Change:       ch,
		FMFactor:     *fmFactor,
		DeviceFactor: *devFactor,
		LossRate:     *loss,
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
		plan := fabric.Uniform(*loss)
		plan.Flaps = append(plan.Flaps, flap)
		cfg.Faults = &plan
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
		for _, p := range out.Result.Timeline {
			fmt.Printf("%7d  %.9f\n", p.Index, p.At.Seconds())
		}
	}
	if *traceN > 0 && out.Spans != nil {
		fmt.Println("\nfabric trace:")
		if err := span.WritePackets(os.Stdout, *out.Spans, *traceN); err != nil {
			fail(1, err)
		}
	}
	if *spans && out.Spans != nil {
		a, err := span.Analyze(*out.Spans)
		if err != nil {
			fail(1, err)
		}
		fmt.Println("\ncausal spans:")
		if err := span.WriteReport(os.Stdout, a, span.GanttOptions{}); err != nil {
			fail(1, err)
		}
	}
	if (*spans || *traceN > 0) && out.Spans != nil && out.Spans.Dropped > 0 {
		fmt.Printf("span log truncated: %d spans dropped\n", out.Spans.Dropped)
	}
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
