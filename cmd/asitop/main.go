// Command asitop is a live terminal dashboard for a running asifmd. Each
// frame reads three of the daemon's endpoints, each the one producer of
// its numbers: /metrics for the windowed rates, gauges and quantiles,
// /stats for the serving layer and its staleness SLO, and /events for
// the structured event tail. It renders them with client-side
// sparklines — plain ANSI, no terminal library.
//
// Usage:
//
//	asitop                                  # watch http://localhost:8080
//	asitop -url http://host:9000            # another daemon
//	asitop -interval 500ms                  # faster refresh
//	asitop -events 20                       # a longer event tail
//	asitop -once                            # print one frame and exit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rib"
	"repro/internal/sim"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "asifmd base URL")
	interval := flag.Duration("interval", time.Second, "poll and redraw interval")
	events := flag.Int("events", 8, "event-log tail length to display")
	once := flag.Bool("once", false, "print a single frame and exit (no screen clearing)")
	flag.Parse()
	if err := checkFlags(*interval, *events); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	hist := map[string][]float64{}

	for {
		f, err := fetch(client, *url, *events)
		frame := ""
		if err != nil {
			frame = fmt.Sprintf("asitop: %v (retrying every %s)\n", err, *interval)
		} else {
			push(hist, f.rates)
			frame = render(f, hist, *url)
		}
		if *once {
			fmt.Print(frame)
			if err != nil {
				os.Exit(1)
			}
			return
		}
		// Clear + home, then the frame: a full repaint per tick keeps the
		// renderer stateless.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		time.Sleep(*interval)
	}
}

// checkFlags refuses the values that would poll the daemon in a tight
// loop (-interval ≤ 0) or fetch a 400 forever (-events < 0); each error
// names its flag.
func checkFlags(interval time.Duration, events int) error {
	if interval <= 0 {
		return fmt.Errorf("bad -interval %v (valid: a positive duration)", interval)
	}
	if events < 0 {
		return fmt.Errorf("bad -events %d (valid: 0 or more)", events)
	}
	return nil
}

// frame is one poll of the daemon.
type frame struct {
	// at is when asitop fetched the frame.
	at time.Time
	// values holds the first sample of every /metrics name; rates the
	// windowed rate of every counter and counter family, and quantiles
	// every histogram with observations in the window, in exposition
	// order.
	values    map[string]float64
	rates     []rate
	quantiles []quantile
	serving   rib.Stats
	events    []obs.Event
}

// rate is one windowed per-second rate, named as /metrics names its
// counter without the asi_ prefix.
type rate struct {
	name   string
	perSec float64
}

// quantile is one histogram's windowed p50 and p99 in its unit.
type quantile struct {
	name, unit string
	p50, p99   float64
}

// fetch reads one frame from the daemon at base; events bounds the tail.
func fetch(client *http.Client, base string, events int) (*frame, error) {
	base = strings.TrimRight(base, "/")
	f := &frame{at: time.Now(), values: map[string]float64{}}
	for _, ep := range []struct {
		path string
		read func(io.Reader) error
	}{
		{"/metrics", f.readMetrics},
		{"/stats", func(r io.Reader) error { return json.NewDecoder(r).Decode(&f.serving) }},
		{fmt.Sprintf("/events?n=%d", events), f.readEvents},
	} {
		if err := get(client, base, ep.path, ep.read); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// get fetches base+path and hands a 200 response's body to read.
func get(client *http.Client, base, path string, read func(io.Reader) error) error {
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	return nil
}

// readMetrics files the exposition: a "<name>_rate" gauge is a rate when
// <name> is a counter, and a "<name>_p50" gauge a quantile when <name>
// is a histogram (with "<name>_p99" beside it).
func (f *frame) readMetrics(r io.Reader) error {
	points, types, err := obs.ParseProm(r)
	if err != nil {
		return err
	}
	for _, p := range points {
		if _, seen := f.values[p.Name]; seen {
			continue
		}
		f.values[p.Name] = p.Value
		if base, ok := strings.CutSuffix(p.Name, "_rate"); ok && types[base] == "counter" {
			f.rates = append(f.rates, rate{name: strings.TrimPrefix(base, "asi_"), perSec: p.Value})
		}
		if base, ok := strings.CutSuffix(p.Name, "_p50"); ok && types[base] == "histogram" {
			f.quantiles = append(f.quantiles, quantile{name: base, unit: p.Labels["unit"], p50: p.Value})
		}
	}
	for i := range f.quantiles {
		q := &f.quantiles[i]
		q.p99 = f.values[q.name+"_p99"]
		q.name = strings.TrimPrefix(q.name, "asi_")
	}
	return nil
}

// readEvents reads the NDJSON event tail.
func (f *frame) readEvents(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return err
		}
		f.events = append(f.events, e)
	}
	return sc.Err()
}

// sparkCap bounds the per-metric client-side rate history.
const sparkCap = 32

// push appends this frame's rates to the sparkline histories.
func push(hist map[string][]float64, rates []rate) {
	for _, r := range rates {
		h := append(hist[r.name], r.perSec)
		if len(h) > sparkCap {
			h = h[len(h)-sparkCap:]
		}
		hist[r.name] = h
	}
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders a history as a fixed-width sparkline scaled to its own
// maximum.
func spark(h []float64) string {
	max := 0.0
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range h {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

func render(f *frame, hist map[string][]float64, url string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "asitop — %s — %s\n", url, f.at.Format(time.TimeOnly))
	// gen is /stats', read with the serving block below; sim, window and
	// scrapes describe the last scrape.
	fmt.Fprintf(&b, "gen %d   sim %s   window %.1fs   scrapes %d\n\n",
		f.serving.Gen, sim.Duration(f.values["asi_sim_time_ps"]),
		f.values["asi_obs_window_seconds"], uint64(f.values["asi_obs_scrapes_total"]))

	sv := f.serving
	fmt.Fprintf(&b, "serving   installs %-6d leaves %-6d subscribers %-4d resyncs %-4d deliveries %d\n",
		sv.Installs, sv.Leaves, sv.Subscribers, sv.Resyncs, sv.Deliveries)
	fmt.Fprintf(&b, "staleness p50 %-4d p99 %-4d max %-4d generations behind (%d subscribers)\n",
		sv.Staleness.P50, sv.Staleness.P99, sv.Staleness.Max, sv.Staleness.Subscribers)
	if sv.DeliverLatency.Count > 0 {
		fmt.Fprintf(&b, "deliver   p50 %-10s p99 %-10s (%d observations)\n",
			time.Duration(sv.DeliverP50NS), time.Duration(sv.DeliverP99NS), sv.DeliverLatency.Count)
	}
	assimBlock(&b, f)

	if len(f.rates) > 0 {
		b.WriteString("\nrates (windowed, with local history)\n")
		// Busiest first; names keep the table readable at any width.
		rates := append([]rate(nil), f.rates...)
		sort.SliceStable(rates, func(i, j int) bool { return rates[i].perSec > rates[j].perSec })
		for _, r := range rates {
			fmt.Fprintf(&b, "  %-28s %12.1f/s  %s\n", r.name, r.perSec, spark(hist[r.name]))
		}
	}

	if len(f.quantiles) > 0 {
		b.WriteString("\nlatency (windowed percentile estimates)\n")
		for _, q := range f.quantiles {
			fmt.Fprintf(&b, "  %-28s p50 %-12s p99 %s\n", q.name, quantity(q.p50, q.unit), quantity(q.p99, q.unit))
		}
	}

	if len(f.events) > 0 {
		fmt.Fprintf(&b, "\nevents (%d logged, %d dropped)\n",
			uint64(f.values["asi_obs_events_logged_total"]), uint64(f.values["asi_obs_events_dropped_total"]))
		for _, e := range f.events {
			detail := e.Detail
			if detail != "" {
				detail = "  " + detail
			}
			fmt.Fprintf(&b, "  %s  gen %-5d %-20s%s\n", e.Wall.Format(time.TimeOnly), e.Gen, e.Kind, detail)
		}
	}
	return b.String()
}

// assimBlock renders the continuous-assimilation view when the daemon
// runs the coalescing partial FM: the per-node DB-staleness percentile
// gauges (published every scrape for any algorithm) and, when PI-5s
// flowed in the window, the sustained assimilation rates with the
// batch-size percentiles.
func assimBlock(b *strings.Builder, f *frame) {
	if max, ok := f.values["asi_fm_db_staleness_max"]; ok {
		fmt.Fprintf(b, "db-stale  p50 %-10s p99 %-10s max %-10s (per-node last-validated age, sim)\n",
			sim.Duration(f.values["asi_fm_db_staleness_p50"]), sim.Duration(f.values["asi_fm_db_staleness_p99"]), sim.Duration(max))
	}
	if ev := f.values["asi_fm_assim_events_rate"]; ev > 0 {
		line := fmt.Sprintf("assim     %.1f PI-5/s assimilated   %.1f/s coalesced   %.1f flushes/s",
			ev, f.values["asi_fm_assim_events_coalesced_rate"], f.values["asi_fm_assim_flushes_rate"])
		if p50, ok := f.values["asi_fm_assim_batch_size_p50"]; ok {
			line += fmt.Sprintf("   batch p50 %.0f p99 %.0f", p50, f.values["asi_fm_assim_batch_size_p99"])
		}
		b.WriteString(line + "\n")
	}
}

// quantity formats a histogram quantile in its unit ("ps" and "ns" get
// duration rendering; anything else is plain).
func quantity(v float64, unit string) string {
	switch unit {
	case "ps":
		return sim.Duration(v).String()
	case "ns":
		return time.Duration(v).String()
	default:
		return fmt.Sprintf("%.1f%s", v, unit)
	}
}
