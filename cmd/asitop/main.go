// Command asitop is a live terminal dashboard for a running asifmd: it
// polls the daemon's /obs.json endpoint and renders the windowed metric
// rates (with client-side sparklines), the serving layer's staleness
// SLO, and the structured event tail — plain ANSI, no terminal library.
//
// Usage:
//
//	asitop                                  # watch http://localhost:8080
//	asitop -url http://host:9000            # another daemon
//	asitop -interval 500ms                  # faster refresh
//	asitop -once                            # print one frame and exit
package main

import (
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
	"repro/internal/sim"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "asifmd base URL")
	interval := flag.Duration("interval", time.Second, "poll and redraw interval")
	events := flag.Int("events", 8, "event-log tail length to display")
	once := flag.Bool("once", false, "print a single frame and exit (no screen clearing)")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	hist := map[string][]float64{}

	for {
		doc, err := fetch(client, *url, *events)
		frame := ""
		if err != nil {
			frame = fmt.Sprintf("asitop: %v (retrying every %s)\n", err, *interval)
		} else {
			push(hist, doc.Rates)
			frame = render(doc, hist, *url)
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

func fetch(client *http.Client, base string, events int) (*obs.DashDoc, error) {
	resp, err := client.Get(fmt.Sprintf("%s/obs.json?events=%d", strings.TrimRight(base, "/"), events))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("GET /obs.json: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var doc obs.DashDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /obs.json: %w", err)
	}
	return &doc, nil
}

// sparkCap bounds the per-metric client-side rate history.
const sparkCap = 32

// push appends this frame's rates to the sparkline histories.
func push(hist map[string][]float64, rates []obs.Rate) {
	for _, r := range rates {
		h := append(hist[r.Name], r.PerSec)
		if len(h) > sparkCap {
			h = h[len(h)-sparkCap:]
		}
		hist[r.Name] = h
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

func render(doc *obs.DashDoc, hist map[string][]float64, url string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "asitop — %s — %s\n", url, doc.Wall.Format(time.TimeOnly))
	fmt.Fprintf(&b, "gen %d   sim %s   window %.1fs   scrapes %d\n\n",
		doc.Gen, sim.Duration(doc.SimPS), doc.WindowSec, doc.Scrapes)

	sv := doc.Serving
	fmt.Fprintf(&b, "serving   installs %-6d leaves %-6d subscribers %-4d resyncs %-4d deliveries %d\n",
		sv.Installs, sv.Leaves, sv.Subscribers, sv.Resyncs, sv.Deliveries)
	fmt.Fprintf(&b, "staleness p50 %-4d p99 %-4d max %-4d generations behind (%d subscribers)\n",
		sv.Staleness.P50, sv.Staleness.P99, sv.Staleness.Max, sv.Staleness.Subscribers)
	if sv.DeliverLatency.Count > 0 {
		fmt.Fprintf(&b, "deliver   p50 %-10s p99 %-10s (%d observations)\n",
			time.Duration(sv.DeliverP50NS), time.Duration(sv.DeliverP99NS), sv.DeliverLatency.Count)
	}
	assimBlock(&b, doc)

	if len(doc.Rates) > 0 {
		b.WriteString("\nrates (windowed, with local history)\n")
		// Busiest first; names keep the table readable at any width.
		rates := append([]obs.Rate(nil), doc.Rates...)
		sort.SliceStable(rates, func(i, j int) bool { return rates[i].PerSec > rates[j].PerSec })
		for _, r := range rates {
			fmt.Fprintf(&b, "  %-28s %12.1f/s  %s\n", r.Name, r.PerSec, spark(hist[r.Name]))
		}
	}

	if len(doc.Quantiles) > 0 {
		b.WriteString("\nlatency (windowed percentile estimates)\n")
		for _, q := range doc.Quantiles {
			fmt.Fprintf(&b, "  %-28s p50 %-12s p90 %-12s p99 %-12s n=%d\n",
				q.Name, quantity(q.P50, q.Unit), quantity(q.P90, q.Unit), quantity(q.P99, q.Unit), q.Count)
		}
	}

	if len(doc.Events) > 0 {
		fmt.Fprintf(&b, "\nevents (%d logged, %d dropped)\n", doc.EventsLogged, doc.EventsDropped)
		for _, e := range doc.Events {
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
func assimBlock(b *strings.Builder, doc *obs.DashDoc) {
	gauge := func(name string) (int64, bool) {
		for _, g := range doc.Gauges {
			if g.Name == name {
				return g.Value, true
			}
		}
		return 0, false
	}
	rate := func(name string) float64 {
		for _, r := range doc.Rates {
			if r.Name == name {
				return r.PerSec
			}
		}
		return 0
	}
	if max, ok := gauge("fm.db.staleness.max"); ok {
		p50, _ := gauge("fm.db.staleness.p50")
		p99, _ := gauge("fm.db.staleness.p99")
		fmt.Fprintf(b, "db-stale  p50 %-10s p99 %-10s max %-10s (per-node last-validated age, sim)\n",
			sim.Duration(p50), sim.Duration(p99), sim.Duration(max))
	}
	if ev := rate("fm.assim.events"); ev > 0 {
		line := fmt.Sprintf("assim     %.1f PI-5/s assimilated   %.1f/s coalesced   %.1f flushes/s",
			ev, rate("fm.assim.events.coalesced"), rate("fm.assim.flushes"))
		for _, q := range doc.Quantiles {
			if q.Name == "fm.assim.batch.size" {
				line += fmt.Sprintf("   batch p50 %.0f p99 %.0f", q.P50, q.P99)
				break
			}
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
