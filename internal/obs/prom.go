package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// Prometheus text-format exposition (version 0.0.4), written without any
// client library. Naming scheme:
//
//	telemetry "fm.rtt.port-read"  ->  asi_fm_rtt_port_read
//
// Counters expose their cumulative value plus a "<name>_rate" gauge (the
// windowed per-second rate, so dashboards get rates even without a
// Prometheus server computing them); counter vectors expose one sample
// per non-zero index under an index="i" label; histograms expose the
// standard _bucket/_sum/_count triple plus windowed _p50/_p99 gauges
// carrying the histogram's unit as a unit label.
// The serving layer contributes the staleness SLO (generation-lag
// percentiles) and the install→deliver latency histogram.
//
// The document is appended into a pooled buffer and windowed values are
// read from a telemetry.Window, so a steady-state render allocates nothing.

// MetricsContentType is the exposition content type.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves the Prometheus exposition of the latest sample.
func (p *Plane) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		p.WriteProm(w)
	})
}

// promWriter is one render's working state: the document, the Prometheus
// name of the metric being written, and a windowed histogram's bucket
// counts.
type promWriter struct {
	b, name []byte
	counts  []uint64
}

var promWriters = sync.Pool{New: func() any { return new(promWriter) }}

// WriteProm renders the exposition document. The plane's lock is held
// only to read the two samples; the document is built and written
// outside it, in one Write, so a slow reader delays no other render and
// no scrape.
func (p *Plane) WriteProm(w io.Writer) {
	pw := promWriters.Get().(*promWriter)
	pw.b = pw.b[:0]
	p.render(pw)
	w.Write(pw.b)
	promWriters.Put(pw)
}

// render appends the exposition document of the latest sample to w.b.
func (p *Plane) render(w *promWriter) {
	cur, base, sec, scrapes, ok := p.rateWindow()
	w.fixed("asi_up", "gauge", "whether the observability plane is serving", 1)
	w.fixed("asi_obs_scrapes_total", "counter", "telemetry samples stored", float64(scrapes))
	w.fixed("asi_obs_events_logged_total", "counter", "structured events appended to the bounded log", float64(p.EventsLogged()))
	w.fixed("asi_obs_events_dropped_total", "counter", "structured events evicted from the bounded log", float64(p.EventsDropped()))
	if !ok {
		return
	}

	windowed := sec > 0
	w.fixed("asi_obs_window_seconds", "gauge", "wall span of the rate window", sec)
	w.fixed("asi_sim_time_ps", "gauge", "simulation clock, picoseconds", float64(cur.SimPS))

	tw := telemetry.NewWindow(cur.Telemetry, base.Telemetry)
	for _, c := range cur.Telemetry.Counters {
		w.named(c.Name)
		w.meta("", "counter", "telemetry counter ", c.Name, "")
		w.sample("", float64(c.Value))
		if windowed {
			w.meta("_rate", "gauge", "windowed per-second rate of ", c.Name, "")
			w.sample("_rate", windowRate(&tw, c.Name, sec))
		}
	}
	for _, g := range cur.Telemetry.Gauges {
		w.named(g.Name)
		w.meta("", "gauge", "telemetry gauge ", g.Name, "")
		w.sample("", float64(g.Value))
	}
	lastVec := ""
	for i, v := range cur.Telemetry.Vectors {
		if i == 0 || v.Name != cur.Telemetry.Vectors[i-1].Name {
			w.named(v.Name)
		}
		if v.Name != lastVec {
			w.meta("", "counter", "telemetry counter family ", v.Name, "")
			lastVec = v.Name
			if windowed {
				w.meta("_rate", "gauge", "windowed per-second rate of ", v.Name, " (all indices)")
				w.sample("_rate", windowRate(&tw, v.Name, sec))
			}
		}
		w.b = append(append(w.b, w.name...), `{index="`...)
		w.b = strconv.AppendInt(w.b, int64(v.Index), 10)
		w.b = append(w.b, `"}`...)
		w.value(float64(v.Value))
	}
	for _, h := range cur.Telemetry.Histograms {
		w.named(h.Name)
		w.histogram("telemetry histogram ", h.Name, h)
		if !windowed {
			continue
		}
		dh, ok := tw.Histogram(h.Name, w.counts)
		w.counts = dh.Counts
		if ok && dh.Count > 0 {
			w.meta("_p50", "gauge", "windowed p50 of ", h.Name, "")
			w.quantile("_p50", h.Unit, dh.Quantile(0.50))
			w.meta("_p99", "gauge", "windowed p99 of ", h.Name, "")
			w.quantile("_p99", h.Unit, dh.Quantile(0.99))
		}
	}

	// Serving layer: generations, subscribers, the staleness SLO.
	sv := cur.Serving
	w.fixed("asi_rib_generation", "gauge", "current RIB generation", float64(sv.Gen))
	w.fixed("asi_rib_installs_total", "counter", "RIB generations installed", float64(sv.Installs))
	w.fixed("asi_rib_leaves", "gauge", "served leaves in the current generation", float64(sv.Leaves))
	w.fixed("asi_rib_subscribers", "gauge", "live subscriptions", float64(sv.Subscribers))
	w.fixed("asi_rib_resyncs_total", "counter", "full-state resyncs forced by subscriber overflow", float64(sv.Resyncs))
	w.fixed("asi_rib_deliveries_total", "counter", "batches consumed by subscriber readers", float64(sv.Deliveries))
	w.name = append(w.name[:0], "asi_rib_staleness_generations"...)
	w.meta("", "gauge", "subscriber generation-lag percentiles (staleness SLO)", "", "")
	w.sample(`{quantile="0.5"}`, float64(sv.Staleness.P50))
	w.sample(`{quantile="0.99"}`, float64(sv.Staleness.P99))
	w.sample(`{quantile="1"}`, float64(sv.Staleness.Max))
	if sv.DeliverLatency.Count > 0 || len(sv.DeliverLatency.Bounds) > 0 {
		w.name = append(w.name[:0], "asi_rib_deliver_latency_ns"...)
		w.histogram("install-to-deliver wall latency, nanoseconds", "", sv.DeliverLatency)
	}
}

// windowRate is the windowed per-second rate exposed under one name: the
// change of the counter and of every vector slot called name.
func windowRate(tw *telemetry.Window, name string, sec float64) float64 {
	c, _ := tw.Counter(name)
	return float64(c+tw.Family(name)) / sec
}

// named makes the Prometheus name of a telemetry metric the current one:
// the asi_ namespace prefix plus every rune outside [a-zA-Z0-9_] mapped
// to '_' ("fm.rtt.port-read" -> "asi_fm_rtt_port_read").
func (w *promWriter) named(metric string) {
	w.name = append(w.name[:0], "asi_"...)
	for _, r := range metric {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			w.name = append(w.name, byte(r))
		default:
			w.name = append(w.name, '_')
		}
	}
}

// fixed writes a metric with a literal name and one sample.
func (w *promWriter) fixed(name, typ, help string, v float64) {
	w.name = append(w.name[:0], name...)
	w.meta("", typ, help, "", "")
	w.sample("", v)
}

// meta writes the HELP/TYPE preamble of the current name plus suffix; the
// help text is the concatenation of its three parts.
func (w *promWriter) meta(suffix, typ, help, subject, tail string) {
	w.b = append(w.b, "# HELP "...)
	w.b = append(append(w.b, w.name...), suffix...)
	w.b = append(append(append(append(w.b, ' '), help...), subject...), tail...)
	w.b = append(w.b, "\n# TYPE "...)
	w.b = append(append(w.b, w.name...), suffix...)
	w.b = append(append(append(w.b, ' '), typ...), '\n')
}

// sample writes one sample line of the current name plus suffix (a name
// suffix, a label set, or both).
func (w *promWriter) sample(suffix string, v float64) {
	w.b = append(append(w.b, w.name...), suffix...)
	w.value(v)
}

// quantile writes one windowed quantile sample of the current name plus
// suffix, labelled unit="<unit>" when the histogram registered a unit, so
// a reader can tell a simulated duration (ps) from a wall one (ns).
func (w *promWriter) quantile(suffix, unit string, v float64) {
	w.b = append(append(w.b, w.name...), suffix...)
	if unit != "" {
		w.b = append(strconv.AppendQuote(append(w.b, "{unit="...), unit), '}')
	}
	w.value(v)
}

// value ends a sample line with v the way Prometheus expects it (+Inf,
// -Inf and NaN included).
func (w *promWriter) value(v float64) {
	w.b = strconv.AppendFloat(append(w.b, ' '), v, 'g', -1, 64)
	w.b = append(w.b, '\n')
}

// count ends a sample line with an integer count.
func (w *promWriter) count(n uint64) {
	w.b = strconv.AppendUint(append(w.b, ' '), n, 10)
	w.b = append(w.b, '\n')
}

// histogram writes the _bucket/_sum/_count exposition of one fixed-bucket
// histogram snapshot under the current name.
func (w *promWriter) histogram(help, subject string, h telemetry.HistogramSnap) {
	w.meta("", "histogram", help, subject, "")
	cum := uint64(0)
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		w.b = append(append(w.b, w.name...), `_bucket{le="`...)
		w.b = strconv.AppendFloat(w.b, float64(b), 'g', -1, 64)
		w.b = append(w.b, `"}`...)
		w.count(cum)
	}
	w.b = append(append(w.b, w.name...), `_bucket{le="+Inf"}`...)
	w.count(h.Count)
	w.sample("_sum", float64(h.Sum))
	w.b = append(append(w.b, w.name...), "_count"...)
	w.count(h.Count)
}

// PromPoint is one parsed exposition sample.
type PromPoint struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm is a strict-enough parser for the exposition format this
// package writes (and the subset Prometheus itself accepts): HELP/TYPE
// comments and name{labels} value samples. It returns every sample plus
// the declared type per metric name, or an error naming the offending
// line. cmd/asitop reads the daemon's /metrics through it.
func ParseProm(r io.Reader) (points []PromPoint, types map[string]string, err error) {
	types = make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					types[fields[2]] = fields[3]
				default:
					return nil, nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
			}
			continue
		}
		pt, perr := parseSample(line)
		if perr != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo, perr)
		}
		points = append(points, pt)
	}
	return points, types, sc.Err()
}

// parseSample parses `name{l1="v1",...} value`.
func parseSample(line string) (PromPoint, error) {
	pt := PromPoint{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return pt, fmt.Errorf("no value in %q", line)
	} else {
		pt.Name = rest[:i]
		rest = rest[i:]
	}
	if pt.Name == "" || !validPromName(pt.Name) {
		return pt, fmt.Errorf("bad metric name in %q", line)
	}
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest[1:], pt.Labels); err != nil {
			return pt, fmt.Errorf("%v in %q", err, line)
		}
		rest = strings.TrimSpace(rest)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return pt, fmt.Errorf("no value in %q", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return pt, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	pt.Value = v
	return pt, nil
}

// parseLabels parses `l1="v1",l2="v2"}` into labels and returns what
// follows the closing brace. A value is a double-quoted string whose
// escapes strconv.Unquote reads; a comma or brace inside it is part of
// it, and a trailing comma before the brace is allowed.
func parseLabels(s string, labels map[string]string) (rest string, err error) {
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return "", fmt.Errorf("unterminated labels")
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) {
			return "", fmt.Errorf("bad label name %q", name)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		end := 1
		for ; end < len(s) && s[end] != '"'; end++ {
			if s[end] == '\\' {
				end++
			}
		}
		if !strings.HasPrefix(s, `"`) || end >= len(s) {
			return "", fmt.Errorf("bad label value for %q", name)
		}
		v, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return "", fmt.Errorf("bad label value %s: %v", s[:end+1], err)
		}
		labels[name] = v
		s = strings.TrimLeft(s[end+1:], " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if !strings.HasPrefix(s, "}") {
			return "", fmt.Errorf("unterminated labels")
		}
	}
}

// parsePromValue accepts the exposition's float syntax.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	return !strings.Contains(name, ":") && validPromName(name)
}

// validPromName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(name string) bool {
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return name != ""
}
