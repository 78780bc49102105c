package span

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ASCII Gantt rendering: the terminal form of the paper's Fig. 5-7
// timelines. Each run prints one chart; each request is a row whose
// cells are painted by the kind of span covering that time slice, so a
// round trip reads left to right as FM queueing, FM processing, wire
// hops, device queueing/servicing, and (under faults) backoffs, drops
// and retries. Rows on the run's critical path are starred.

// GanttOptions tunes the renderer; zero values pick the defaults.
type GanttOptions struct {
	// Width is the number of timeline columns (default 96).
	Width int
	// MaxRows caps the request rows drawn per run, keeping charts for
	// big fabrics readable; 0 draws every request. Elided rows are
	// summarized in a trailing note, never silently dropped.
	MaxRows int
}

// ganttChar maps a span kind to its cell glyph. Later entries in the
// paint order overwrite earlier ones, so the most specific activity
// (device service, stalls, drops) wins when spans overlap a cell.
var ganttChar = [numKinds]byte{
	KindRun:        ' ',
	KindRequest:    '.',
	KindAttempt:    0, // extent only; the request row already shows it
	KindBackoff:    'b',
	KindFMQueue:    'f',
	KindFMService:  'F',
	KindLinkQueue:  'q',
	KindWire:       'w',
	KindDevQueue:   'u',
	KindDevService: 'd',
	KindStall:      '!',
	KindFaultDelay: '~',
	KindDrop:       'x',
}

// ganttPaint is the overwrite order, least to most specific.
var ganttPaint = []Kind{
	KindRequest, KindFMQueue, KindBackoff, KindLinkQueue, KindDevQueue,
	KindWire, KindDevService, KindFMService, KindFaultDelay, KindStall, KindDrop,
}

// GanttLegend is printed under every chart.
const GanttLegend = "legend: .=in flight f=fm-queue F=fm-service q=link-queue w=wire " +
	"u=dev-queue d=dev-service b=backoff ~=fault-delay !=stall x=drop *=critical path"

// WriteGantt renders every run of the analysis as an ASCII Gantt chart.
func WriteGantt(w io.Writer, a *Analysis, opt GanttOptions) error {
	width := opt.Width
	if width <= 0 {
		width = 96
	}
	for ri := range a.Runs {
		ra := &a.Runs[ri]
		if ri > 0 {
			fmt.Fprintln(w)
		}
		if err := writeRunGantt(w, ra, width, opt.MaxRows); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, GanttLegend)
	return err
}

func writeRunGantt(w io.Writer, ra *RunAnalysis, width, maxRows int) error {
	fmt.Fprintf(w, "%s\n", ra.Summary())
	span := ra.Run.Duration()
	if span <= 0 {
		span = 1
	}
	cell := func(t sim.Time) int {
		c := int(int64(t.Sub(ra.Run.Start)) * int64(width) / int64(span))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	critical := make(map[ID]bool, len(ra.Critical))
	for _, s := range ra.Critical {
		critical[s.ID] = true
	}

	rows := ra.Requests
	elided := 0
	if maxRows > 0 && len(rows) > maxRows {
		elided = len(rows) - maxRows
		rows = rows[:maxRows]
	}

	labelW := 0
	labels := make([]string, len(rows))
	for i, rv := range rows {
		mark := ' '
		if critical[rv.Span.ID] {
			mark = '*'
		}
		labels[i] = fmt.Sprintf("%c#%-4d %-9s %-22s", mark, rv.Span.ID, rv.Span.Name, rv.Span.Device)
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}

	// Time axis: run-relative start/end in the header line.
	fmt.Fprintf(w, "%*s|%v%*s%v|\n", labelW, "", sim.Duration(0),
		width-len(fmt.Sprint(sim.Duration(0)))-len(fmt.Sprint(span)), "", span)

	line := make([]byte, width)
	for i, rv := range rows {
		for j := range line {
			line[j] = ' '
		}
		paintSpan(line, rv.Span, cell)
		for _, k := range ganttPaint[1:] {
			for _, c := range rv.Children {
				if c.Kind == k {
					paintSpan(line, c, cell)
				}
			}
		}
		fmt.Fprintf(w, "%-*s|%s|\n", labelW, labels[i], line)
	}
	if elided > 0 {
		fmt.Fprintf(w, "%*s(+%d more requests not shown)\n", labelW, "", elided)
	}
	return nil
}

// paintSpan fills the cells a span covers with its glyph. Instants and
// sub-cell spans still mark one cell so nothing disappears at scale.
func paintSpan(line []byte, s Span, cell func(sim.Time) int) {
	ch := ganttChar[s.Kind]
	if ch == 0 || ch == ' ' {
		return
	}
	from, to := cell(s.Start), cell(s.End)
	for i := from; i <= to; i++ {
		line[i] = ch
	}
}

// WriteReport renders the full asitrace text report: per-run Gantt,
// critical path and per-kind breakdown.
func WriteReport(w io.Writer, a *Analysis, opt GanttOptions) error {
	if err := WriteGantt(w, a, opt); err != nil {
		return err
	}
	for ri := range a.Runs {
		ra := &a.Runs[ri]
		fmt.Fprintf(w, "\ncritical path of run %q (%d requests):\n", ra.Run.Name, len(ra.Critical))
		for _, s := range ra.Critical {
			fmt.Fprintf(w, "  #%-4d %-9s %-22s %v .. %v (%v, %s)\n",
				s.ID, s.Name, s.Device, s.Start, s.End, s.Duration(), s.Status)
		}
		fmt.Fprintf(w, "breakdown of run %q:\n", ra.Run.Name)
		type row struct {
			k Kind
			t KindTotal
		}
		var rowsOut []row
		for k := Kind(0); k < numKinds; k++ {
			if ra.ByKind[k].Count > 0 {
				rowsOut = append(rowsOut, row{k, ra.ByKind[k]})
			}
		}
		sort.SliceStable(rowsOut, func(i, j int) bool { return rowsOut[i].t.Total > rowsOut[j].t.Total })
		for _, r := range rowsOut {
			fmt.Fprintf(w, "  %-12s %6d spans  %14v total\n", r.k, r.t.Count, r.t.Total)
		}
	}
	return nil
}

// String renders the report to a string, for tests and small tools.
func (a *Analysis) String() string {
	var b strings.Builder
	_ = WriteReport(&b, a, GanttOptions{})
	return b.String()
}
