package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Report is one reproduced table or figure, rendered as text rows. The
// harness does not plot; the rows carry exactly the series a figure
// would, so the numbers can be compared against the paper directly or
// read by a plotting tool from the run-report envelope (`asibench
// -json`), a table's one machine form.
type Report struct {
	// ID is the experiment identifier, e.g. "fig6a".
	ID string `json:"id"`
	// Title describes the experiment as the paper captions it.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows holds the data, stringified.
	Rows [][]string `json:"rows"`
	// Notes carries methodology remarks appended after the table.
	Notes []string `json:"notes,omitempty"`
}

// Render writes an aligned text table.
func (r Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
