package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/rib"
	"repro/internal/telemetry"
)

// DashDoc is the /obs.json document: one self-contained frame of the
// dashboard cmd/asitop renders. Everything in it is derived from the
// sample ring — serving it never touches the registry or the RIB.
type DashDoc struct {
	// Wall is the newest sample's wall-clock instant; WindowSec the wall
	// span of the rate window behind it.
	Wall      time.Time `json:"wall"`
	WindowSec float64   `json:"window_sec"`
	// SimPS is the simulation clock in picoseconds; Gen the RIB
	// generation — both at the newest sample.
	SimPS int64  `json:"sim_ps"`
	Gen   uint64 `json:"gen"`
	// Scrapes counts samples ever stored.
	Scrapes uint64 `json:"scrapes"`
	// Rates are the windowed counter rates; Gauges the instantaneous
	// gauge values; Quantiles the windowed histogram percentiles.
	Rates     []Rate          `json:"rates,omitempty"`
	Gauges    []GaugeValue    `json:"gauges,omitempty"`
	Quantiles []HistQuantiles `json:"quantiles,omitempty"`
	// Serving is the RIB serving-layer view including the staleness SLO.
	Serving rib.Stats `json:"serving"`
	// Events is the tail of the structured event log, oldest first.
	Events        []Event `json:"events,omitempty"`
	EventsLogged  uint64  `json:"events_logged"`
	EventsDropped uint64  `json:"events_dropped"`
}

// GaugeValue is one instantaneous gauge reading.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Dash assembles the current dashboard document.
func (p *Plane) Dash(eventTail int) DashDoc {
	cur, base, sec, scrapes, ok := p.rateWindow()
	doc := DashDoc{
		Scrapes:       scrapes,
		Events:        p.Events(eventTail),
		EventsLogged:  p.EventsLogged(),
		EventsDropped: p.EventsDropped(),
	}
	if !ok {
		return doc
	}
	doc.Wall = cur.Wall
	doc.WindowSec = sec
	doc.SimPS = cur.SimPS
	doc.Gen = cur.Gen
	doc.Serving = cur.Serving
	for _, g := range cur.Telemetry.Gauges {
		doc.Gauges = append(doc.Gauges, GaugeValue{Name: g.Name, Value: g.Value})
	}
	if sec > 0 {
		tw := telemetry.NewWindow(cur.Telemetry, base.Telemetry)
		doc.Rates, doc.Quantiles = windowStats(&tw, sec)
	}
	return doc
}

// DashHandler serves the dashboard document as JSON. ?events= bounds the
// event tail (default 20).
func (p *Plane) DashHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tail := 20
		if q := req.URL.Query().Get("events"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "bad events: want a non-negative integer", http.StatusBadRequest)
				return
			}
			tail = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.Dash(tail))
	})
}
