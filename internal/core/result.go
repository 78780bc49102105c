package core

import (
	"fmt"

	"repro/internal/sim"
)

// Result captures one discovery run's measurements: the paper records the
// topology discovery time, the amount of management packets and bytes
// generated and received by the FM, and the FM processing timeline
// (section 4.1), which is read from the run's span log (span.Timelines). Its
// counters cover the run's own requests and the PI-5s it processes, never
// an upkeep round's (see DistResult).
type Result struct {
	Algorithm Kind
	// Start and End bound the discovery process; Duration = End - Start.
	Start, End sim.Time
	Duration   sim.Duration
	// PacketsSent/BytesSent count management packets the FM injected;
	// PacketsReceived/BytesReceived count management packets delivered
	// to it.
	PacketsSent, BytesSent         uint64
	PacketsReceived, BytesReceived uint64
	// Processed counts FM work items (packet processings) and FMBusy
	// their total cost; FMBusy/Processed is the paper's Fig. 4 metric.
	Processed int
	FMBusy    sim.Duration
	// TimedOut counts request attempts that expired without completion.
	TimedOut int
	// Retries counts timed-out attempts that were re-issued under the
	// retry policy (Options.MaxRetries).
	Retries int
	// GaveUp counts requests abandoned after exhausting every retry —
	// each one is a potentially truncated subtree. Always zero when
	// retries are disabled.
	GaveUp int
	// Stale counts completions that arrived during the run after their
	// request had timed out, whichever class sent it: the tag names no
	// request any more. Under retries these are the originals outrun by
	// their own retransmission.
	Stale int
	// Coalesced counts PI-5 reports this run assimilated through the
	// coalescing front-end's batched flushes (Options.AssimWindow);
	// always zero under per-event assimilation.
	Coalesced int
	// Devices/Switches/Links summarize the resulting topology database.
	Devices, Switches, Links int
	// Timeline is never filled: the per-packet FM processing trace behind
	// the paper's Fig. 7(a) is read from the span log (span.Timelines). The
	// field is kept only for the repo benchmark's module, which assigns
	// it, and leaves with its two assignments.
	Timeline []sim.Time `json:"-"`
}

// AvgFMProcessing returns the mean FM processing time per packet — the
// quantity plotted in the paper's Fig. 4.
func (r Result) AvgFMProcessing() sim.Duration {
	if r.Processed == 0 {
		return 0
	}
	return r.FMBusy / sim.Duration(r.Processed)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: %v, %d devices (%d switches, %d links), %d pkts sent / %d received, avg FM proc %v",
		r.Algorithm, r.Duration, r.Devices, r.Switches, r.Links,
		r.PacketsSent, r.PacketsReceived, r.AvgFMProcessing())
}
