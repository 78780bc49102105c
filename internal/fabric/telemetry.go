package fabric

import (
	"repro/internal/asi"
	"repro/internal/telemetry"
)

// Telemetry metric names exported by the fabric. Per-link families are
// indexed by the topology link index (Topology.Links order, the same ids
// -trace and -flap use); the per-VC family is indexed by virtual channel.
const (
	MetricLinkTx       = "fabric.link.tx.packets"    // transmissions per link
	MetricLinkStall    = "fabric.link.credit.stalls" // credit-starved tx attempts per link
	MetricLinkFault    = "fabric.link.fault.drops"   // fault-injected drops per link
	MetricVCTx         = "fabric.vc.tx.packets"      // transmissions per virtual channel
	MetricFaultDelays  = "fabric.fault.delays"       // traversals delivered late by the plan
	MetricLinkFlaps    = "fabric.link.flaps"         // flap windows that took a link down
	MetricDropsByCause = "fabric.drops"              // discarded packets per DropReason
)

// fabricTelemetry is the fabric's bundle of pre-registered metric
// handles. It exists (non-nil) only while telemetry is enabled; every
// hot-path site guards on that one pointer, so disabled telemetry costs
// a single predictable branch per site and enabled telemetry costs an
// indexed increment — neither allocates.
type fabricTelemetry struct {
	linkTx      *telemetry.CounterVec
	linkStall   *telemetry.CounterVec
	linkFault   *telemetry.CounterVec
	vcTx        *telemetry.CounterVec
	drops       *telemetry.CounterVec
	faultDelays *telemetry.Counter
}

// EnableTelemetry registers the fabric's per-link, per-VC and fault
// metrics with reg and starts recording into them. A nil reg disables
// recording again. Enabling telemetry never changes simulated behaviour:
// no events are scheduled and no packet is touched.
func (f *Fabric) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		f.tel = nil
		return
	}
	if f.group != nil {
		panic("fabric: telemetry is unsupported with parallel regions")
	}
	f.tel = &fabricTelemetry{
		linkTx:      reg.CounterVec(MetricLinkTx, len(f.links)),
		linkStall:   reg.CounterVec(MetricLinkStall, len(f.links)),
		linkFault:   reg.CounterVec(MetricLinkFault, len(f.links)),
		vcTx:        reg.CounterVec(MetricVCTx, int(asi.NumVCs)),
		drops:       reg.CounterVec(MetricDropsByCause, int(numDropReasons)),
		faultDelays: reg.Counter(MetricFaultDelays),
	}
}

// FinishTelemetry publishes the fabric totals kept outside the registry
// (flap count) into it. Cold path; the total is republished, so a daemon
// may call it on every scrape as well as once when a run completes.
func (f *Fabric) FinishTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(MetricLinkFlaps).SetTotal(f.Counters().LinkFlaps)
}
