package fabric

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

// Fault injection. The paper's discovery algorithms assume a lossless
// fabric; real fabrics lose, delay and flap. A FaultPlan attached to a
// Fabric perturbs link behaviour in three ways — probabilistic packet
// loss, deterministic loss of the first N traversals (for reproducing an
// exact failure in tests), and jittered extra delivery delay — plus
// scheduled link flaps (a link trains down for a bounded window and back
// up). All randomness comes from a generator split off the fabric's own
// seeded RNG, so a given (seed, plan) pair replays bit-identically.

// LinkFaults describes the perturbations applied to one link. The zero
// value injects nothing.
type LinkFaults struct {
	// Loss is the probability that any one traversal of the link (either
	// direction) silently discards the packet.
	Loss float64
	// DropFirst deterministically discards the first N traversals of the
	// link, independent of Loss. It makes single-packet loss scenarios
	// exactly reproducible without tuning probabilities.
	DropFirst int
	// DelayProb is the probability that a traversal is delivered late.
	DelayProb float64
	// Delay is the maximum extra delivery latency of a late traversal;
	// the actual amount is uniformly jittered in (0, Delay].
	Delay sim.Duration
}

// active reports whether the rule can ever inject anything.
func (lf LinkFaults) active() bool {
	return lf.Loss > 0 || lf.DropFirst > 0 || (lf.DelayProb > 0 && lf.Delay > 0)
}

// Flap schedules one bounded link outage: the link trains down at At and
// back up Duration later. Packets queued or sent during the window are
// discarded, as a physical retrain would.
type Flap struct {
	// Link is the topology link index (the order of Topology.Links).
	Link     int
	At       sim.Time
	Duration sim.Duration
}

// FaultPlan is a reproducible description of every fault to inject into a
// fabric run.
type FaultPlan struct {
	// Default applies to every link without a PerLink override.
	Default LinkFaults
	// PerLink overrides Default for specific topology link indices.
	PerLink map[int]LinkFaults
	// Flaps are scheduled link outages.
	Flaps []Flap
}

// Empty reports whether the plan injects nothing at all.
func (p FaultPlan) Empty() bool {
	if p.Default.active() || len(p.Flaps) > 0 {
		return false
	}
	for _, lf := range p.PerLink {
		if lf.active() {
			return false
		}
	}
	return true
}

// Uniform returns a plan that drops every link traversal with the given
// probability — the loss model of the experiment sweeps.
func Uniform(loss float64) FaultPlan {
	return FaultPlan{Default: LinkFaults{Loss: loss}}
}

// faultState is the per-fabric runtime of an installed plan.
type faultState struct {
	plan FaultPlan
	rng  *sim.RNG
	// sent counts traversals per link (both directions), for DropFirst.
	sent []int
}

// rule returns the effective faults for a link index.
func (fs *faultState) rule(idx int) LinkFaults {
	if lf, ok := fs.plan.PerLink[idx]; ok {
		return lf
	}
	return fs.plan.Default
}

// NumLinks returns the number of instantiated links, in topology order.
func (f *Fabric) NumLinks() int { return len(f.links) }

// LinkAt returns the topology link index of the link cabled to the given
// device port, or false if the port is uncabled.
func (f *Fabric) LinkAt(id topo.NodeID, port int) (int, bool) {
	d := f.devices[id]
	if port < 0 || port >= len(d.ports) || d.ports[port].link == nil {
		return 0, false
	}
	return d.ports[port].link.idx, true
}

// SetFaultPlan installs a fault plan, scheduling its flaps on the engine.
// Passing an empty plan removes a previously installed one. The plan's
// randomness is split off the fabric's RNG at installation time, so the
// call itself is part of the reproducible run description.
func (f *Fabric) SetFaultPlan(p FaultPlan) error {
	if f.group != nil && !p.Empty() {
		return fmt.Errorf("fabric: fault plans are unsupported with parallel regions")
	}
	for _, fl := range p.Flaps {
		if fl.Link < 0 || fl.Link >= len(f.links) {
			return fmt.Errorf("fabric: flap references link %d of %d", fl.Link, len(f.links))
		}
		if fl.Duration <= 0 {
			return fmt.Errorf("fabric: flap on link %d has non-positive duration", fl.Link)
		}
	}
	if p.Empty() {
		f.faults = nil
		return nil
	}
	f.faults = &faultState{plan: p, rng: f.rng.Split(), sent: make([]int, len(f.links))}
	for _, fl := range p.Flaps {
		f.scheduleFlap(fl)
	}
	return nil
}

// FlapLink schedules one bounded outage of a topology link at an absolute
// simulation time, independently of any installed fault plan. Event
// scripts (the chaos harness) use it to flap links mid-run once the
// transient period's length is known; the flap semantics are identical to
// a FaultPlan flap.
func (f *Fabric) FlapLink(link int, at sim.Time, d sim.Duration) error {
	if f.group != nil {
		return fmt.Errorf("fabric: link flaps are unsupported with parallel regions")
	}
	if link < 0 || link >= len(f.links) {
		return fmt.Errorf("fabric: flap references link %d of %d", link, len(f.links))
	}
	if d <= 0 {
		return fmt.Errorf("fabric: flap on link %d has non-positive duration", link)
	}
	f.scheduleFlap(Flap{Link: link, At: at, Duration: d})
	return nil
}

// scheduleFlap arms the down/up event pair of one validated flap.
func (f *Fabric) scheduleFlap(fl Flap) {
	lk := &f.links[fl.Link]
	f.Engine.At(fl.At, func(*sim.Engine) {
		if !lk.up {
			return // already down (e.g. hot removal); nothing to flap
		}
		f.counters[0].LinkFlaps++
		if f.spans != nil {
			f.spanInstant(span.KindFlap, nil, lk.a, lk.aPort, fmt.Sprintf("flap-down link=%d for=%v", fl.Link, fl.Duration))
		}
		lk.setUp(false)
	})
	f.Engine.At(fl.At.Add(fl.Duration), func(*sim.Engine) {
		if lk.up {
			return
		}
		if f.spans != nil {
			f.spanInstant(span.KindFlap, nil, lk.a, lk.aPort, fmt.Sprintf("flap-up link=%d", fl.Link))
		}
		lk.setUp(true)
	})
}

// faultDrop decides whether the plan discards this traversal of l, and
// accounts for it if so.
func (f *Fabric) faultDrop(l *link, d *Device, pkt *asi.Packet) bool {
	fs := f.faults
	if fs == nil {
		return false
	}
	lf := fs.rule(l.idx)
	if !lf.active() {
		return false
	}
	n := fs.sent[l.idx]
	fs.sent[l.idx]++
	drop := n < lf.DropFirst
	if !drop && lf.Loss > 0 {
		drop = fs.rng.Float64() < lf.Loss
	}
	if drop {
		f.drop(DropFaultInjected)
		if f.tel != nil {
			f.tel.linkFault.Inc(l.idx)
		}
		f.spanDrop(DropFaultInjected, d, l.portOf(d), pkt)
	}
	return drop
}

// faultDelay returns the extra delivery latency the plan injects into this
// traversal of l, zero for most.
func (f *Fabric) faultDelay(l *link) sim.Duration {
	fs := f.faults
	if fs == nil {
		return 0
	}
	lf := fs.rule(l.idx)
	if lf.DelayProb <= 0 || lf.Delay <= 0 {
		return 0
	}
	if fs.rng.Float64() >= lf.DelayProb {
		return 0
	}
	extra := sim.Duration(float64(lf.Delay) * fs.rng.Float64())
	if extra <= 0 {
		extra = 1 // at least one picosecond late
	}
	f.counters[0].FaultDelays++
	if f.tel != nil {
		f.tel.faultDelays.Inc()
	}
	return extra
}
