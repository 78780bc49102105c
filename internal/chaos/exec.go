package chaos

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Options configures how a scenario is executed (none of it is part of
// the scenario itself: the same scenario replays identically under any
// observation options).
type Options struct {
	// Horizon bounds each phase's simulated time. The event queue of a
	// healthy run always drains long before it; hitting the horizon with
	// events still pending is the oracle's "engine hung" signal. Zero
	// selects DefaultHorizon.
	Horizon sim.Duration
	// Telemetry and Spans attach the respective observers; both add
	// oracle coverage (conservation laws, span validation) at some
	// execution cost.
	Telemetry bool
	Spans     bool
	// SkipPI5 makes the FM's packet handler silently swallow the first N
	// PI-5 event reports. It exists to break the system on purpose: the
	// oracle must notice (delivered-but-unassimilated reports), which is
	// how the harness tests itself.
	SkipPI5 int
	// OnDiscovery, when non-nil, observes every completed discovery run
	// with the manager's live database — the hook a RIB installer uses
	// to turn scripted churn into a continuous stream of generations
	// instead of one run per change. Pure observation: the callback
	// must not mutate the database, and it runs outside simulated time,
	// so scenario fingerprints are unaffected.
	OnDiscovery func(db *core.DB, r core.Result)
	// Coalesce enables the manager's continuous-assimilation front-end
	// (core.Options.AssimWindow): PI-5 reports debounce in a window of
	// coalesceWindow bounded by the manager's default batch cap, and
	// flush as one batched partial run. Only the Partial algorithm
	// assimilates events localizedly, so it is inert for the other kinds.
	Coalesce bool
	// Continuous > 0 appends a steady-state churn phase after the
	// scripted events settle: that many rounds, each a Churner storm of
	// continuousOps toggles followed by full restoration, run to
	// quiescence with the database checked against ground truth at every
	// quiescent point.
	Continuous int
}

// continuousOps is the toggle count of one Options.Continuous storm.
const continuousOps = 4

// coalesceWindow is Options.Coalesce's debounce window.
const coalesceWindow = 200 * sim.Microsecond

// DefaultHorizon is far beyond any legitimate phase: the worst Table 1
// fabric under maximum loss and retries quiesces in well under a second
// of simulated time.
const DefaultHorizon = 30 * sim.Second

// Report is everything the oracle (and a human debugging a failure)
// needs to know about one executed scenario.
type Report struct {
	Scenario Scenario

	// Results lists every completed discovery run in completion order:
	// the initial discovery, any churn-triggered assimilations, and the
	// audit rediscovery last (when it ran).
	Results []core.Result

	// InitialOK records that the initial discovery completed; InitialErr
	// its ground-truth comparison (only performed when trustworthy).
	InitialOK  bool
	InitialErr error
	// DistFailures counts failed event-route writes during distribution.
	DistFailures int
	// EventErrs records scripted events the fabric rejected.
	EventErrs []string

	// Hung names the phase that exhausted the horizon ("" = none);
	// StillDiscovering reports a manager mid-run after the script
	// quiesced with a drained event queue.
	Hung             string
	StillDiscovering bool

	// T0 is when the transient period (initial discovery + event-route
	// distribution) ended and the event script's clock started;
	// LastChange is when the script's final perturbation was fully
	// applied (for a flap, when the link came back up).
	T0, LastChange sim.Time
	// PI5AfterLast counts PI-5 event reports the fabric delivered at or
	// after LastChange; ChurnRun indexes the last completed run covering
	// LastChange — started at or after it, or a partial-assimilation run
	// still open at it (-1 = none).
	PI5AfterLast uint64
	ChurnRun     int

	// WantDevices/WantLinks is the alive-fabric ground truth after the
	// script quiesced; PostChurnDevices/Links the FM database then, and
	// PostChurnFP its topology fingerprint — the quiescent-state value
	// the coalesced/per-event equivalence suite compares across
	// assimilation modes.
	WantDevices, WantLinks           int
	PostChurnDevices, PostChurnLinks int
	PostChurnFP                      uint64

	// ContinuousRounds counts completed steady-state churn rounds
	// (Options.Continuous); ContinuousChecked the subset whose quiescent
	// point was convergence-checked against ground truth (only loss-free
	// scenarios are checkable — injected loss leaves the FM legitimately
	// stale until the audit); ContinuousErrs records every invariant
	// violated at a quiescent point.
	ContinuousRounds  int
	ContinuousChecked int
	ContinuousErrs    []string

	// Audit is the forced post-quiescence rediscovery.
	AuditRan bool
	Audit    core.Result
	AuditErr error

	// DBFingerprint hashes the final database topology; Fingerprint
	// hashes the whole run's observable metrics. Two executions of the
	// same scenario must produce identical fingerprints.
	DBFingerprint uint64
	Fingerprint   uint64

	// Processed is the total simulation event count; Counters the final
	// fabric accounting.
	Processed uint64
	Counters  fabric.Counters
	// Telemetry and Spans are present only when requested in Options.
	Telemetry *telemetry.Snapshot
	Spans     *span.Log
}

// pi5Filter wraps the manager's packet handler and swallows the first N
// PI-5 reports (Options.SkipPI5). The fabric has already counted the
// delivery by the time the handler runs, which is exactly the asymmetry
// the oracle exploits to catch the lost assimilation.
type pi5Filter struct {
	inner fabric.Handler
	skip  int
}

func (p *pi5Filter) HandlePacket(port int, pkt *asi.Packet) {
	if p.skip > 0 && pkt.Header.PI == asi.PI5EventReporting {
		p.skip--
		return
	}
	p.inner.HandlePacket(port, pkt)
}

// execution is one scenario run in progress: the rig it runs on, the
// report the phases fill in, and what they share.
type execution struct {
	opt     Options
	horizon sim.Duration
	rig     *rig.Rig
	churner *Churner // non-nil when the continuous phase is on
	rep     *Report
}

// Execute runs one scenario to completion and reports everything the
// oracle checks. The error return covers scenario construction problems
// only (invalid scenario, unbuildable topology); anomalies of the run
// itself land in the Report for the Oracle to judge.
//
// The run is a chain of phases over one execution record. Each reports
// whether the run may continue: a phase that exhausts the horizon with
// events still queued names itself in Report.Hung and the rest are
// skipped. finish closes the report either way.
func Execute(sc Scenario, opt Options) (*Report, error) {
	x, err := newExecution(sc, opt)
	if err != nil {
		return nil, err
	}
	_ = x.transient() && x.script() && x.continuous() && x.audit()
	x.finish()
	return x.rep, nil
}

// newExecution validates the scenario and assembles its rig.
func newExecution(sc Scenario, opt Options) (*execution, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	kind, err := sc.Kind()
	if err != nil {
		return nil, err
	}
	tp, err := sc.Topology.Build()
	if err != nil {
		return nil, err
	}
	x := &execution{opt: opt, horizon: opt.Horizon, rep: &Report{Scenario: sc, ChurnRun: -1}}
	if x.horizon <= 0 {
		x.horizon = DefaultHorizon
	}
	cfg := rig.Config{
		Seed:      sc.Seed,
		Faults:    sc.FaultPlan(),
		Telemetry: opt.Telemetry,
		Spans:     opt.Spans,
		Manager: core.Options{
			Algorithm:    kind,
			MaxRetries:   sc.MaxRetries,
			RetryBackoff: sim.Micros(sc.BackoffUS),
		},
	}
	if opt.Coalesce {
		cfg.Manager.AssimWindow = coalesceWindow
	}
	if x.rig, err = rig.New(tp, cfg); err != nil {
		return nil, err
	}
	if opt.Continuous > 0 {
		if x.churner, err = NewChurner(tp, sc.Seed); err != nil {
			return nil, err
		}
	}
	m := x.rig.Manager
	if opt.SkipPI5 > 0 {
		m.Device().SetHandler(&pi5Filter{inner: m, skip: opt.SkipPI5})
	}
	m.OnDiscoveryComplete = func(r core.Result) {
		x.rep.Results = append(x.rep.Results, r)
		if opt.OnDiscovery != nil {
			opt.OnDiscovery(m.DB(), r)
		}
	}
	return x, nil
}

// drain runs the simulation for one horizon; a queue still holding
// events then is the oracle's "engine hung" signal, recorded under the
// phase's name.
func (x *execution) drain(phase string) bool {
	if x.rig.RunFor(x.horizon) {
		return true
	}
	x.rep.Hung = phase
	return false
}

// pi5Delivered reads the PI-5 reports the fabric has delivered so far.
func (x *execution) pi5Delivered() uint64 {
	return x.rig.Fabric.Counters().Delivered[asi.PI5EventReporting]
}

// transient is the transient period: initial discovery, then event-route
// distribution. It ends at T0, where the event script's clock starts.
func (x *execution) transient() bool {
	rep, m := x.rep, x.rig.Manager
	m.StartDiscovery()
	if !x.drain("initial discovery") {
		return false
	}
	if len(rep.Results) >= 1 {
		rep.InitialOK = true
		if rep.Trustworthy(rep.Results[0]) {
			rep.InitialErr = CheckConverged(x.rig.Fabric, m, rep.Results[0])
		}
	}
	var drained bool
	if rep.DistFailures, drained = x.rig.DistributeEventRoutes(x.horizon); !drained {
		rep.Hung = "event-route distribution"
		return false
	}
	rep.T0 = x.rig.Engine.Now()
	return true
}

// script schedules every scripted perturbation relative to T0, notes
// when the last one is fully applied, runs them out, and records what
// the fabric and the database look like once they settled.
func (x *execution) script() bool {
	rep, f, m := x.rep, x.rig.Fabric, x.rig.Manager
	rep.LastChange = rep.T0
	for i, ev := range rep.Scenario.Events {
		at := rep.T0.Add(sim.Micros(ev.AtUS))
		switch ev.Op {
		case OpDown, OpUp:
			if at > rep.LastChange {
				rep.LastChange = at
			}
			ev.Hotplug(x.rig, rep.T0, func(err error) {
				rep.EventErrs = append(rep.EventErrs,
					fmt.Sprintf("event %d (%s node %d at %v): %v", i, ev.Op, ev.Node, at, err))
			})
		case OpFlap:
			up := at.Add(sim.Micros(ev.DurUS))
			if up > rep.LastChange {
				rep.LastChange = up
			}
			if err := f.FlapLink(ev.Link, at, sim.Micros(ev.DurUS)); err != nil {
				rep.EventErrs = append(rep.EventErrs,
					fmt.Sprintf("event %d (flap link %d at %v): %v", i, ev.Link, at, err))
			}
		}
	}
	var pi5Before uint64
	if rep.LastChange == rep.T0 {
		pi5Before = x.pi5Delivered()
	} else {
		// PI-5 emission trails any change by the detect delay, so a
		// snapshot at LastChange itself cleanly splits before/after.
		x.rig.Engine.At(rep.LastChange, func(*sim.Engine) { pi5Before = x.pi5Delivered() })
	}
	if !x.drain("event script") {
		return false
	}
	rep.PI5AfterLast = x.pi5Delivered() - pi5Before
	rep.StillDiscovering = m.Discovering()
	for i, r := range rep.Results {
		// A run started after the last change covers it; so does a
		// partial-assimilation run already open at the change, since the
		// partial path folds mid-flight reports straight into the run
		// instead of starting a new one.
		if r.Start >= rep.LastChange ||
			(r.Algorithm == core.Partial && r.Start.Add(r.Duration) >= rep.LastChange) {
			rep.ChurnRun = i
		}
	}
	rep.WantDevices, rep.WantLinks = f.AliveReachable(m.Device().ID)
	rep.PostChurnDevices, rep.PostChurnLinks = m.DB().NumNodes(), m.DB().NumLinks()
	rep.PostChurnFP = m.DB().Fingerprint()
	return true
}

// continuous is the steady-state churn phase (Options.Continuous):
// Churner rounds against the settled fabric, each run to quiescence and
// checked there — the referee for the coalescing front-end under
// sustained PI-5 load.
func (x *execution) continuous() bool {
	if x.churner == nil || x.rep.StillDiscovering {
		return true
	}
	sc := x.rep.Scenario
	lossFree := sc.Loss == 0 && sc.DropFirst == 0 && sc.FaultPlan().Empty()
	for round := 0; round < x.opt.Continuous; round++ {
		if !x.continuousRound(round, lossFree) {
			return false
		}
	}
	x.rep.StillDiscovering = x.rig.Manager.Discovering()
	return true
}

// contErr records one invariant violated at a quiescent point.
func (x *execution) contErr(round int, format string, args ...any) {
	x.rep.ContinuousErrs = append(x.rep.ContinuousErrs,
		fmt.Sprintf("round %d: %s", round, fmt.Sprintf(format, args...)))
}

// churn applies one batch of toggles, offset from now, and drains.
func (x *execution) churn(round int, evs []Event) bool {
	base := x.rig.Engine.Now()
	for _, ev := range evs {
		ev.Hotplug(x.rig, base, func(err error) { x.contErr(round, "%s node %d: %v", ev.Op, ev.Node, err) })
	}
	return x.drain(fmt.Sprintf("continuous round %d", round))
}

// continuousRound is one round: a churn storm drained to quiescence,
// then full restoration drained again, so the quiescent ground truth is
// the whole fabric — and the checks that hold there.
//
// Convergence at a quiescent point is only guaranteed on a loss-free
// fabric, and only when the restoration segment itself dropped nothing: a
// restoration PI-5 whose event route crossed a still-down switch is
// silently lost, and partial assimilation stops exploring at known
// devices — the resulting hole is legitimate staleness the next audit
// repairs. Storm-segment drops are unavoidable (a downed switch's own
// endpoint can never report its death), so drops are accounted per
// segment.
func (x *execution) continuousRound(round int, lossFree bool) bool {
	rep, f, m := x.rep, x.rig.Fabric, x.rig.Manager
	totalDrops := func() (sum uint64) {
		for _, d := range f.Counters().Drops {
			sum += d
		}
		return sum
	}
	delivered := x.pi5Delivered()
	nres := len(rep.Results)
	if !x.churn(round, x.churner.Round(continuousOps)) {
		return false
	}
	dropsBefore := totalDrops()
	if !x.churn(round, x.churner.Quiesce()) {
		return false
	}
	cleanRestore := totalDrops() == dropsBefore
	rep.ContinuousRounds++
	// Liveness invariants hold unconditionally: the drained queue must
	// leave the manager idle with nothing held back in the debounce
	// window.
	if m.Discovering() {
		x.contErr(round, "manager still discovering at quiescence")
		return true
	}
	if n := m.AssimPending(); n > 0 {
		x.contErr(round, "%d reports left pending in the debounce window", n)
	}
	if !lossFree {
		return true
	}
	if x.pi5Delivered() > delivered && len(rep.Results) == nres {
		x.contErr(round, "PI-5 reports delivered but no discovery run completed")
		return true
	}
	// With everything restored the database may at worst lag behind the
	// fabric — it must never claim devices or links the fabric does not
	// have.
	wd, wl := f.AliveReachable(m.Device().ID)
	if m.DB().NumNodes() > wd || m.DB().NumLinks() > wl {
		x.contErr(round, "database has %d devices / %d links at quiescence, fabric only %d / %d",
			m.DB().NumNodes(), m.DB().NumLinks(), wd, wl)
	}
	if !cleanRestore {
		return true
	}
	rep.ContinuousChecked++
	if m.DB().NumNodes() != wd || m.DB().NumLinks() != wl {
		x.contErr(round, "database has %d devices / %d links at quiescence, ground truth %d / %d",
			m.DB().NumNodes(), m.DB().NumLinks(), wd, wl)
	}
	return true
}

// audit forces a full rediscovery of the settled fabric. Whatever the
// churn did to the database, a trustworthy audit must reconstruct the
// ground truth exactly.
func (x *execution) audit() bool {
	rep, m := x.rep, x.rig.Manager
	if rep.StillDiscovering {
		return true
	}
	before := len(rep.Results)
	m.StartDiscovery()
	if !x.drain("audit rediscovery") {
		return false
	}
	if len(rep.Results) > before {
		rep.AuditRan = true
		rep.Audit = rep.Results[len(rep.Results)-1]
		if rep.Trustworthy(rep.Audit) {
			rep.AuditErr = CheckConverged(x.rig.Fabric, m, rep.Audit)
		}
	}
	return true
}

// finish closes the report: totals, the observers' logs, fingerprints.
func (x *execution) finish() {
	rep := x.rep
	rep.Processed = x.rig.Engine.Processed
	rep.Counters = x.rig.Fabric.Counters()
	rep.DBFingerprint = x.rig.Manager.DB().Fingerprint()
	if x.rig.Spans != nil {
		l := x.rig.Spans.Log()
		rep.Spans = &l
	}
	if x.rig.Registry != nil {
		s := x.rig.Snapshot()
		rep.Telemetry = &s
	}
	rep.Fingerprint = rep.fingerprint()
}

// fingerprint folds every deterministic observable of the run into one
// FNV-1a value: the engine's event count, the fabric's accounting, each
// discovery result's measurements, and the final database fingerprint.
// Wall-clock-derived telemetry (events/sec) is deliberately excluded.
func (rep *Report) fingerprint() uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) { h = fnvFold(h, v) }
	mix(rep.Processed)
	mix(rep.Counters.TxPackets)
	mix(rep.Counters.TxBytes)
	for pi := asi.PI(0); pi < 16; pi++ {
		mix(rep.Counters.Delivered[pi])
	}
	for _, d := range rep.Counters.Drops {
		mix(d)
	}
	mix(rep.Counters.FaultDelays)
	mix(rep.Counters.LinkFlaps)
	mix(uint64(len(rep.Results)))
	for _, r := range rep.Results {
		mix(uint64(r.Start))
		mix(uint64(r.End))
		mix(uint64(r.PacketsSent))
		mix(uint64(r.BytesSent))
		mix(uint64(r.PacketsReceived))
		mix(uint64(r.BytesReceived))
		mix(uint64(r.TimedOut))
		mix(uint64(r.Retries))
		mix(uint64(r.GaveUp))
		mix(uint64(r.Stale))
		mix(uint64(r.Coalesced))
		mix(uint64(r.Devices))
		mix(uint64(r.Switches))
		mix(uint64(r.Links))
	}
	mix(uint64(rep.T0))
	mix(uint64(rep.LastChange))
	mix(rep.PI5AfterLast)
	mix(uint64(rep.WantDevices))
	mix(uint64(rep.WantLinks))
	mix(uint64(rep.PostChurnDevices))
	mix(uint64(rep.PostChurnLinks))
	mix(rep.PostChurnFP)
	mix(uint64(rep.ContinuousRounds))
	mix(uint64(rep.ContinuousChecked))
	mix(uint64(len(rep.ContinuousErrs)))
	mix(rep.DBFingerprint)
	return h
}

// FNV-1a's offset basis and prime, for the fingerprints folded here.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvFold folds v's eight bytes, low first, into the FNV-1a hash h.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// CrossCheck executes the scenario once per paper algorithm and verifies
// that every run passes the oracle and that all trustworthy audits agree
// on the final topology fingerprint — the serial and parallel algorithms
// must reconstruct the same fabric.
func CrossCheck(sc Scenario, opt Options) error {
	_, err := crossCheck(sc, opt)
	return err
}

// crossCheck is CrossCheck returning a deterministic observable too:
// every mode's full run fingerprint folded together (FNV-1a; PaperKinds
// order, then Partial again with the coalescing front-end) — two
// executions of the same scenario must return the same value, which is
// what the parallel sweep's determinism smoke compares across worker
// counts. Beyond the per-mode oracle, it checks that all trustworthy
// audits agree on the final topology, and that per-event and coalesced
// Partial — when neither was defeated by injected loss — reach
// byte-identical quiescent databases after the scripted churn.
func crossCheck(sc Scenario, opt Options) (fp uint64, err error) {
	type mode struct {
		kind     core.Kind
		coalesce bool
	}
	type agreed struct {
		mode mode
		fp   uint64
	}
	fp = fnvOffset
	modes := make([]mode, 0, len(core.PaperKinds())+1)
	for _, k := range core.PaperKinds() {
		modes = append(modes, mode{kind: k})
	}
	modes = append(modes, mode{kind: core.Partial, coalesce: true})
	name := func(md mode) string {
		if md.coalesce {
			return md.kind.Slug() + "+coalesce"
		}
		return md.kind.Slug()
	}
	var fps []agreed
	var perEvent, coalesced *Report
	for _, md := range modes {
		s := sc
		s.Algorithm = md.kind.Slug()
		o := opt
		o.Coalesce = md.coalesce
		rep, err := Execute(s, o)
		if err != nil {
			return 0, fmt.Errorf("chaos: %s: %w", name(md), err)
		}
		if err := (Oracle{}).Check(rep); err != nil {
			return 0, fmt.Errorf("chaos: %s: %w", name(md), err)
		}
		fp = fnvFold(fp, rep.Fingerprint)
		if rep.AuditRan && rep.Trustworthy(rep.Audit) {
			fps = append(fps, agreed{md, rep.DBFingerprint})
		}
		if md.kind == core.Partial {
			if md.coalesce {
				coalesced = rep
			} else {
				perEvent = rep
			}
		}
	}
	for i := 1; i < len(fps); i++ {
		if fps[i].fp != fps[0].fp {
			return 0, fmt.Errorf("chaos: algorithms disagree on final topology: %s=%#x, %s=%#x",
				name(fps[0].mode), fps[0].fp, name(fps[i].mode), fps[i].fp)
		}
	}
	// The equivalence property: batched-coalesced assimilation must land
	// on the same quiescent database as per-event assimilation, unless
	// injected loss defeated a run in either mode (a gave-up or timed-out
	// run may legitimately truncate a subtree).
	if perEvent != nil && coalesced != nil &&
		allTrustworthy(perEvent) && allTrustworthy(coalesced) &&
		perEvent.PostChurnFP != coalesced.PostChurnFP {
		return 0, fmt.Errorf("chaos: partial assimilation modes disagree post-churn: per-event=%#x, coalesced=%#x",
			perEvent.PostChurnFP, coalesced.PostChurnFP)
	}
	return fp, nil
}

// allTrustworthy reports whether every completed run in the report was
// undefeated by injected loss (see Report.Trustworthy).
func allTrustworthy(rep *Report) bool {
	for _, r := range rep.Results {
		if !rep.Trustworthy(r) {
			return false
		}
	}
	return true
}
