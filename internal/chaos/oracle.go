package chaos

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// CheckConverged verifies that one completed discovery result matches the
// fabric's current alive-reachable ground truth (Fabric.AliveReachable)
// and that the manager's database is internally consistent: node and link counts agree with the
// result, and every stored node is reachable over the database's own
// links from the host endpoint. Property tests and the executor's audit
// phase share this check.
func CheckConverged(f *fabric.Fabric, m *core.Manager, res core.Result) error {
	wantDev, wantLinks := f.AliveReachable(m.Device().ID)
	if res.Devices != wantDev || res.Links != wantLinks {
		return fmt.Errorf("chaos: result has %d devices / %d links, ground truth %d / %d",
			res.Devices, res.Links, wantDev, wantLinks)
	}
	db := m.DB()
	if db.NumNodes() != wantDev || db.NumLinks() != wantLinks {
		return fmt.Errorf("chaos: database has %d devices / %d links, ground truth %d / %d",
			db.NumNodes(), db.NumLinks(), wantDev, wantLinks)
	}
	// One BFS covers every node: db.PathTo(n) is non-nil exactly when n
	// is in the host's reachable set (endpoints hold a single cable, so
	// switch-only forwarding and plain reachability agree). Over the
	// database's adjacency index that search is O(V + L).
	reach := db.ReachableFromHost()
	for _, n := range db.Nodes() {
		if !reach[n.DSN] {
			return fmt.Errorf("chaos: node %v unreachable in the FM's own database", n.DSN)
		}
	}
	return nil
}

// Oracle checks a chaos run report against the harness invariants. The
// zero value checks everything the report carries.
type Oracle struct{}

// Check returns nil when every invariant holds, or an error joining
// every violated one:
//
//  1. Termination: no phase exhausted its horizon with events still
//     pending, and the manager is idle once the script quiesces.
//  2. Setup: the initial discovery completed, trustworthily, matching
//     ground truth, and every scripted event applied cleanly.
//  3. Convergence: if any PI-5 reached the FM at or after the last
//     scripted change, a discovery run must have started after that
//     change, and — when that run was not defeated by injected loss —
//     the post-churn database must equal the alive-fabric ground truth.
//     Steady-state continuous rounds (Options.Continuous) must record
//     no quiescent-point violations.
//  4. Audit: the executor's forced post-quiescence rediscovery (when
//     enabled and not defeated by loss) must equal ground truth, with a
//     path-consistent database.
//  5. Generations: superseded discovery generations never corrupt the
//     database — enforced via the audit/post-churn equality plus the
//     stale-completion counter being consistent with telemetry.
//  6. Conservation: lifetime telemetry counters obey the manager's
//     retry-state machine (timeouts = retries + giveups when retrying;
//     no retries or giveups otherwise) and fabric fault accounting
//     (per-link fault-drop vector sums to the drop counter; flap
//     counter matches).
//  7. Spans: when span tracing was on, the causal span log validates.
func (o Oracle) Check(rep *Report) error {
	var errs []error
	fail := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }

	// 1. Termination.
	if rep.Hung != "" {
		fail("chaos: %s phase did not terminate within the horizon", rep.Hung)
	}
	if rep.StillDiscovering {
		fail("chaos: manager still mid-discovery after the event script quiesced")
	}

	// 2. Setup.
	if !rep.InitialOK {
		fail("chaos: initial discovery did not complete")
	} else if err := rep.InitialErr; err != nil {
		fail("chaos: initial discovery diverged: %w", err)
	}
	// Distribution writes may legitimately fail when the fault model can
	// exhaust the retry budget; on a loss-free fabric they may not.
	if rep.DistFailures > 0 && rep.Scenario.Loss == 0 && rep.Scenario.DropFirst == 0 {
		fail("chaos: %d event-route distribution failures on a loss-free fabric", rep.DistFailures)
	}
	for _, ev := range rep.EventErrs {
		fail("chaos: %s", ev)
	}

	// 3. Post-churn convergence, gated on observable PI-5 delivery.
	if rep.PI5AfterLast > 0 {
		if rep.ChurnRun < 0 {
			fail("chaos: %d PI-5 reports reached the FM after the last change but no discovery started after it",
				rep.PI5AfterLast)
		} else if r := rep.Results[rep.ChurnRun]; rep.Trustworthy(r) {
			if rep.PostChurnDevices != rep.WantDevices || rep.PostChurnLinks != rep.WantLinks {
				fail("chaos: post-churn database has %d devices / %d links, ground truth %d / %d",
					rep.PostChurnDevices, rep.PostChurnLinks, rep.WantDevices, rep.WantLinks)
			}
		}
	}

	// 3b. Steady-state churn: every quiescent point between continuous
	// rounds already judged itself; any recorded violation fails the run.
	for _, e := range rep.ContinuousErrs {
		fail("chaos: continuous churn: %s", e)
	}

	// 4 + 5. Audit rediscovery.
	if rep.AuditRan && rep.Trustworthy(rep.Audit) {
		if err := rep.AuditErr; err != nil {
			fail("chaos: audit rediscovery diverged: %w", err)
		}
	}

	// 6. Conservation.
	if rep.Telemetry != nil {
		errs = append(errs, o.checkConservation(rep)...)
	}

	// 7. Spans.
	if rep.Spans != nil {
		if err := span.Validate(*rep.Spans); err != nil {
			fail("chaos: span log invalid: %w", err)
		}
	}
	return errors.Join(errs...)
}

// checkConservation verifies the telemetry counter invariants.
func (o Oracle) checkConservation(rep *Report) []error {
	var errs []error
	fail := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	s := rep.Telemetry
	timeouts, _ := s.Counter(core.MetricFMTimeouts)
	retries, _ := s.Counter(core.MetricFMRetries)
	giveups, _ := s.Counter(core.MetricFMGiveups)
	if rep.Scenario.MaxRetries > 0 {
		if timeouts != retries+giveups {
			fail("chaos: timeout conservation violated: %d timeouts != %d retries + %d giveups",
				timeouts, retries, giveups)
		}
	} else if retries != 0 || giveups != 0 {
		fail("chaos: retries disabled but telemetry has %d retries / %d giveups", retries, giveups)
	}
	// Results already includes the audit run (it completes last), so a
	// plain sum is the per-run total.
	var perRun uint64
	for _, r := range rep.Results {
		perRun += uint64(r.TimedOut)
	}
	if perRun > timeouts {
		fail("chaos: per-run results report %d timeouts, lifetime telemetry only %d", perRun, timeouts)
	}
	faultDrops := vecSum(s, fabric.MetricLinkFault)
	if got := rep.Counters.Drops[fabric.DropFaultInjected]; faultDrops != got {
		fail("chaos: per-link fault drops sum to %d, fabric counter says %d", faultDrops, got)
	}
	if flaps, _ := s.Counter(fabric.MetricLinkFlaps); flaps != rep.Counters.LinkFlaps {
		fail("chaos: telemetry counted %d link flaps, fabric %d", flaps, rep.Counters.LinkFlaps)
	}
	return errs
}

// Trustworthy reports whether a completed run's convergence claim is
// meaningful under the scenario's fault model: with retries enabled a
// run that never gave a request up must have self-healed every loss,
// while without retries any timeout may legitimately truncate the view.
func (rep *Report) Trustworthy(r core.Result) bool {
	if rep.Scenario.MaxRetries > 0 {
		return r.GaveUp == 0
	}
	return r.TimedOut == 0
}

// Vacuous reports whether the run exercised no meaningful convergence
// comparison at all — no trustworthy post-churn run and no trustworthy
// audit. Vacuous runs still check termination and conservation, but a
// fuzzing campaign should know how often the strong oracle actually ran.
func (rep *Report) Vacuous() bool {
	if rep.AuditRan && rep.Trustworthy(rep.Audit) {
		return false
	}
	if rep.PI5AfterLast > 0 && rep.ChurnRun >= 0 && rep.Trustworthy(rep.Results[rep.ChurnRun]) {
		return false
	}
	return true
}

// vecSum adds every slot of a counter-vector family.
func vecSum(s *telemetry.Snapshot, name string) uint64 {
	var sum uint64
	for _, v := range s.Vectors {
		if v.Name == name {
			sum += v.Value
		}
	}
	return sum
}
