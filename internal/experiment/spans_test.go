package experiment

import (
	"fmt"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/span"
)

// TestSpanLifecycleInvariants runs every paper algorithm over a clean and
// a lossy fabric and checks the causal span log's structural guarantees:
// every begun span ended exactly once with a terminal status, parents
// always reference earlier spans, attempts and tagged packets' per-hop
// spans hang off request spans, retries nest under the original request (not under the
// prior attempt), and failed requests end in an error status.
func TestSpanLifecycleInvariants(t *testing.T) {
	for _, k := range core.PaperKinds() {
		for _, lossy := range []bool{false, true} {
			name := fmt.Sprintf("%v/lossy=%v", k, lossy)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Topology: "4x4 mesh", Algorithm: k, Seed: 1, Spans: true}
				if lossy {
					cfg.Faults, cfg.MaxRetries = fabric.Uniform(0.05), 3
				}
				out := RunConfig(cfg)
				if out.Err != nil {
					// A lossy run may legitimately give up on some writes;
					// the span log must still close cleanly around that.
					if !lossy {
						t.Fatalf("run failed: %v", out.Err)
					}
					t.Logf("lossy run failed as permitted: %v", out.Err)
				}
				if out.Spans == nil {
					t.Fatal("traced run carries no span log")
				}
				l := *out.Spans
				if err := span.Validate(l); err != nil {
					t.Fatalf("span log invalid: %v", err)
				}
				if l.Dropped != 0 {
					t.Errorf("span log dropped %d spans", l.Dropped)
				}
				checkSpanStructure(t, l, out)
				if _, err := span.Analyze(l); err != nil {
					t.Errorf("Analyze rejected a valid log: %v", err)
				}
			})
		}
	}
}

// TestSpanLogOfHotRemoval checks the same structure across a switch
// removal, whose PI-5 events are untagged packets: their hops must be
// recorded, and without a parent.
func TestSpanLogOfHotRemoval(t *testing.T) {
	for _, k := range core.PaperKinds() {
		out := RunConfig(Config{Topology: "4x4 mesh", Algorithm: k, Seed: 1, Change: RemoveSwitch, Spans: true})
		if out.Err != nil {
			t.Fatalf("%v: %v", k, out.Err)
		}
		checkSpanStructure(t, *out.Spans, out)
		untagged := 0
		for _, s := range out.Spans.Spans {
			if s.Kind == span.KindDeliver && s.Parent == 0 && s.PI == uint8(asi.PI5EventReporting) {
				untagged++
			}
		}
		if untagged == 0 {
			t.Errorf("%v: no parentless delivery of a PI-5 event in the span log", k)
		}
	}
}

// checkSpanStructure verifies the parent-kind topology and terminal
// statuses of one run's span log.
func checkSpanStructure(t *testing.T, l span.Log, out Outcome) {
	t.Helper()
	byID := make(map[span.ID]span.Span, len(l.Spans))
	for _, s := range l.Spans {
		byID[s.ID] = s
	}
	attemptsOf := make(map[span.ID][]span.Span)
	for _, s := range l.Spans {
		parent, hasParent := byID[s.Parent]
		switch s.Kind {
		case span.KindRun:
			if s.Parent != 0 {
				t.Errorf("span #%d: run span has parent #%d", s.ID, s.Parent)
			}
		case span.KindRequest:
			if !hasParent || parent.Kind != span.KindRun {
				t.Errorf("span #%d: request parent #%d is not a run span", s.ID, s.Parent)
			}
			switch s.Status {
			case span.StatusOK, span.StatusTimeout, span.StatusGaveUp,
				span.StatusError, span.StatusCanceled:
			default:
				t.Errorf("span #%d: request ended with non-terminal status %v", s.ID, s.Status)
			}
		case span.KindAttempt:
			if !hasParent || parent.Kind != span.KindRequest {
				t.Errorf("span #%d: attempt parent #%d is not a request span (retries must nest under the original request)",
					s.ID, s.Parent)
			}
			attemptsOf[s.Parent] = append(attemptsOf[s.Parent], s)
		case span.KindBackoff, span.KindFMQueue, span.KindFMService:
			// FM-work spans parent to the enabling request when one exists,
			// else to the run, and a PI-5 event handled between runs to
			// nothing; backoffs always to their request.
			ok := hasParent && parent.Kind == span.KindRequest
			if s.Kind != span.KindBackoff {
				ok = ok || hasParent && parent.Kind == span.KindRun || s.Parent == 0
			}
			if !ok {
				t.Errorf("span #%d (%v): parent #%d has wrong kind", s.ID, s.Kind, s.Parent)
			}
		case span.KindInject, span.KindLinkQueue, span.KindWire, span.KindDevQueue,
			span.KindDevService, span.KindStall, span.KindFaultDelay,
			span.KindDrop, span.KindDeliver:
			// A packet's hops parent to the request its tag names. Only an
			// untagged packet (PI-5 events, heartbeats) records parentless
			// hops; every PI-4 packet the FM sends carries a tag.
			switch {
			case s.Parent == 0 && s.PI == uint8(asi.PI4DeviceManagement):
				t.Errorf("span #%d (%v): hop of a PI-4 packet has no request parent", s.ID, s.Kind)
			case s.Parent != 0 && (!hasParent || parent.Kind != span.KindRequest):
				t.Errorf("span #%d (%v): parent #%d is not a request span", s.ID, s.Kind, s.Parent)
			}
		case span.KindFlap:
			if s.Parent != 0 {
				t.Errorf("span #%d: flap has parent #%d", s.ID, s.Parent)
			}
		default:
			t.Errorf("span #%d: unexpected kind %v", s.ID, s.Kind)
		}
		if hasParent && s.Start < parent.Start {
			t.Errorf("span #%d starts at %v before its parent #%d (%v)", s.ID, s.Start, parent.ID, parent.Start)
		}
	}

	// Attempt numbering: each request's attempts count 0, 1, 2, ... in
	// span-ID (issue) order, so a retry's span always follows the original
	// attempt under the same request parent.
	retried := 0
	for req, atts := range attemptsOf {
		for i, a := range atts {
			if a.Attempt != i {
				t.Errorf("request #%d attempt %d numbered %d", req, i, a.Attempt)
			}
			if i > 0 {
				retried++
				if prev := atts[i-1]; prev.Status == span.StatusOpen {
					t.Errorf("request #%d: attempt %d issued while attempt %d still open", req, i, i-1)
				}
			}
		}
	}
	totalRetries := out.Initial.Retries + out.Result.Retries
	if totalRetries > 0 && retried == 0 {
		t.Errorf("run counted %d retries but the log has no attempt > 0", totalRetries)
	}
	totalGaveUp := out.Initial.GaveUp + out.Result.GaveUp
	if totalGaveUp > 0 {
		gaveUp := 0
		for _, s := range l.Spans {
			if s.Kind == span.KindRequest && s.Status == span.StatusGaveUp {
				gaveUp++
			}
		}
		if gaveUp == 0 {
			t.Errorf("run counted %d give-ups but no request span ended gave-up", totalGaveUp)
		}
	}
}
