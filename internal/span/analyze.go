package span

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Timeline analysis: reconstructing the paper's FM view from a span log.
// A run groups its request spans into Gantt rows; the critical path is
// recovered from causal containment — the FM is a serial processor, so
// FM-service intervals are disjoint, and a request issued at time t was
// necessarily issued by whichever work item the FM was servicing at t.
// That service span's parent names the enabling request (or the run
// itself for the initial kick-off), giving the dependency chain that
// determines total discovery time without any extra instrumentation.

// Analysis is the structured form of a span log, one entry per run band.
type Analysis struct {
	Runs []RunAnalysis
}

// RunAnalysis is one phase band: a discovery run or distribution round.
type RunAnalysis struct {
	Run Span
	// Requests are the run's request views sorted by start time.
	Requests []RequestView
	// Critical is the dependency chain of request spans, in issue
	// order, ending at the request that finished last in the run.
	Critical []Span
	// ByKind sums span durations and counts per kind over the run.
	ByKind [numKinds]KindTotal
}

// KindTotal aggregates one span kind within a run.
type KindTotal struct {
	Count int
	Total sim.Duration
}

// RequestView is one request span plus all spans it causally owns
// (attempts, backoffs, per-hop and FM spans), sorted by start time.
type RequestView struct {
	Span     Span
	Children []Span
}

// Analyze reconstructs the timeline from a log. The log must be valid
// (see Validate); spans from an unfinished run yield an error.
func Analyze(l Log) (*Analysis, error) {
	if err := Validate(l); err != nil {
		return nil, err
	}
	byID := make(map[ID]*Span, len(l.Spans))
	for i := range l.Spans {
		byID[l.Spans[i].ID] = &l.Spans[i]
	}

	// runOf and reqOf resolve each span's enclosing run and request
	// bands by walking the parent chain once per span (IDs ascend from
	// parent to child, so earlier answers are already memoized).
	runOf := make(map[ID]ID, len(l.Spans))
	reqOf := make(map[ID]ID, len(l.Spans))
	for i := range l.Spans {
		s := &l.Spans[i]
		switch {
		case s.Kind == KindRun:
			runOf[s.ID] = s.ID
		case s.Parent != 0:
			runOf[s.ID] = runOf[s.Parent]
		}
		switch {
		case s.Kind == KindRequest:
			reqOf[s.ID] = s.ID
		case s.Parent != 0:
			reqOf[s.ID] = reqOf[s.Parent]
		}
	}

	a := &Analysis{}
	runIdx := make(map[ID]int)
	for i := range l.Spans {
		s := l.Spans[i]
		if s.Kind != KindRun {
			continue
		}
		runIdx[s.ID] = len(a.Runs)
		a.Runs = append(a.Runs, RunAnalysis{Run: s})
	}

	reqIdx := make(map[ID]int) // request span ID -> index in its run's Requests
	for i := range l.Spans {
		s := l.Spans[i]
		run, ok := runOf[s.ID]
		if !ok {
			continue
		}
		ra := &a.Runs[runIdx[run]]
		if s.Kind != KindRun {
			ra.ByKind[s.Kind].Count++
			ra.ByKind[s.Kind].Total += s.Duration()
		}
		switch s.Kind {
		case KindRequest:
			reqIdx[s.ID] = len(ra.Requests)
			ra.Requests = append(ra.Requests, RequestView{Span: s})
		default:
			if req, ok := reqOf[s.ID]; ok && req != s.ID {
				if j, ok := reqIdx[req]; ok {
					ra.Requests[j].Children = append(ra.Requests[j].Children, s)
				}
			}
		}
	}

	// FM service intervals per run, for containment lookups. They are
	// disjoint (serial FM), so sorting by start allows binary search.
	services := make(map[ID][]Span)
	for i := range l.Spans {
		s := l.Spans[i]
		if s.Kind != KindFMService {
			continue
		}
		if run, ok := runOf[s.ID]; ok {
			services[run] = append(services[run], s)
		}
	}

	for ri := range a.Runs {
		ra := &a.Runs[ri]
		sort.SliceStable(ra.Requests, func(i, j int) bool {
			return ra.Requests[i].Span.Start < ra.Requests[j].Span.Start ||
				(ra.Requests[i].Span.Start == ra.Requests[j].Span.Start &&
					ra.Requests[i].Span.ID < ra.Requests[j].Span.ID)
		})
		svc := services[ra.Run.ID]
		sort.Slice(svc, func(i, j int) bool { return svc[i].Start < svc[j].Start })
		ra.Critical = criticalPath(byID, reqOf, ra.Requests, svc)
	}
	return a, nil
}

// Timelines reads the FM's per-packet processing instants, the paper's
// Fig. 7(a), from a log: for each run band not named skip, in order, the
// End of every FM-service span under it. A log that dropped spans may
// have lost some of them, so it is refused, as is one Validate refuses.
func Timelines(l Log, skip string) ([][]sim.Time, error) {
	if l.Dropped > 0 {
		return nil, fmt.Errorf("span: log dropped %d spans, so it holds no whole FM timeline", l.Dropped)
	}
	if err := Validate(l); err != nil {
		return nil, err
	}
	var runs [][]sim.Time
	band := make([]int, len(l.Spans)) // span i+1's index in runs, or -1
	for i, s := range l.Spans {
		band[i] = -1
		switch {
		case s.Kind == KindRun && s.Name != skip:
			band[i] = len(runs)
			runs = append(runs, nil)
		case s.Kind != KindRun && s.Parent != 0:
			band[i] = band[s.Parent-1] // Validate: parents come first
		}
		if b := band[i]; s.Kind == KindFMService && b >= 0 {
			runs[b] = append(runs[b], s.End)
		}
	}
	return runs, nil
}

// enabler finds the request whose FM processing issued the request
// starting at t: the FM-service span containing t belongs to the work
// item being processed, and its parent names that request. Returns 0
// when the issue was the run's own kick-off (or predates any service).
func enabler(byID map[ID]*Span, reqOf map[ID]ID, svc []Span, t sim.Time) ID {
	i := sort.Search(len(svc), func(i int) bool { return svc[i].End >= t })
	if i == len(svc) || svc[i].Start > t {
		return 0
	}
	if req, ok := reqOf[svc[i].Parent]; ok {
		return req
	}
	return 0
}

// criticalPath walks enablers backward from the request that ended
// last, yielding the chain in issue order.
func criticalPath(byID map[ID]*Span, reqOf map[ID]ID, reqs []RequestView, svc []Span) []Span {
	var last *Span
	for i := range reqs {
		if last == nil || reqs[i].Span.End > last.End {
			last = &reqs[i].Span
		}
	}
	if last == nil {
		return nil
	}
	var chain []Span
	seen := make(map[ID]bool)
	for cur := last; cur != nil && !seen[cur.ID]; {
		seen[cur.ID] = true
		chain = append(chain, *cur)
		cur = byID[enabler(byID, reqOf, svc, cur.Start)]
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Summary renders a one-paragraph accounting of a run: request count,
// retries, drops, span-kind totals. It heads each run's Gantt chart.
func (ra *RunAnalysis) Summary() string {
	retries, drops := 0, 0
	for _, rv := range ra.Requests {
		for _, c := range rv.Children {
			if c.Kind == KindAttempt && c.Attempt > 0 {
				retries++
			}
			if c.Kind == KindDrop {
				drops++
			}
		}
	}
	return fmt.Sprintf("run %q: %v..%v (%v), %d requests, %d retries, %d drops, critical path %d deep",
		ra.Run.Name, ra.Run.Start, ra.Run.End, ra.Run.Duration(),
		len(ra.Requests), retries, drops, len(ra.Critical))
}
