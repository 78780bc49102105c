package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/asi"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// setupFaulty builds a fabric with the given fault plan and seed, and
// attaches a manager with retry options to the first endpoint.
func setupFaulty(t *testing.T, tp *topo.Topology, kind Kind, seed uint64, plan fabric.FaultPlan, opt Options) (*sim.Engine, *fabric.Fabric, *Manager) {
	t.Helper()
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = kind
	m := NewManager(f, f.Device(tp.Endpoints()[0]), opt)
	return e, f, m
}

// epLink returns the topology link index cabling the n-th endpoint.
func epLink(t *testing.T, tp *topo.Topology, f *fabric.Fabric, n int) int {
	t.Helper()
	idx, ok := f.LinkAt(tp.Endpoints()[n], 0)
	if !ok {
		t.Fatal("endpoint uncabled")
	}
	return idx
}

func TestTimeoutRetrySucceedsAllAlgorithms(t *testing.T) {
	for _, kind := range PaperKinds() {
		tp := topo.Mesh(4, 4)
		// Losslessly discovered reference database.
		e0, _, m0 := setup(t, tp, kind)
		res0 := runDiscovery(t, e0, m0)

		// Drop the very first traversal of the FM's own host link: the
		// initial probe dies, times out, and must be retried.
		tp2 := topo.Mesh(4, 4)
		e := sim.NewEngine()
		f, err := fabric.New(e, tp2, fabric.Config{}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(f, f.Device(tp2.Endpoints()[0]), Options{Algorithm: kind, MaxRetries: 3})
		if err := f.SetFaultPlan(fabric.FaultPlan{
			PerLink: map[int]fabric.LinkFaults{epLink(t, tp2, f, 0): {DropFirst: 1}},
		}); err != nil {
			t.Fatal(err)
		}
		res := runDiscovery(t, e, m)

		if res.TimedOut < 1 || res.Retries < 1 {
			t.Errorf("%s: TimedOut=%d Retries=%d, want >= 1 each", kind, res.TimedOut, res.Retries)
		}
		if res.GaveUp != 0 {
			t.Errorf("%s: GaveUp=%d after a recoverable loss", kind, res.GaveUp)
		}
		if d := DiffDBs(m0.DB(), m.DB()); !d.Empty() {
			t.Errorf("%s: lossy database differs from lossless: %v", kind, d)
		}
		if res.Duration <= res0.Duration {
			t.Errorf("%s: retried run (%v) not slower than lossless (%v)",
				kind, res.Duration, res0.Duration)
		}
	}
}

func TestRetriesExhaustedGiveUpAllAlgorithms(t *testing.T) {
	for _, kind := range PaperKinds() {
		tp := topo.Mesh(4, 4)
		e := sim.NewEngine()
		f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: kind, MaxRetries: 2})
		// Black-hole the cable of a far endpoint: every probe toward it
		// dies, so the FM must exhaust its attempts and move on.
		if err := f.SetFaultPlan(fabric.FaultPlan{
			PerLink: map[int]fabric.LinkFaults{epLink(t, tp, f, 5): {DropFirst: 1 << 30}},
		}); err != nil {
			t.Fatal(err)
		}
		res := runDiscovery(t, e, m)

		if res.GaveUp != 1 {
			t.Errorf("%s: GaveUp=%d, want 1 (the black-holed probe)", kind, res.GaveUp)
		}
		if res.Retries != 2 {
			t.Errorf("%s: Retries=%d, want 2 (MaxRetries exhausted)", kind, res.Retries)
		}
		if res.TimedOut != 3 {
			t.Errorf("%s: TimedOut=%d, want 3 (original + 2 retries)", kind, res.TimedOut)
		}
		if res.Devices != 31 {
			t.Errorf("%s: discovered %d devices, want 31 (one endpoint unreachable)", kind, res.Devices)
		}
	}
}

// TestRetryBackoffStaysInSimulatedTime: a request re-issued as often as
// the FM allows, or with the longest backoff it accepts or past it, never
// schedules a retry before now (a wrapped backoff) or past the end of
// simulated time; it gives up once no further attempt could time out.
func TestRetryBackoffStaysInSimulatedTime(t *testing.T) {
	for _, opt := range []Options{
		{MaxRetries: 255},
		{MaxRetries: 255, RetryBackoff: MaxRetryBackoff},
		{MaxRetries: 255, RetryBackoff: math.MaxInt64},
	} {
		tp := topo.Mesh(4, 4)
		e := sim.NewEngine()
		f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		opt.Algorithm = Parallel
		m := NewManager(f, f.Device(tp.Endpoints()[0]), opt)
		if err := f.SetFaultPlan(fabric.FaultPlan{
			PerLink: map[int]fabric.LinkFaults{epLink(t, tp, f, 5): {DropFirst: 1 << 30}},
		}); err != nil {
			t.Fatal(err)
		}
		res := runDiscovery(t, e, m)
		if res.GaveUp != 1 || res.Devices != 31 {
			t.Errorf("backoff %v: GaveUp=%d Devices=%d, want the black-holed probe given up and 31 devices",
				opt.RetryBackoff, res.GaveUp, res.Devices)
		}
		if opt.RetryBackoff == 0 && res.Retries != 255 {
			t.Errorf("default backoff: Retries=%d, want all 255", res.Retries)
		}
	}
}

// TestLossConvergence is the headline robustness property: with per-link
// loss up to 1e-3 and MaxRetries=3, every paper algorithm converges to the
// same database a lossless run produces on mesh, torus and fat-tree, with
// retries observed and nothing given up.
func TestLossConvergence(t *testing.T) {
	topos := []string{"4x4 mesh", "4x4 torus", "4-port 2-tree"}
	totalRetries := 0
	for _, tn := range topos {
		for _, kind := range PaperKinds() {
			for seed := uint64(1); seed <= 3; seed++ {
				tp, err := topo.ByName(tn)
				if err != nil {
					t.Fatal(err)
				}
				e0, _, m0 := setup(t, tp, kind)
				runDiscovery(t, e0, m0)

				tp2, _ := topo.ByName(tn)
				e, _, m := setupFaulty(t, tp2, kind, seed, fabric.Uniform(1e-3),
					Options{MaxRetries: 3})
				res := runDiscovery(t, e, m)

				if res.GaveUp != 0 {
					t.Errorf("%s/%s seed %d: GaveUp=%d under 1e-3 loss", tn, kind, seed, res.GaveUp)
				}
				if d := DiffDBs(m0.DB(), m.DB()); !d.Empty() {
					t.Errorf("%s/%s seed %d: lossy database differs: %v", tn, kind, seed, d)
				}
				totalRetries += res.Retries
			}
		}
	}
	if totalRetries == 0 {
		t.Error("no retries observed across the whole sweep; loss injection ineffective")
	}
}

func TestRetryRunsAreDeterministic(t *testing.T) {
	for _, kind := range PaperKinds() {
		var prev Result
		for trial := 0; trial < 2; trial++ {
			tp := topo.Mesh(4, 4)
			e, _, m := setupFaulty(t, tp, kind, 99, fabric.Uniform(5e-3),
				Options{MaxRetries: 3})
			res := runDiscovery(t, e, m)
			if trial == 1 && !reflect.DeepEqual(res, prev) {
				t.Errorf("%s: identical seeds diverged:\n%+v\nvs\n%+v", kind, res, prev)
			}
			prev = res
		}
	}
}

func TestStaleCompletionCounted(t *testing.T) {
	// Delay one endpoint's link so its completions regularly lose the
	// race against the 5 ms request timeout and arrive while the FM is
	// still retrying: each such arrival is a stale completion the run
	// must count without folding into the database twice.
	tp := topo.Mesh(4, 4)
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, f.Device(tp.Endpoints()[0]),
		Options{Algorithm: Parallel, MaxRetries: 10})
	if err := f.SetFaultPlan(fabric.FaultPlan{
		PerLink: map[int]fabric.LinkFaults{
			epLink(t, tp, f, 5): {DelayProb: 1, Delay: 10 * sim.Millisecond},
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := runDiscovery(t, e, m)
	if res.TimedOut == 0 {
		t.Error("delayed link produced no timeouts")
	}
	if res.Stale == 0 {
		t.Error("delayed completions produced no stale count")
	}
}

// recordingDriver is a stub driver capturing onPort notifications.
type recordingDriver struct {
	onPortCalls int
	lastNil     bool
	lastOK      bool
}

func (r *recordingDriver) start()                                {}
func (r *recordingDriver) onGeneral(*request, *Node, bool, bool) {}
func (r *recordingDriver) onPort(req *request, n *Node, ok bool) {
	r.onPortCalls++
	r.lastNil = n == nil
	r.lastOK = ok
}
func (r *recordingDriver) finished() bool { return true }

// Regression: a port-read completion (or failure) for a device no longer
// in the database must still notify the driver, or the serial drivers
// wait on it forever.
func TestReadPortForUnknownNodeNotifiesDriver(t *testing.T) {
	e, _, m := setup(t, topo.Mesh(3, 3), SerialDevice)
	_ = e
	rec := &recordingDriver{}
	m.drv = rec
	req := &request{kind: reqReadPort, dsn: asi.DSN(0xDEAD), port: 0}

	m.applyCompletion(req, &asi.PI4{Op: asi.PI4ReadCompletionData})
	if rec.onPortCalls != 1 || !rec.lastNil || rec.lastOK {
		t.Errorf("completion: onPort calls=%d nil=%v ok=%v, want 1/true/false",
			rec.onPortCalls, rec.lastNil, rec.lastOK)
	}
	m.applyFailure(req)
	if rec.onPortCalls != 2 || !rec.lastNil || rec.lastOK {
		t.Errorf("failure: onPort calls=%d nil=%v ok=%v, want 2/true/false",
			rec.onPortCalls, rec.lastNil, rec.lastOK)
	}
}

// Regression: Serial Packet mode never accounts reads in portsLeft, so the
// counter must stay at zero (it used to go negative on every port read).
func TestSerialPortsLeftNeverNegative(t *testing.T) {
	for _, kind := range []Kind{SerialPacket, SerialDevice} {
		e, _, m := setup(t, topo.Mesh(4, 4), kind)
		m.StartDiscovery()
		for e.Step() {
			if pl := m.drv.(*serialDriver).portsLeft; pl < 0 {
				t.Fatalf("%s: portsLeft went negative (%d)", kind, pl)
			}
		}
	}
}
