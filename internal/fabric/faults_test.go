package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topo"
)

// hostLink returns the topology link index of ep's port-0 cable.
func hostLink(t *testing.T, f *Fabric, ep *Device) int {
	t.Helper()
	idx, ok := f.LinkAt(ep.ID, 0)
	if !ok {
		t.Fatal("endpoint port 0 uncabled")
	}
	return idx
}

// injectReads sends n PI-4 reads from ep to its adjacent switch, spaced
// apart so each round trip finishes before the next starts.
func injectReads(e *sim.Engine, ep *Device, n int) {
	for i := 0; i < n; i++ {
		tag := uint32(i)
		e.After(sim.Duration(i)*10*sim.Microsecond, func(*sim.Engine) {
			hdr, err := route.Header(nil, asi.PI4DeviceManagement)
			if err != nil {
				panic(err)
			}
			ep.Inject(&asi.Packet{Header: hdr, Payload: &asi.PI4{
				Op: asi.PI4ReadRequest, Tag: tag,
				Offset: asi.GeneralInfoOffset, Count: asi.GeneralInfoBlocks,
			}})
		})
	}
}

func TestFaultDropFirstIsExact(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	if err := f.SetFaultPlan(FaultPlan{
		PerLink: map[int]LinkFaults{hostLink(t, f, ep): {DropFirst: 2}},
	}); err != nil {
		t.Fatal(err)
	}

	injectReads(e, ep, 5)
	e.Run()

	// The first two requests die on the host link; the remaining three
	// complete (their completions are traversals 3..5 and onward).
	if len(*got) != 3 {
		t.Fatalf("received %d completions, want 3", len(*got))
	}
	if d := f.Counters().Drops[DropFaultInjected]; d != 2 {
		t.Errorf("fault drops = %d, want 2", d)
	}
}

func TestFaultLossOneDropsEverything(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	if err := f.SetFaultPlan(Uniform(1.0)); err != nil {
		t.Fatal(err)
	}
	injectReads(e, ep, 4)
	e.Run()
	if len(*got) != 0 {
		t.Fatalf("received %d completions under total loss, want 0", len(*got))
	}
	if d := f.Counters().Drops[DropFaultInjected]; d != 4 {
		t.Errorf("fault drops = %d, want 4 (one per injected request)", d)
	}
}

func TestFaultLossDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, int) {
		e := sim.NewEngine()
		f, err := New(e, topo.Mesh(3, 3), Config{}, sim.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetFaultPlan(Uniform(0.5)); err != nil {
			t.Fatal(err)
		}
		ep := firstEndpoint(f)
		got := attachCapture(e, ep)
		injectReads(e, ep, 20)
		e.Run()
		return f.Counters().Drops[DropFaultInjected], len(*got)
	}
	d1, c1 := run()
	d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Errorf("same seed diverged: drops %d vs %d, completions %d vs %d", d1, d2, c1, c2)
	}
	if d1 == 0 {
		t.Error("loss 0.5 over 20 round trips dropped nothing")
	}
}

func TestFaultDelaySlowsDeliveryAndCounts(t *testing.T) {
	arrival := func(plan FaultPlan) (sim.Time, uint64) {
		e := sim.NewEngine()
		f, err := New(e, topo.Mesh(3, 3), Config{}, sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		ep := firstEndpoint(f)
		got := attachCapture(e, ep)
		injectReads(e, ep, 1)
		e.Run()
		if len(*got) != 1 {
			t.Fatalf("received %d completions, want 1", len(*got))
		}
		return (*got)[0].at, f.Counters().FaultDelays
	}
	base, baseDelays := arrival(FaultPlan{})
	slow, slowDelays := arrival(FaultPlan{Default: LinkFaults{DelayProb: 1, Delay: sim.Millisecond}})
	if baseDelays != 0 {
		t.Errorf("empty plan injected %d delays", baseDelays)
	}
	if slowDelays == 0 {
		t.Error("DelayProb=1 injected no delays")
	}
	if slow <= base {
		t.Errorf("delayed completion at %v not later than baseline %v", slow, base)
	}
}

func TestFaultFlapWindowDropsThenRecovers(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	ep := firstEndpoint(f)
	got := attachCapture(e, ep)
	lk := hostLink(t, f, ep)
	// Reads at 0, 10us, ..., 40us; the link is down during [5us, 25us),
	// killing the reads injected at 10us and 20us.
	if err := f.SetFaultPlan(FaultPlan{Flaps: []Flap{
		{Link: lk, At: sim.Time(5 * sim.Microsecond), Duration: 20 * sim.Microsecond},
	}}); err != nil {
		t.Fatal(err)
	}
	injectReads(e, ep, 5)
	e.Run()

	if len(*got) != 3 {
		t.Fatalf("received %d completions across a flap, want 3", len(*got))
	}
	c := f.Counters()
	if c.LinkFlaps != 1 {
		t.Errorf("LinkFlaps = %d, want 1", c.LinkFlaps)
	}
	if c.Drops[DropInactivePort] != 2 {
		t.Errorf("inactive-port drops = %d, want 2", c.Drops[DropInactivePort])
	}
}

func TestFaultFlapTraced(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	tr := span.New(0)
	f.SetSpanTracer(tr)
	ep := firstEndpoint(f)
	if err := f.SetFaultPlan(FaultPlan{Flaps: []Flap{
		{Link: hostLink(t, f, ep), At: sim.Time(sim.Microsecond), Duration: sim.Microsecond},
	}}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	var flaps []string
	for _, s := range tr.Spans() {
		if s.Kind == span.KindFlap {
			flaps = append(flaps, s.Name)
		}
	}
	link := hostLink(t, f, ep)
	want := []string{fmt.Sprintf("flap-down link=%d for=1.000us", link), fmt.Sprintf("flap-up link=%d", link)}
	if !reflect.DeepEqual(flaps, want) {
		t.Fatalf("flap spans %q, want %q", flaps, want)
	}
}

// TestFlapCheck: SetFaultPlan and FlapLink refuse, with an error and no
// engine panic, every flap the engine cannot schedule, and accept the
// last instants that can.
func TestFlapCheck(t *testing.T) {
	e, f := testFabric(t, topo.Mesh(3, 3))
	now := sim.Time(10 * sim.Microsecond)
	e.RunUntil(now)
	if e.Now() != now {
		t.Fatalf("engine at %v, want %v", e.Now(), now)
	}
	cases := []struct {
		name string
		fl   Flap
		ok   bool
	}{
		{"link past the end", Flap{Link: f.NumLinks(), At: now, Duration: 1}, false},
		{"negative link", Flap{Link: -1, At: now, Duration: 1}, false},
		{"zero duration", Flap{Link: 0, At: now, Duration: 0}, false},
		{"negative duration", Flap{Link: 0, At: now, Duration: -1}, false},
		{"start before now", Flap{Link: 0, At: now - 1, Duration: 1}, false},
		{"negative start", Flap{Link: 0, At: -5 * sim.Time(sim.Microsecond), Duration: 5 * sim.Microsecond}, false},
		{"end at Never", Flap{Link: 0, At: now, Duration: sim.Never.Sub(now)}, false},
		{"end past Never", Flap{Link: 0, At: sim.Never - 1, Duration: 2}, false},
		{"starts now", Flap{Link: 0, At: now, Duration: 1}, true},
		{"ends just before Never", Flap{Link: 0, At: now, Duration: sim.Never.Sub(now) - 1}, true},
	}
	for _, tc := range cases {
		errPlan := f.SetFaultPlan(FaultPlan{Flaps: []Flap{tc.fl}})
		errLink := f.FlapLink(tc.fl.Link, tc.fl.At, tc.fl.Duration)
		if (errPlan == nil) != tc.ok || (errLink == nil) != tc.ok {
			t.Errorf("%s: SetFaultPlan: %v, FlapLink: %v; want accepted = %v", tc.name, errPlan, errLink, tc.ok)
		}
	}
}

func TestSetFaultPlanValidation(t *testing.T) {
	_, f := testFabric(t, topo.Mesh(3, 3))
	if err := f.SetFaultPlan(FaultPlan{Flaps: []Flap{{Link: f.NumLinks(), At: 0, Duration: 1}}}); err == nil {
		t.Error("out-of-range flap link accepted")
	}
	if err := f.SetFaultPlan(FaultPlan{Flaps: []Flap{{Link: 0, At: 0, Duration: 0}}}); err == nil {
		t.Error("zero-duration flap accepted")
	}
	// Installing then clearing restores lossless behaviour.
	if err := f.SetFaultPlan(Uniform(1.0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if f.faults != nil {
		t.Error("empty plan did not uninstall fault state")
	}
}
