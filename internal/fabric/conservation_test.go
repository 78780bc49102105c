package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Packet conservation: after the event queue drains, every application
// packet the traffic generator injected was either delivered to an
// endpoint or accounted as a drop — the fabric never loses packets
// silently, under any topology, credit depth, or load — and every hop
// gave back its credit and its flight record together.
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed uint64, credits uint8, gapUS uint8, sizeSel uint8) bool {
		rng := sim.NewRNG(seed)
		tp := topo.Random(int(seed%8)+3, int(seed%10), rng.Split())
		e := sim.NewEngine()
		cfg := Config{CreditsPerVC: int(credits%8) + 1}
		fab, err := New(e, tp, cfg, rng.Split())
		if err != nil {
			return false
		}
		gen := NewTrafficGen(fab, rng.Split(), sim.Duration(int(gapUS%40)+2)*sim.Microsecond,
			[]int{64, 256, 1024}[sizeSel%3])
		gen.Start()
		e.RunUntil(sim.Time(1 * sim.Millisecond))
		gen.Stop()
		e.Run()

		var delivered uint64
		for _, d := range fab.Devices() {
			if d.Type == asi.DeviceEndpoint {
				delivered += d.RxPackets
			}
		}
		var dropped uint64
		for _, n := range fab.Counters().Drops {
			dropped += n
		}
		if err := checkHopsReleased(fab); err != nil {
			t.Log(err)
			return false
		}
		return delivered+dropped == gen.Injected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Byte conservation under hot removal: packets in flight toward a dead
// device are dropped and counted, never stranded in a queue forever.
func TestConservationAcrossRemoval(t *testing.T) {
	rng := sim.NewRNG(77)
	tp := topo.Torus(4, 4)
	e := sim.NewEngine()
	fab, err := New(e, tp, Config{}, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	gen := NewTrafficGen(fab, rng.Split(), 5*sim.Microsecond, 512)
	gen.Start()
	e.RunUntil(sim.Time(500 * sim.Microsecond))
	if err := fab.SetDeviceDown(5, true); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(1 * sim.Millisecond))
	gen.Stop()
	e.Run()

	var delivered uint64
	for _, d := range fab.Devices() {
		if d.Type == asi.DeviceEndpoint {
			delivered += d.RxPackets
		}
	}
	var dropped uint64
	for _, n := range fab.Counters().Drops {
		dropped += n
	}
	// The dead switch itself consumed any packet that had fully arrived
	// before it died; those count as its RxPackets.
	delivered += fab.Device(5).RxPackets
	if delivered+dropped != gen.Injected {
		t.Errorf("injected %d != delivered %d + dropped %d",
			gen.Injected, delivered, dropped)
	}
	if dropped == 0 {
		t.Error("expected some drops toward the removed switch")
	}
	if err := checkHopsReleased(fab); err != nil {
		t.Error(err)
	}
}

// checkHopsReleased checks a drained fabric: a hop holds its credit and
// its flight record from transmit until the receiver routes or consumes
// the packet, so once no event is left every half link holds
// CreditsPerVC credits on each VC, and no flight record sits in the
// device pools twice.
func checkHopsReleased(f *Fabric) error {
	for i := range f.links {
		for dir := range f.links[i].half {
			for vc, n := range f.links[i].half[dir].credits {
				if int(n) != f.cfg.CreditsPerVC {
					return fmt.Errorf("link %d dir %d vc %d: %d credits after the drain, want %d",
						i, dir, vc, n, f.cfg.CreditsPerVC)
				}
			}
		}
	}
	seen := make(map[*flight]bool)
	for _, d := range f.Devices() {
		for fl := d.freeFlights; fl != nil; fl = fl.next {
			if seen[fl] {
				return fmt.Errorf("device %s: flight record %p pooled twice", d.Label, fl)
			}
			seen[fl] = true
		}
	}
	return nil
}
