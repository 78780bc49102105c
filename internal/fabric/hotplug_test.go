package fabric

import (
	"errors"
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestHotplugLifecycleErrors drives SetDeviceDown/SetDeviceUp through
// op sequences and checks the typed sentinel errors: redundant
// transitions must be distinguishable (errors.Is) from real failures,
// and the Alive accessor must track the state exactly.
func TestHotplugLifecycleErrors(t *testing.T) {
	const victim = topo.NodeID(4) // centre switch of the 3x3 mesh
	type op struct {
		down    bool
		wantErr error // nil = must succeed
	}
	cases := []struct {
		name string
		ops  []op
	}{
		{"down then down", []op{
			{down: true},
			{down: true, wantErr: ErrAlreadyDown},
		}},
		{"up while up", []op{
			{down: false, wantErr: ErrAlreadyUp},
		}},
		{"full cycle twice", []op{
			{down: true},
			{down: false},
			{down: true},
			{down: false},
		}},
		{"double up after cycle", []op{
			{down: true},
			{down: false},
			{down: false, wantErr: ErrAlreadyUp},
		}},
		{"recover after misuse", []op{
			{down: true},
			{down: true, wantErr: ErrAlreadyDown},
			{down: false},
			{down: false, wantErr: ErrAlreadyUp},
			{down: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, f := testFabric(t, topo.Mesh(3, 3))
			alive := true
			for i, o := range tc.ops {
				var err error
				if o.down {
					err = f.SetDeviceDown(victim, true)
				} else {
					err = f.SetDeviceUp(victim, true)
				}
				if o.wantErr == nil {
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					alive = !o.down
				} else if !errors.Is(err, o.wantErr) {
					t.Fatalf("op %d: err = %v, want %v", i, err, o.wantErr)
				}
				if f.Alive(victim) != alive {
					t.Fatalf("op %d: Alive = %v, want %v", i, f.Alive(victim), alive)
				}
			}
		})
	}
}

// TestHotplugPI5Suppression table-drives the quiet flag: loud
// transitions deliver PI-5 reports over the programmed event routes,
// quiet ones deliver nothing at all.
func TestHotplugPI5Suppression(t *testing.T) {
	const victim = topo.NodeID(4)
	cases := []struct {
		name     string
		quiet    bool
		code     asi.PI5EventCode
		minCount int
	}{
		{"loud removal reports", false, asi.PI5PortDown, 1},
		{"quiet removal silent", true, asi.PI5PortDown, 0},
		{"loud addition reports", false, asi.PI5PortUp, 1},
		{"quiet addition silent", true, asi.PI5PortUp, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, f := testFabric(t, topo.Mesh(3, 3))
			ep := firstEndpoint(f)
			got := attachCapture(e, ep)
			programEventRoutes(t, f, ep)
			if tc.code == asi.PI5PortUp {
				// Prepare: the device must be down to come up.
				if err := f.SetDeviceDown(victim, true); err != nil {
					t.Fatal(err)
				}
				if err := f.SetDeviceUp(victim, tc.quiet); err != nil {
					t.Fatal(err)
				}
			} else if err := f.SetDeviceDown(victim, tc.quiet); err != nil {
				t.Fatal(err)
			}
			e.Run()
			count := 0
			for _, r := range *got {
				if ev, ok := r.pkt.Payload.(asi.PI5); ok && ev.Code == tc.code {
					count++
				}
			}
			if tc.quiet && count != 0 {
				t.Errorf("quiet transition delivered %d PI-5 reports", count)
			}
			if !tc.quiet && count < tc.minCount {
				t.Errorf("loud transition delivered %d PI-5 reports, want >= %d", count, tc.minCount)
			}
			if delivered := f.Counters().Delivered[asi.PI5EventReporting]; int(delivered) != count {
				t.Errorf("fabric counted %d PI-5 deliveries, capture saw %d", delivered, count)
			}
		})
	}
}

// TestInFlightPacketsDieAtDeadDevice removes a switch at precisely
// computed instants while a PI-4 read addressed to it is in progress.
// Whether the packet is on the final wire, inside the cut-through
// routing latency, or already being serviced (so only the completion is
// pending), the traffic must die at the dead device — DropDeadDevice —
// and no completion may reach the requester. That holds even when power
// returns before the service interval would have ended: a device that
// lost power forgets the request it was serving.
func TestInFlightPacketsDieAtDeadDevice(t *testing.T) {
	// ep(0,0) -> sw(0,0) -> sw(0,1) on the 3x3 mesh, as in
	// TestPI4ReadAcrossMultipleHops.
	toMid := route.Path{
		{Ports: 16, In: topo.PortHost, Out: topo.PortEast},
	}
	const victim = topo.NodeID(1) // sw(0,1)
	cases := []struct {
		name string
		// killAt computes the removal time from the request's arrival
		// time at the victim.
		killAt func(f *Fabric, arrive sim.Duration) sim.Duration
		// wantDrop is the expected DropDeadDevice count: a packet still
		// travelling is dropped and accounted; a request already inside
		// the config-space server just never completes (the requester
		// sees a timeout), so nothing is counted.
		wantDrop uint64
		// reviveAfter, when set, is how long after the removal the victim
		// powers back up.
		reviveAfter func(f *Fabric) sim.Duration
	}{
		{"dies on the wire", func(f *Fabric, arrive sim.Duration) sim.Duration {
			return arrive - Propagation/2
		}, 1, nil},
		{"dies in cut-through routing", func(f *Fabric, arrive sim.Duration) sim.Duration {
			return arrive + SwitchLatency/2
		}, 1, nil},
		{"completion dies mid-service", func(f *Fabric, arrive sim.Duration) sim.Duration {
			return arrive + SwitchLatency + f.deviceService()/2
		}, 0, nil},
		{"no ghost completion after a power cycle", func(f *Fabric, arrive sim.Duration) sim.Duration {
			return arrive + SwitchLatency + f.deviceService()/4
		}, 0, func(f *Fabric) sim.Duration { return f.deviceService() / 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, f := testFabric(t, topo.Mesh(3, 3))
			ep := firstEndpoint(f)
			got := attachCapture(e, ep)

			pkt := readReq(t, toMid, 9, asi.GeneralInfoOffset, asi.GeneralInfoBlocks)
			// Two serialize+propagate hops plus one routing decision put
			// the request at the victim's input.
			hop := f.serialization(pkt.WireSize()) + Propagation
			arrive := hop + SwitchLatency + hop
			kill := tc.killAt(f, arrive)

			ep.Inject(pkt)
			e.At(sim.Time(0).Add(kill), func(*sim.Engine) {
				if err := f.SetDeviceDown(victim, true); err != nil {
					t.Errorf("SetDeviceDown: %v", err)
				}
			})
			if tc.reviveAfter != nil {
				e.At(sim.Time(0).Add(kill+tc.reviveAfter(f)), func(*sim.Engine) {
					if err := f.SetDeviceUp(victim, true); err != nil {
						t.Errorf("SetDeviceUp: %v", err)
					}
				})
			}
			e.Run()

			if len(*got) != 0 {
				t.Errorf("received %d completions for a request that died at a dead device", len(*got))
			}
			if n := f.Counters().Drops[DropDeadDevice]; n != tc.wantDrop {
				t.Errorf("DropDeadDevice = %d, want %d", n, tc.wantDrop)
			}
		})
	}
}
