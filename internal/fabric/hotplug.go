package fabric

import (
	"errors"
	"fmt"

	"repro/internal/asi"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Hot addition and removal of fabric devices (paper sections 1-2: "device
// hot addition and removal" and the topological change programmed in every
// experiment). Removing a switch drops all its links; each live neighbour
// notices the state change on its local port after the detection delay and
// reports it to the FM with a PI-5 packet — if the FM has programmed an
// event route into it. Restoring the switch reverses the process with
// port-up events.

// Typed hotplug errors. Scripted churn (the chaos harness, tests) must
// distinguish "the event was redundant" from any other failure, so both
// misuses are sentinel errors matchable with errors.Is.
var (
	// ErrAlreadyDown reports a SetDeviceDown on a device that is down.
	ErrAlreadyDown = errors.New("device already down")
	// ErrAlreadyUp reports a SetDeviceUp on a device that is up.
	ErrAlreadyUp = errors.New("device already up")
)

// Alive reports whether the device instantiated for a topology node is
// currently powered and part of the fabric.
func (f *Fabric) Alive(id topo.NodeID) bool { return f.devices[id].alive }

// SetDeviceDown removes a device from the fabric. With quiet set the
// neighbours do not emit PI-5 events; experiments use this to prepare an
// "addition" transient without tripping change assimilation. It returns
// ErrAlreadyDown if the device is already down.
func (f *Fabric) SetDeviceDown(id topo.NodeID, quiet bool) error {
	d := f.devices[id]
	if !d.alive {
		return fmt.Errorf("fabric: device %s: %w", d.Label, ErrAlreadyDown)
	}
	d.alive = false
	d.dropPI4()
	// Flush the dead device's own transmit queues; packets already on
	// the wire stay in flight and die at arrival.
	for p := range d.ports {
		if lk := d.ports[p].link; lk != nil {
			if q := lk.half[lk.halfFrom(d)].q; q != nil {
				for vc := range q {
					q[vc].Clear()
				}
			}
		}
	}
	f.portsChanged(d, quiet, asi.PI5PortDown)
	return nil
}

// SetDeviceUp restores a previously removed device. Neighbours emit
// PI-5 port-up events unless quiet is set. It returns ErrAlreadyUp if the
// device is already up.
func (f *Fabric) SetDeviceUp(id topo.NodeID, quiet bool) error {
	d := f.devices[id]
	if d.alive {
		return fmt.Errorf("fabric: device %s: %w", d.Label, ErrAlreadyUp)
	}
	d.alive = true
	f.portsChanged(d, quiet, asi.PI5PortUp)
	return nil
}

// portsChanged retrains all of d's links and lets live neighbours report
// the transition.
func (f *Fabric) portsChanged(d *Device, quiet bool, code asi.PI5EventCode) {
	for p := range d.ports {
		lk := d.ports[p].link
		if lk == nil {
			continue
		}
		peer, peerPort := lk.otherEnd(d)
		lk.setUp(lk.up) // recompute activity from both ends' liveness
		if quiet || !peer.Alive() {
			continue
		}
		port := peerPort
		// The detection timer belongs to the neighbour doing the
		// detecting, so on a sharded fabric it fires on that region's
		// engine.
		peer.eng.After(DetectDelay, func(*sim.Engine) {
			if peer.Alive() {
				peer.EmitPI5(code, port)
			}
		})
	}
}

// RandomSwitch picks a uniformly random switch node, for the paper's
// "addition or removal of a randomly chosen fabric switch".
func (f *Fabric) RandomSwitch(rng *sim.RNG) topo.NodeID {
	var switches []topo.NodeID
	for _, d := range f.devices {
		if d.Type == asi.DeviceSwitch {
			switches = append(switches, d.ID)
		}
	}
	return switches[rng.Intn(len(switches))]
}
