package core

// parallelDriver implements the paper's Parallel discovery (section 3.3,
// Fig. 3 flow chart): a propagation-order exploration in which the FM
// sends new PI-4 packets as soon as it receives the responses that enable
// them. The exploration queue of the serial variants is replaced by the
// Manager's table of pending packets; the order in which devices are
// discovered is not deterministic (it depends on response arrival order).
// Discovery is complete when the pending table drains.
//
// With a nonzero claim generation it is also the Distributed algorithm:
// a new device is expanded only after the FM wins its ownership claim
// (Manager.onClaim; see distributed.go).
type parallelDriver struct {
	m *Manager
	// gen is the claim generation of a distributed round, zero for the
	// unclaimed Parallel and Partial algorithms.
	gen uint32
}

func (d *parallelDriver) start() {
	d.m.initialProbe()
}

func (d *parallelDriver) onGeneral(req *request, n *Node, isNew, ok bool) {
	if !ok || !isNew {
		// Already discovered through an alternate path (the link was
		// recorded by the Manager), or unreachable: nothing to expand.
		return
	}
	if d.gen != 0 {
		d.m.sendClaim(n, d.gen)
		return
	}
	// New device: immediately inject reads for all of its ports.
	d.m.readAllPorts(n)
}

func (d *parallelDriver) onPort(req *request, n *Node, ok bool) {
	if !ok {
		return
	}
	// A newly known active port immediately probes the device at the
	// other end of its link. The host endpoint's port is the initial
	// probe's: probeFromPort refuses every non-switch.
	if p, ok := d.m.probeFromPort(n, int(req.port)); ok {
		d.m.probe(p)
	}
}

// finished is always true for the parallel driver: every enabled request
// is issued synchronously while processing the enabling completion, so
// the Manager's pending table alone decides completion.
func (d *parallelDriver) finished() bool { return true }
