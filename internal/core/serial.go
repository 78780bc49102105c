package core

import "repro/internal/asi"

// serialDriver implements both serialized discovery variants of the
// paper's section 3 (Fig. 2 flow chart):
//
//   - Serial Packet (perDeviceParallel = false): the ASI-SIG proposal.
//     There is exactly one PI-4 request in the fabric at any moment; the
//     FM explores devices breadth-first from an exploration queue and
//     reads the current device's ports one at a time.
//
//   - Serial Device (perDeviceParallel = true): the paper's improvement.
//     Devices are still discovered serially from the queue, but once a
//     device's general information is known, all of its port-attribute
//     reads are injected concurrently. While those completions stream
//     back, the FM pipeline stays busy — the varying slope of the
//     Serial Device series in Fig. 7(a).
type serialDriver struct {
	m                 *Manager
	perDeviceParallel bool

	// queue is the breadth-first device exploration queue: probes to
	// send, one at a time.
	queue []probeSpec

	// cur is the device whose ports are being read, with the ports left
	// to read (Serial Packet) or outstanding (Serial Device).
	cur       *Node
	nextPort  int
	portsLeft int

	idle bool // true when no probe or port read is outstanding
}

func (d *serialDriver) start() {
	d.idle = true
	host := d.m.db.Node(d.m.dev.DSN)
	if host == nil || !host.PortActive[0] {
		return // isolated FM: discovery is just the host endpoint
	}
	d.queue = append(d.queue, probeSpec{srcDSN: host.DSN})
	d.advance()
}

// advance pops the next device probe off the exploration queue.
func (d *serialDriver) advance() {
	d.idle = true
	for len(d.queue) > 0 {
		p := d.queue[0]
		d.queue = d.queue[1:]
		// The link may have been recorded since this probe was queued
		// (alternate path through a cycle); re-check to avoid a
		// redundant read. The ASI-SIG flow chart performs the
		// equivalent "already discovered?" test on the DSN response;
		// skipping here only drops probes whose answer is already
		// recorded link-for-link.
		if _, known := d.m.db.LinkAt(p.srcDSN, int(p.srcPort)); known {
			continue
		}
		if d.m.probe(p) {
			d.idle = false
			return
		}
	}
}

func (d *serialDriver) onGeneral(req *request, n *Node, isNew, ok bool) {
	if !ok || !isNew {
		// Error, timeout, or a device already discovered through an
		// alternate path: update topology (done by the Manager) and
		// proceed to the next device in the queue (Fig. 2).
		d.advance()
		return
	}
	d.cur = n
	d.nextPort = 0
	if d.perDeviceParallel {
		// Serial Device: all port reads at once.
		d.portsLeft = d.m.readAllPorts(n)
		if d.portsLeft == 0 {
			d.deviceDone()
		}
		return
	}
	// Serial Packet: one port read at a time.
	d.sendNextPortRead()
}

func (d *serialDriver) sendNextPortRead() {
	for d.nextPort < d.cur.Ports {
		port := d.nextPort
		d.nextPort++
		if d.m.readPort(d.cur, port) {
			return
		}
	}
	d.deviceDone()
}

func (d *serialDriver) onPort(req *request, n *Node, ok bool) {
	if n != nil {
		d.cur = n // as it stands now: after a Clone, what onGeneral handed us is frozen
	}
	if !d.perDeviceParallel {
		// Serial Packet never tracks outstanding reads in portsLeft (it
		// has exactly one in flight); decrementing here would drive the
		// counter negative.
		d.sendNextPortRead()
		return
	}
	if d.portsLeft > 0 {
		d.portsLeft--
	}
	if d.portsLeft == 0 {
		d.deviceDone()
	}
}

// deviceDone finishes the current device: enqueue exploration of every
// active port and move on.
func (d *serialDriver) deviceDone() {
	if d.cur != nil && d.cur.Type == asi.DeviceSwitch {
		d.queue = append(d.queue, d.m.probesFrom(d.cur)...)
	}
	d.cur = nil
	d.advance()
}

func (d *serialDriver) finished() bool {
	return d.idle && len(d.queue) == 0
}
