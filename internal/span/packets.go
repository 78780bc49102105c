package span

import (
	"fmt"
	"io"
)

// The packet view: the fabric's per-hop records read as a flat list of
// packet events, one line each, in the order they were recorded.

// packetLabels names the kinds the packet view lists; the others (FM
// work, queueing, device service) are left out.
var packetLabels = [numKinds]string{
	KindInject:  "inject",
	KindWire:    "tx",
	KindDeliver: "deliver",
	KindDrop:    "drop",
	KindFlap:    "fault",
	KindStall:   "stall",
}

// WritePackets prints the log's first max packet events — injections,
// link transmissions (wire spans, at their start), deliveries, drops,
// credit stalls and link flaps — then how many further events the cap
// left out. max <= 0 prints them all.
func WritePackets(w io.Writer, l Log, max int) error {
	shown, further := 0, 0
	for i := range l.Spans {
		s := &l.Spans[i]
		if s.Kind >= numKinds || packetLabels[s.Kind] == "" {
			continue
		}
		if max > 0 && shown == max {
			further++
			continue
		}
		shown++
		line := fmt.Sprintf("%-12v %-8s %-12s port=%-3d pi=%d %dB",
			s.Start, packetLabels[s.Kind], s.Device, s.Port, s.PI, s.Bytes)
		if s.Name != "" {
			line += " " + s.Name
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if further == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "... %d further events not recorded (buffer cap %d)\n"+
		"trace truncated: %d events dropped (raise -trace beyond %d)\n", further, max, further, max)
	return err
}
