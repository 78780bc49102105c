package asi

import (
	"encoding/binary"
	"fmt"
)

// PI5EventCode classifies a PI-5 event report.
type PI5EventCode uint8

const (
	// PI5PortUp reports that a local port transitioned to active (a live
	// device appeared at the other end of the link).
	PI5PortUp PI5EventCode = iota + 1
	// PI5PortDown reports that a local port lost its link partner.
	PI5PortDown
)

// String names the event code.
func (c PI5EventCode) String() string {
	switch c {
	case PI5PortUp:
		return "port-up"
	case PI5PortDown:
		return "port-down"
	default:
		return fmt.Sprintf("PI5EventCode(%d)", uint8(c))
	}
}

// PI5 is the payload of a PI-5 event-reporting packet: a device noticed a
// state change on one of its local ports and notifies the fabric manager,
// which then starts the change assimilation process (paper section 2). The
// reporting device identifies itself by DSN because the FM may not yet have
// a current path to it.
type PI5 struct {
	Code     PI5EventCode
	Port     uint8
	Reporter DSN
	// Sequence disambiguates bursts of events from the same device so
	// the FM can ignore stale reports that arrive after a rediscovery.
	Sequence uint32
}

// pi5Size is the encoded size of a PI-5 payload.
const pi5Size = 14

// EncodePI5 serializes p: code(1) port(1) dsn(8) seq(4).
func EncodePI5(p PI5) []byte {
	b := make([]byte, pi5Size)
	b[0] = byte(p.Code)
	b[1] = p.Port
	binary.BigEndian.PutUint64(b[2:10], uint64(p.Reporter))
	binary.BigEndian.PutUint32(b[10:14], p.Sequence)
	return b
}

// DecodePI5 parses a PI-5 payload, exactly pi5Size bytes.
func DecodePI5(b []byte) (PI5, error) {
	var p PI5
	if len(b) != pi5Size {
		return p, fmt.Errorf("asi: PI-5 payload is %d bytes, want %d", len(b), pi5Size)
	}
	p.Code = PI5EventCode(b[0])
	p.Port = b[1]
	p.Reporter = DSN(binary.BigEndian.Uint64(b[2:10]))
	p.Sequence = binary.BigEndian.Uint32(b[10:14])
	return p, nil
}

// WireSize returns the encoded payload size in bytes.
func (p PI5) WireSize() int { return pi5Size }

// String summarizes the event for traces.
func (p PI5) String() string {
	return fmt.Sprintf("pi5{%s port=%d from=%s seq=%d}", p.Code, p.Port, p.Reporter, p.Sequence)
}
