package asi

import (
	"encoding/binary"
	"fmt"
)

// PIHeartbeat is the protocol interface for fabric-manager liveness
// heartbeats. The specification requires that "if the primary FM fails,
// the secondary one takes over" (fabric management failover); the
// heartbeat stream is how the secondary learns the primary died.
const PIHeartbeat PI = 2

// Heartbeat is a primary-FM liveness beacon sent to the secondary.
type Heartbeat struct {
	From DSN
	Seq  uint32
}

const heartbeatSize = 12

// ProtocolInterface implements Payload.
func (p Heartbeat) ProtocolInterface() PI { return PIHeartbeat }

// WireSize implements Payload.
func (p Heartbeat) WireSize() int { return heartbeatSize }

// String summarizes the beacon.
func (p Heartbeat) String() string {
	return fmt.Sprintf("heartbeat{from=%s seq=%d}", p.From, p.Seq)
}

// EncodeHeartbeat serializes p: dsn(8) seq(4).
func EncodeHeartbeat(p Heartbeat) []byte {
	b := make([]byte, heartbeatSize)
	binary.BigEndian.PutUint64(b[0:8], uint64(p.From))
	binary.BigEndian.PutUint32(b[8:12], p.Seq)
	return b
}

// DecodeHeartbeat parses a beacon, and refuses bytes after it.
func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	var p Heartbeat
	if len(b) != heartbeatSize {
		return p, fmt.Errorf("asi: heartbeat payload is %d bytes, want %d", len(b), heartbeatSize)
	}
	p.From = DSN(binary.BigEndian.Uint64(b[0:8]))
	p.Seq = binary.BigEndian.Uint32(b[8:12])
	return p, nil
}
