package asi

import "fmt"

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

// heartbeatSize is a beacon's wire size: dsn(8) seq(4).
const heartbeatSize = 12

// ProtocolInterface implements Payload.
func (p Heartbeat) ProtocolInterface() PI { return PIHeartbeat }

// WireSize implements Payload.
func (p Heartbeat) WireSize() int { return heartbeatSize }

// String summarizes the beacon.
func (p Heartbeat) String() string {
	return fmt.Sprintf("heartbeat{from=%s seq=%d}", p.From, p.Seq)
}
