// Package asi defines the Advanced Switching Interconnect (ASI) vocabulary
// used throughout this repository: routing headers with turn-pool source
// routing, the PI-4 device configuration/control protocol, the PI-5
// event-reporting protocol, virtual-channel and traffic-class types, and the
// per-device configuration space (capability structures) that the fabric
// manager reads during discovery.
//
// The structures follow the ASI Core Architecture Specification rev 1.0 at
// the level of detail the discovery process exercises. Packets are Go
// values that the fabric moves and charges at their wire size (WireSize);
// nothing serializes them. One deliberate deviation is documented on
// RouteHeader: the turn pool is widened from the spec's 31 bits to 64 bits
// so that the paper's largest topologies (8x8 mesh, 10x10 torus) remain
// source-routable from any fabric-manager placement.
package asi

import "fmt"

// DeviceType distinguishes the two kinds of ASI fabric devices.
type DeviceType uint8

const (
	// DeviceSwitch is a multi-port ASI switch element.
	DeviceSwitch DeviceType = iota + 1
	// DeviceEndpoint is a fabric endpoint (up to 4 ports; this model,
	// like the paper's, uses 1-port endpoints).
	DeviceEndpoint
)

// String returns "switch" or "endpoint".
func (t DeviceType) String() string {
	switch t {
	case DeviceSwitch:
		return "switch"
	case DeviceEndpoint:
		return "endpoint"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(t))
	}
}

// DSN is a device serial number: the fabric-unique identity the FM uses to
// recognize a device reached through alternate paths.
type DSN uint64

// String renders the DSN in the conventional hex form.
func (d DSN) String() string { return fmt.Sprintf("dsn:%016x", uint64(d)) }

// PI identifies the Protocol Interface of an encapsulated packet: the field
// in the ASI route header that says what kind of payload follows.
type PI uint8

// Protocol interfaces used by the management plane. ASI reserves PI 0-7 for
// fabric management; PI-4 is device configuration, PI-5 is event reporting.
const (
	PI4DeviceManagement PI = 4
	PI5EventReporting   PI = 5
	// PIApplication marks encapsulated application data (any PI >= 8 in
	// the spec; a single representative value suffices for the model).
	PIApplication PI = 8
)

// TrafficClass groups flows for similar treatment; 3 bits on the wire.
type TrafficClass uint8

// MaxTrafficClass is the largest encodable traffic class (3-bit field).
const MaxTrafficClass TrafficClass = 7

// TCManagement is the traffic class used by management and notification
// packets. Per the paper (section 4.1), management packets have the highest
// priority in the fabric, which is why application traffic scarcely
// influences discovery time.
const TCManagement TrafficClass = 7

// VCID addresses a virtual channel within a port.
type VCID uint8

// The model instantiates the two virtual channels its traffic uses per
// port: TC0-6 share the bulk channel and TC7 (management) has the
// dedicated highest-priority one, so management packets never queue
// behind data. The spec's multicast channel is not modelled: nothing
// sends multicast.
const (
	// VCBulk is the unicast bypassable channel (BVC) for application
	// data.
	VCBulk VCID = 0
	// VCManagement is the highest-priority ordered channel (OVC) for
	// PI-4/5 and other management packets.
	VCManagement VCID = 1
	// NumVCs is the per-port channel count.
	NumVCs = 2
)

// Link-layer constants from the specification for an ASI x1 link.
const (
	// LinkRawGbps is the signalling rate of an x1 lane in Gbit/s.
	LinkRawGbps = 2.5
	// LinkEffectiveGbps is the usable bandwidth after 8b/10b encoding.
	LinkEffectiveGbps = 2.0
	// MaxSwitchPorts is the spec's limit on switch ports.
	MaxSwitchPorts = 256
	// MaxEndpointPorts is the spec's limit on endpoint ports.
	MaxEndpointPorts = 4
	// MaxReadBlocks is the PI-4 limit on 32-bit blocks per read
	// completion.
	MaxReadBlocks = 8
)

// SourceVirtualIngress is the ingress port a switch assumes when it
// originates (rather than forwards) a source-routed packet, e.g. a PI-5
// event along its programmed event route. The fabric manager computes
// switch event routes against the same convention.
const SourceVirtualIngress = 0
