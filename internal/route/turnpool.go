// Package route implements ASI turn-pool source routing: the arithmetic a
// switch performs on the routing header to select an output port, and the
// path representation the fabric manager uses to build turn pools as its
// view of the topology grows.
//
// ASI unicast routing is relative: each switch on the path consumes a
// "turn" from the packet's turn pool, where the turn is the clockwise
// distance from the ingress port to the egress port, minus one. The same
// pool read in the opposite direction (D bit set) retraces the path, which
// is how PI-4 completions return without the responding device knowing any
// topology.
package route

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/asi"
)

// Hop is one switch traversal on a source-routed path, in forward
// direction. Ports is the switch's port count (which fixes the turn width),
// In the ingress port and Out the egress port. Each field has the width
// its range needs: a switch has at most asi.MaxSwitchPorts = 256 ports,
// so a count fits 16 bits and a port index a byte, and a hop is 4 bytes.
// The FM holds one path per discovered device, so the width is what a
// database costs per hop.
type Hop struct {
	Ports uint16
	In    uint8
	Out   uint8
}

// Path is a sequence of switch traversals from source endpoint to
// destination device. The destination itself contributes no hop: a packet
// arriving at a device with an exhausted pool is delivered locally.
type Path []Hop

// TurnWidth returns the number of turn-pool bits a switch with the given
// port count consumes: ceil(log2(ports)), minimum 1.
func TurnWidth(ports int) int {
	if ports <= 2 {
		return 1
	}
	return bits.Len(uint(ports - 1))
}

// Turn computes the turn value encoding the in->out traversal of a switch
// with the given port count: (out - in - 1) mod ports.
func Turn(ports, in, out int) int {
	t := out - in - 1
	return ((t % ports) + ports) % ports
}

// OutPort inverts Turn in the forward direction.
func OutPort(ports, in, turn int) int {
	return (in + 1 + turn) % ports
}

// backPort inverts Turn in the backward direction: a response entering the
// port the request left through exits the port the request entered.
func backPort(ports, in, turn int) int {
	t := in - 1 - turn
	return ((t % ports) + ports) % ports
}

// Encode packs the path into a turn pool. The first hop occupies the most
// significant used bits so that forward traversal consumes the pool top
// down. It returns the pool and the initial turn pointer (the number of
// used bits). Paths whose turns exceed the pool width are rejected — the
// caller (the FM) must then discover the device through a shorter path.
// So is a hop through more than asi.MaxSwitchPorts ports, or through a
// port its switch does not have.
func Encode(p Path) (pool uint64, ptr uint8, err error) {
	return encode(p, Hop{})
}

// encode packs p followed by next, unless next is the zero Hop, which no
// switch traversal is (a switch has at least two ports).
func encode(p Path, next Hop) (pool uint64, ptr uint8, err error) {
	total := 0
	for i, h := range p {
		w, err := h.width()
		if err != nil {
			return 0, 0, fmt.Errorf("route: hop %d %w", i, err)
		}
		total += w
	}
	if next != (Hop{}) {
		w, err := next.width()
		if err != nil {
			return 0, 0, fmt.Errorf("route: hop %d %w", len(p), err)
		}
		total += w
	}
	if total > asi.TurnPoolBits {
		return 0, 0, fmt.Errorf("route: path needs %d turn bits, pool holds %d", total, asi.TurnPoolBits)
	}
	for _, h := range p {
		pool = h.push(pool)
	}
	if next != (Hop{}) {
		pool = next.push(pool)
	}
	return pool, uint8(total), nil
}

// width validates the hop and returns its turn width. In == Out is
// permitted: it encodes the maximal turn (ports-1), which sends a packet
// back out its ingress port — used by switch-sourced event routes whose
// virtual ingress happens to coincide with the first egress.
func (h Hop) width() (int, error) {
	if h.Ports < 2 || h.Ports > asi.MaxSwitchPorts || uint16(h.In) >= h.Ports || uint16(h.Out) >= h.Ports {
		return 0, fmt.Errorf("invalid: %+v", h)
	}
	return TurnWidth(int(h.Ports)), nil
}

// push shifts the hop's turn into the low end of a pool.
func (h Hop) push(pool uint64) uint64 {
	return pool<<TurnWidth(int(h.Ports)) | uint64(Turn(int(h.Ports), int(h.In), int(h.Out)))
}

// Header builds a forward route header for the path with the given PI and
// management traffic class already applied.
func Header(p Path, pi asi.PI) (asi.RouteHeader, error) {
	return HeaderNext(p, Hop{}, pi)
}

// HeaderNext is Header(Extend(p, next), pi) without building the extended
// path: a probe one switch past a known device encodes its parent's path
// and the one hop it adds, and the extended path is only built for a
// device the probe turns out to discover. The zero Hop adds nothing.
func HeaderNext(p Path, next Hop, pi asi.PI) (asi.RouteHeader, error) {
	pool, ptr, err := encode(p, next)
	if err != nil {
		return asi.RouteHeader{}, err
	}
	return asi.RouteHeader{
		TurnPool:    pool,
		TurnPointer: ptr,
		PI:          pi,
		TC:          asi.TCManagement,
	}, nil
}

// Reverse returns the path a response travels: the hops in opposite order
// with ingress and egress swapped. The FM uses this to program event routes
// (device -> FM) from its own FM -> device paths.
func Reverse(p Path) Path {
	return AppendReverse(make(Path, 0, len(p)), p)
}

// AppendReverse appends Reverse(p) to dst, for a caller that encodes the
// reversed path and keeps nothing of it.
func AppendReverse(dst, p Path) Path {
	for i := len(p) - 1; i >= 0; i-- {
		dst = append(dst, Hop{Ports: p[i].Ports, In: p[i].Out, Out: p[i].In})
	}
	return dst
}

// Extend returns a new path that continues p through one more switch. It
// does not mutate p, so sibling extensions of a shared prefix are safe —
// exactly the access pattern of parallel discovery.
func Extend(p Path, hop Hop) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = hop
	return out
}

// Bits returns the total number of turn-pool bits the path consumes.
func (p Path) Bits() int {
	n := 0
	for _, h := range p {
		n += TurnWidth(int(h.Ports))
	}
	return n
}

// String renders the path as "in->out" per hop for traces.
func (p Path) String() string {
	if len(p) == 0 {
		return "<direct>"
	}
	var b strings.Builder
	for i, h := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d->%d", h.In, h.Out)
	}
	return b.String()
}

// Decision is the outcome of routing a packet at a switch.
type Decision struct {
	// Deliver means the packet terminates at this switch.
	Deliver bool
	// Out is the egress port when Deliver is false.
	Out int
}

// SwitchRoute performs the routing-header processing of an ASI switch: it
// examines (and on forwarding, advances) the turn pointer and returns
// either a local-delivery decision or the egress port. ports is the
// switch's port count and in the packet's ingress port. Malformed headers
// (exhausted pool mid-path, turn values outside the port range) yield an
// error; the switch then drops the packet, as cut-through hardware with no
// route to the originator must.
func SwitchRoute(h *asi.RouteHeader, ports, in int) (Decision, error) {
	w := uint8(TurnWidth(ports))
	mask := uint64(1)<<w - 1
	if !h.Dir {
		if h.TurnPointer == 0 {
			return Decision{Deliver: true}, nil
		}
		if h.TurnPointer < w {
			return Decision{}, fmt.Errorf("route: forward pool exhausted: %d bits left, need %d", h.TurnPointer, w)
		}
		h.TurnPointer -= w
		turn := int(h.TurnPool >> h.TurnPointer & mask)
		if turn >= ports {
			h.TurnPointer += w // restore for diagnostics
			return Decision{}, fmt.Errorf("route: turn %d out of range for %d-port switch", turn, ports)
		}
		return Decision{Out: OutPort(ports, in, turn)}, nil
	}
	if int(h.TurnPointer)+int(w) > asi.TurnPoolBits {
		return Decision{}, fmt.Errorf("route: backward pool exhausted at bit %d", h.TurnPointer)
	}
	turn := int(h.TurnPool >> h.TurnPointer & mask)
	if turn >= ports {
		return Decision{}, fmt.Errorf("route: backward turn %d out of range for %d-port switch", turn, ports)
	}
	h.TurnPointer += w
	return Decision{Out: backPort(ports, in, turn)}, nil
}
