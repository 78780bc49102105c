package asi

import "fmt"

// The configuration space of an ASI device is a storage area of 32-bit
// blocks organized into capability structures. The fabric manager learns
// everything it knows about a device by PI-4 reads of this space (paper
// section 2). This model implements the baseline capability:
//
//	block 0          device type | capability version | port count
//	blocks 1-2       device serial number (DSN), high and low words
//	block 3          maximum packet size in bytes
//	block 4          device status (FM-capable, multicast-capable)
//	block 5          vendor/part identification
//	blocks 6..6+2P   two blocks per port: state/speed/width, reserved
//	then 3 blocks    event route: the turn pool toward the FM that the
//	                 device stamps on PI-5 packets (written by the FM)
//	then 2 blocks    discovery ownership: claim generation and owner
//	                 (written by PI-4 claims of collaborating FMs)
//
// The first six blocks are the "general information" the discovery
// algorithms read first; the per-port blocks are the "additional
// attributes" read afterwards (paper section 3).
const (
	// GeneralInfoOffset and GeneralInfoBlocks delimit the device general
	// information region.
	GeneralInfoOffset uint16 = 0
	GeneralInfoBlocks uint8  = 6
	// portInfoBase is the first per-port block.
	portInfoBase uint16 = 6
	// PortInfoBlocks is the number of blocks describing one port.
	PortInfoBlocks uint8 = 2
	// EventRouteBlocks is the size of the writable event-route region.
	EventRouteBlocks uint8 = 3
	// OwnerBlocks is the size of the writable discovery-ownership
	// region used by distributed discovery: a generation counter and
	// the claiming FM's identity. Devices update it atomically while
	// servicing a PI-4 claim request.
	OwnerBlocks uint8 = 2
	// capabilityVersion identifies this layout.
	capabilityVersion = 1
)

// Device status bits in block 4.
const (
	statusFMCapable = 1 << 0
	statusMulticast = 1 << 1
)

// PortInfoOffset returns the block offset of port p's information.
func PortInfoOffset(p int) uint16 {
	return portInfoBase + uint16(p)*uint16(PortInfoBlocks)
}

// EventRouteOffset returns the block offset of the event-route region for
// a device with the given port count.
func EventRouteOffset(ports int) uint16 {
	return PortInfoOffset(ports)
}

// OwnerOffset returns the block offset of the discovery-ownership region.
func OwnerOffset(ports int) uint16 {
	return EventRouteOffset(ports) + uint16(EventRouteBlocks)
}

// GeneralInfo is the decoded form of the first six capability blocks.
type GeneralInfo struct {
	Type      DeviceType
	Version   uint8
	Ports     int
	DSN       DSN
	MaxPacket int
	FMCapable bool
	Multicast bool
	VendorID  uint32
}

// PortInfo is the decoded form of one port's capability blocks.
type PortInfo struct {
	// Active indicates a live device is attached at the other end
	// of this port's link.
	Active bool
	// SpeedGbps is the negotiated link speed (2.0 for x1 after 8b/10b).
	SpeedGbps float64
	// Width is the negotiated lane count.
	Width int
}

// ConfigSpace is a device's capability storage, served to PI-4 reads:
// HeadBlocks(ports) blocks, the device-owned general information and port
// blocks followed by the two FM-writable regions.
type ConfigSpace struct {
	blocks []uint32
	ports  int
}

// HeadBlocks returns the capability's size in blocks for a device with
// the given port count.
func HeadBlocks(ports int) int { return int(OwnerOffset(ports)) + int(OwnerBlocks) }

// Init builds the capability structure in place, for a ConfigSpace
// embedded in a larger record. store, when it has capacity for
// HeadBlocks(ports) blocks, backs it (a fabric carves every device's from
// one array); otherwise Init allocates.
func (c *ConfigSpace) Init(t DeviceType, dsn DSN, ports, maxPacket int, fmCapable bool, store []uint32) error {
	switch t {
	case DeviceSwitch:
		if ports < 2 || ports > MaxSwitchPorts {
			return fmt.Errorf("asi: switch port count %d out of range 2..%d", ports, MaxSwitchPorts)
		}
	case DeviceEndpoint:
		if ports < 1 || ports > MaxEndpointPorts {
			return fmt.Errorf("asi: endpoint port count %d out of range 1..%d", ports, MaxEndpointPorts)
		}
	default:
		return fmt.Errorf("asi: unknown device type %v", t)
	}
	n := HeadBlocks(ports)
	if cap(store) < n {
		store = make([]uint32, n)
	}
	blocks := store[:n]
	clear(blocks)
	*c = ConfigSpace{blocks: blocks, ports: ports}
	AppendGeneralInfo(c.blocks[:0], GeneralInfo{
		Type: t, Version: capabilityVersion, Ports: ports, DSN: dsn, MaxPacket: maxPacket,
		FMCapable: fmCapable, Multicast: t == DeviceSwitch,
		VendorID: 0x1A51_0001, // vendor/part id of the model
	})
	return nil
}

// Ports returns the device's port count.
func (c *ConfigSpace) Ports() int { return c.ports }

// Read returns count blocks starting at offset, as a PI-4 read would. It
// fails for out-of-range accesses or reads wider than MaxReadBlocks; the
// device then answers with a read completion with error.
func (c *ConfigSpace) Read(offset uint16, count uint8) ([]uint32, error) {
	return c.ReadInto(nil, offset, count)
}

// ReadInto is Read appending the blocks to dst, so a caller that keeps a
// buffer reads without allocating. On error dst is returned unchanged.
func (c *ConfigSpace) ReadInto(dst []uint32, offset uint16, count uint8) ([]uint32, error) {
	if count == 0 || count > MaxReadBlocks {
		return dst, fmt.Errorf("asi: read count %d out of range 1..%d", count, MaxReadBlocks)
	}
	end := int(offset) + int(count)
	if end > len(c.blocks) {
		return dst, fmt.Errorf("asi: read [%d,%d) beyond capability end %d", offset, end, len(c.blocks))
	}
	return append(dst, c.blocks[offset:end]...), nil
}

// Write stores data at offset. Only the event-route and ownership regions
// are writable; everything else is device-owned and a write there fails,
// producing a write completion with error.
func (c *ConfigSpace) Write(offset uint16, data []uint32) error {
	if len(data) == 0 || len(data) > MaxReadBlocks {
		return fmt.Errorf("asi: write of %d blocks out of range 1..%d", len(data), MaxReadBlocks)
	}
	lo := int(EventRouteOffset(c.ports))
	end := int(offset) + len(data)
	if int(offset) < lo || end > len(c.blocks) {
		return fmt.Errorf("asi: write [%d,%d) outside writable region [%d,%d)", offset, end, lo, len(c.blocks))
	}
	copy(c.blocks[offset:], data)
	return nil
}

// SetPortState updates a port's capability blocks; the device model calls
// this when a link trains or drops.
func (c *ConfigSpace) SetPortState(port int, info PortInfo) error {
	if port < 0 || port >= c.ports {
		return fmt.Errorf("asi: port %d out of range 0..%d", port, c.ports-1)
	}
	off := PortInfoOffset(port)
	AppendPortInfo(c.blocks[off:off], info) // in place: the blocks follow
	return nil
}

// AppendGeneralInfo appends the general-information blocks describing g
// to dst, as a device's capability holds them and ParseGeneralInfo reads
// them back.
func AppendGeneralInfo(dst []uint32, g GeneralInfo) []uint32 {
	var status uint32
	if g.FMCapable {
		status |= statusFMCapable
	}
	if g.Multicast {
		status |= statusMulticast
	}
	return append(dst,
		uint32(g.Type)<<24|uint32(g.Version)<<16|uint32(g.Ports)&0xffff,
		uint32(g.DSN>>32), uint32(g.DSN),
		uint32(g.MaxPacket), status, g.VendorID)
}

// ParseGeneralInfo decodes the general-information region as returned by a
// PI-4 read of GeneralInfoBlocks blocks at GeneralInfoOffset. It refuses
// what no capability holds: an unknown device type or version, or a
// status bit this layout does not define.
func ParseGeneralInfo(blocks []uint32) (GeneralInfo, error) {
	var g GeneralInfo
	if len(blocks) < int(GeneralInfoBlocks) {
		return g, fmt.Errorf("asi: general info needs %d blocks, got %d", GeneralInfoBlocks, len(blocks))
	}
	g.Type = DeviceType(blocks[0] >> 24)
	g.Version = uint8(blocks[0] >> 16)
	g.Ports = int(blocks[0] & 0xffff)
	g.DSN = DSN(uint64(blocks[1])<<32 | uint64(blocks[2]))
	g.MaxPacket = int(blocks[3])
	g.FMCapable = blocks[4]&statusFMCapable != 0
	g.Multicast = blocks[4]&statusMulticast != 0
	g.VendorID = blocks[5]
	if g.Type != DeviceSwitch && g.Type != DeviceEndpoint {
		return g, fmt.Errorf("asi: general info has invalid device type %d", g.Type)
	}
	if g.Version != capabilityVersion {
		return g, fmt.Errorf("asi: unsupported capability version %d", g.Version)
	}
	if reserved := blocks[4] &^ (statusFMCapable | statusMulticast); reserved != 0 {
		return g, fmt.Errorf("asi: general info sets reserved status bits %#x", reserved)
	}
	return g, nil
}

// portInfoFields are the bits of a port's first block that PortInfo
// carries: active (bit 0), width (4-7) and speed in tenths of Gb/s (8-15).
// The rest of it, and the port's second block, are reserved.
const portInfoFields = 0xfff1

// AppendPortInfo appends the PortInfoBlocks blocks describing one port to
// dst, as ParsePortInfo reads them back.
func AppendPortInfo(dst []uint32, p PortInfo) []uint32 {
	var w uint32
	if p.Active {
		w |= 1
	}
	w |= (uint32(p.SpeedGbps*10) & 0xff) << 8
	w |= (uint32(p.Width) & 0xf) << 4
	return append(dst, w, 0)
}

// ParsePortInfo decodes one port's blocks as returned by a PI-4 read of
// PortInfoBlocks blocks at PortInfoOffset(port). It refuses blocks with
// reserved bits set.
func ParsePortInfo(blocks []uint32) (PortInfo, error) {
	var p PortInfo
	if len(blocks) < int(PortInfoBlocks) {
		return p, fmt.Errorf("asi: port info needs %d blocks, got %d", PortInfoBlocks, len(blocks))
	}
	w := blocks[0]
	if w&^portInfoFields != 0 || blocks[1] != 0 {
		return p, fmt.Errorf("asi: port info sets reserved bits: %#08x %#08x", w&^portInfoFields, blocks[1])
	}
	p.Active = w&1 != 0
	p.SpeedGbps = float64((w>>8)&0xff) / 10
	p.Width = int((w >> 4) & 0xf)
	return p, nil
}

// eventRouteValid marks a programmed event route in the region's third
// block, whose low byte is the turn pointer and whose other bits are
// reserved.
const eventRouteValid = 1 << 31

// EncodeEventRoute packs a turn pool and pointer into the writable
// event-route blocks. The FM writes this during path distribution so that
// devices can source PI-5 packets toward it.
func EncodeEventRoute(pool uint64, ptr uint8) []uint32 {
	return []uint32{uint32(pool >> 32), uint32(pool), uint32(ptr) | eventRouteValid}
}

// DecodeEventRoute unpacks the event-route blocks. valid is false until
// the FM has programmed the route, and for blocks EncodeEventRoute never
// writes: a third block with reserved bits set.
func DecodeEventRoute(blocks []uint32) (pool uint64, ptr uint8, valid bool) {
	if len(blocks) < int(EventRouteBlocks) || blocks[2]&^(eventRouteValid|0xff) != 0 {
		return 0, 0, false
	}
	valid = blocks[2]&eventRouteValid != 0
	pool = uint64(blocks[0])<<32 | uint64(blocks[1])
	ptr = uint8(blocks[2])
	return pool, ptr, valid
}
