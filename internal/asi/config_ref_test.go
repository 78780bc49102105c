package asi

import (
	"fmt"
	"math/rand"
	"testing"
)

// refConfig is the reference ConfigSpace is compared against: its own
// zero-filled array, every access a plain slice operation.
type refConfig struct {
	blocks []uint32
	ports  int
}

func newRefConfig(from *ConfigSpace) *refConfig {
	c := &refConfig{blocks: make([]uint32, HeadBlocks(from.Ports())), ports: from.Ports()}
	head, _ := from.Read(GeneralInfoOffset, GeneralInfoBlocks)
	copy(c.blocks, head)
	return c
}

func (c *refConfig) Read(offset uint16, count uint8) ([]uint32, error) {
	if count == 0 || count > MaxReadBlocks {
		return nil, fmt.Errorf("asi: read count %d out of range 1..%d", count, MaxReadBlocks)
	}
	end := int(offset) + int(count)
	if end > len(c.blocks) {
		return nil, fmt.Errorf("asi: read [%d,%d) beyond capability end %d", offset, end, len(c.blocks))
	}
	return append([]uint32(nil), c.blocks[offset:end]...), nil
}

func (c *refConfig) Write(offset uint16, data []uint32) error {
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

func (c *refConfig) SetPortState(port int, info PortInfo) error {
	if port < 0 || port >= c.ports {
		return fmt.Errorf("asi: port %d out of range 0..%d", port, c.ports-1)
	}
	var w uint32
	if info.Active {
		w |= 1
	}
	w |= (uint32(info.SpeedGbps*10) & 0xff) << 8
	w |= (uint32(info.Width) & 0xf) << 4
	c.blocks[PortInfoOffset(port)] = w
	return nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestConfigSpaceMatchesReference runs random Read, Write and
// SetPortState sequences — in range, out of range, straddling the
// writable regions, straddling the capability end — against ConfigSpace
// and the reference. Every returned block and every error text must
// agree, and a final sweep reads the whole capability back from both.
func TestConfigSpaceMatchesReference(t *testing.T) {
	devices := []struct {
		typ   DeviceType
		ports int
	}{
		{DeviceEndpoint, 1}, {DeviceSwitch, 2}, {DeviceSwitch, 16}, {DeviceSwitch, 64},
	}
	for _, dev := range devices {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			size := HeadBlocks(dev.ports)
			// Every other seed carves the store from a slab, as a fabric
			// does. Its stale contents must never show, and the neighbour
			// after it must stay untouched.
			var store, guard []uint32
			if seed%2 == 0 {
				slab := make([]uint32, size+4)
				for i := range slab {
					slab[i] = 0xDEADBEEF
				}
				store, guard = slab[:0:size], slab[size:]
			}
			got := new(ConfigSpace)
			if err := got.Init(dev.typ, DSN(0xA5100000+seed), dev.ports, 2176, dev.typ == DeviceEndpoint, store); err != nil {
				t.Fatal(err)
			}
			ref := newRefConfig(got)
			// Offsets cluster around the boundaries that matter.
			offset := func() uint16 {
				edges := []int{0, int(EventRouteOffset(dev.ports)), int(OwnerOffset(dev.ports)), size}
				return uint16(max(0, edges[rng.Intn(len(edges))]+rng.Intn(2*MaxReadBlocks+1)-MaxReadBlocks))
			}
			for step := 0; step < 400; step++ {
				switch rng.Intn(3) {
				case 0:
					off, n := offset(), uint8(rng.Intn(MaxReadBlocks+2))
					blocks, gerr := got.Read(off, n)
					want, werr := ref.Read(off, n)
					if !sameErr(gerr, werr) || fmt.Sprint(blocks) != fmt.Sprint(want) {
						t.Fatalf("%v/%d ports seed %d step %d: Read(%d,%d) = %v, %v; reference %v, %v",
							dev.typ, dev.ports, seed, step, off, n, blocks, gerr, want, werr)
					}
				case 1:
					off := offset()
					data := make([]uint32, rng.Intn(MaxReadBlocks+2))
					for i := range data {
						data[i] = rng.Uint32()
					}
					if gerr, werr := got.Write(off, data), ref.Write(off, data); !sameErr(gerr, werr) {
						t.Fatalf("%v/%d ports seed %d step %d: Write(%d, %d blocks) = %v; reference %v",
							dev.typ, dev.ports, seed, step, off, len(data), gerr, werr)
					}
				case 2:
					port := rng.Intn(dev.ports+2) - 1
					info := PortInfo{Active: rng.Intn(2) == 0, SpeedGbps: 2.0, Width: rng.Intn(4) + 1}
					if gerr, werr := got.SetPortState(port, info), ref.SetPortState(port, info); !sameErr(gerr, werr) {
						t.Fatalf("%v/%d ports seed %d step %d: SetPortState(%d) = %v; reference %v",
							dev.typ, dev.ports, seed, step, port, gerr, werr)
					}
				}
			}
			for off := 0; off < size; off++ {
				blocks, gerr := got.Read(uint16(off), 1)
				want, werr := ref.Read(uint16(off), 1)
				if gerr != nil || werr != nil || blocks[0] != want[0] {
					t.Fatalf("%v/%d ports seed %d: block %d = %v (%v), reference %v (%v)",
						dev.typ, dev.ports, seed, off, blocks, gerr, want, werr)
				}
			}
			for _, w := range guard {
				if w != 0xDEADBEEF {
					t.Fatalf("%v/%d ports seed %d: config space wrote past its share of the slab", dev.typ, dev.ports, seed)
				}
			}
		}
	}
}
