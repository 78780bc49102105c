package asi_test

import (
	"encoding/binary"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

// The fuzz wall on the configuration-space decoders. Each target reads
// arbitrary bytes as big-endian blocks, through a slice whose capacity
// ends at its length so any read past the blocks panics, and checks that
// what the decoder accepts is exactly what its encoder writes: decode then
// encode gives the blocks back, and decoding that again gives the same
// value. Seeds are regions of the config spaces of the Table 1 fabrics
// after a discovery has programmed every event route.

// blocksOf reads b as big-endian blocks, nil when b is not whole blocks.
func blocksOf(b []byte) []uint32 {
	if len(b)%4 != 0 {
		return nil
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return out
}

// bytesOf writes blocks as big-endian bytes.
func bytesOf(blocks []uint32) []byte {
	b := make([]byte, 0, 4*len(blocks))
	for _, w := range blocks {
		b = binary.BigEndian.AppendUint32(b, w)
	}
	return b
}

// regionSeeds are config-space regions of real devices.
type regionSeeds struct{ general, ports, eventRoutes [][]byte }

var tableOne = sync.OnceValues(func() (regionSeeds, error) {
	var s regionSeeds
	seen := map[string]bool{}
	add := func(to *[][]byte, blocks []uint32) {
		if b := bytesOf(blocks); !seen[string(b)] {
			seen[string(b)] = true
			*to = append(*to, b)
		}
	}
	for _, spec := range topo.Table1() {
		r, err := rig.New(spec.Build(), rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
		if err != nil {
			return s, err
		}
		if err := r.Bootstrap(); err != nil {
			return s, err
		}
		devs := r.Fabric.Devices()
		// The FM's own endpoint (no event route), a device midway and the
		// last one built.
		for _, d := range []int{int(r.Topo.Endpoints()[0]), len(devs) / 2, len(devs) - 1} {
			cfg := devs[d].Config
			read := func(off uint16, n uint8) []uint32 {
				b, err := cfg.Read(off, n)
				if err != nil {
					panic(err)
				}
				return b
			}
			add(&s.general, read(asi.GeneralInfoOffset, asi.GeneralInfoBlocks))
			for p := 0; p < cfg.Ports(); p++ {
				add(&s.ports, read(asi.PortInfoOffset(p), asi.PortInfoBlocks))
			}
			add(&s.eventRoutes, read(asi.EventRouteOffset(cfg.Ports()), asi.EventRouteBlocks))
		}
	}
	return s, nil
})

// seed adds one region kind's seeds to a fuzz target.
func seed(f *testing.F, pick func(regionSeeds) [][]byte) {
	s, err := tableOne()
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range pick(s) {
		f.Add(b)
	}
}

func FuzzParseGeneralInfo(f *testing.F) {
	seed(f, func(s regionSeeds) [][]byte { return s.general })
	f.Fuzz(func(t *testing.T, b []byte) {
		blocks := blocksOf(b)
		g, err := asi.ParseGeneralInfo(slices.Clip(blocks))
		if err != nil {
			return
		}
		again := asi.AppendGeneralInfo(nil, g)
		if !slices.Equal(again, blocks[:asi.GeneralInfoBlocks]) {
			t.Fatalf("decode then encode changed the general information:\n in  %08x\n out %08x", blocks, again)
		}
		if back, err := asi.ParseGeneralInfo(again); err != nil || back != g {
			t.Fatalf("%+v re-encodes to blocks that decode to %+v (%v)", g, back, err)
		}
	})
}

func FuzzParsePortInfo(f *testing.F) {
	seed(f, func(s regionSeeds) [][]byte { return s.ports })
	f.Fuzz(func(t *testing.T, b []byte) {
		blocks := blocksOf(b)
		p, err := asi.ParsePortInfo(slices.Clip(blocks))
		if err != nil {
			return
		}
		again := asi.AppendPortInfo(nil, p)
		if !slices.Equal(again, blocks[:asi.PortInfoBlocks]) {
			t.Fatalf("decode then encode changed the port information:\n in  %08x\n out %08x", blocks, again)
		}
		if back, err := asi.ParsePortInfo(again); err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("%+v re-encodes to blocks that decode to %+v (%v)", p, back, err)
		}
	})
}

func FuzzDecodeEventRoute(f *testing.F) {
	seed(f, func(s regionSeeds) [][]byte { return s.eventRoutes })
	f.Fuzz(func(t *testing.T, b []byte) {
		blocks := blocksOf(b)
		pool, ptr, valid := asi.DecodeEventRoute(slices.Clip(blocks))
		if !valid {
			return
		}
		again := asi.EncodeEventRoute(pool, ptr)
		if !slices.Equal(again, blocks[:asi.EventRouteBlocks]) {
			t.Fatalf("decode then encode changed the event route:\n in  %08x\n out %08x", blocks, again)
		}
		if p, q, ok := asi.DecodeEventRoute(again); !ok || p != pool || q != ptr {
			t.Fatalf("(%#x, %d) re-encodes to blocks that decode to (%#x, %d, %v)", pool, ptr, p, q, ok)
		}
	})
}
