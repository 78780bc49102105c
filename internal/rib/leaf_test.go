package rib

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asi"
	"repro/internal/fib"
)

// marshalRef is the referee of every typed leaf encoder: what
// encoding/json writes for the same value.
func marshalRef(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	return b
}

// checkLeaf compares one encoded leaf with the referee's bytes and holds
// it to its own exact-size slice.
func checkLeaf(t *testing.T, name string, got json.RawMessage, v any) {
	t.Helper()
	if want := marshalRef(t, v); !bytes.Equal(got, want) {
		t.Errorf("%s: typed encoder wrote\n  %s\njson.Marshal writes\n  %s", name, got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("%s: leaf of %d bytes holds a %d-byte slice", name, len(got), cap(got))
	}
}

func hops(n int, ports uint16, in, out uint8) []fib.Hop {
	hs := make([]fib.Hop, n)
	for i := range hs {
		hs[i] = fib.Hop{Ports: ports, In: in, Out: out}
	}
	return hs
}

// Every typed leaf encoder writes exactly json.Marshal's bytes, on the
// edge cases of the served values — nil and empty hop lists (null vs
// []), a 14-hop route, the largest DSN, ports 0 and 255 — and on random
// values.
func TestLeafEncodersMatchJSONMarshal(t *testing.T) {
	const maxDSN = asi.DSN(math.MaxUint64)
	for _, n := range []nodeLeaf{
		{DSN: 0, Type: "switch", Ports: 0},
		{DSN: 1, Type: "endpoint", Ports: 1},
		{DSN: maxDSN, Type: "switch", Ports: 255},
		{DSN: maxDSN, Type: "endpoint", Ports: 256},
	} {
		checkLeaf(t, "node", nodeJSON(n), n)
	}
	for _, l := range []linkLeaf{
		{},
		{A: 1, APort: 0, B: 2, BPort: 255},
		{A: maxDSN, APort: 255, B: maxDSN, BPort: 255},
	} {
		checkLeaf(t, "link", linkJSON(l), l)
	}
	for name, r := range map[string]fib.Route{
		"nil hops":       {DSN: 7, ArrivalPort: 0},
		"empty hops":     {DSN: 7, Hops: []fib.Hop{}, ArrivalPort: 3},
		"one hop":        {DSN: 9, Hops: hops(1, 8, 0, 7), ArrivalPort: 2},
		"14 hops":        {DSN: maxDSN, Hops: hops(14, 255, 0, 254), ArrivalPort: 255},
		"64 hops":        {DSN: maxDSN, Hops: hops(64, 255, 255, 255), ArrivalPort: 255},
		"port 0 and 255": {DSN: 1, Hops: []fib.Hop{{Ports: 256, In: 0, Out: 255}, {Ports: 2, In: 1, Out: 0}}},
		"widest hop":     {DSN: 1, Hops: []fib.Hop{{Ports: math.MaxUint16, In: math.MaxUint8, Out: math.MaxUint8}}},
	} {
		checkLeaf(t, "route/"+name, routeJSON(r), r)
	}
	for _, e := range []fib.EventRoute{
		{},
		{DSN: maxDSN, Pool: math.MaxUint64, Ptr: 255},
		{DSN: 3, Pool: 0x8000000000000001, Ptr: 64},
	} {
		checkLeaf(t, "event route", eventRouteJSON(e), e)
	}

	rng := rand.New(rand.NewSource(1))
	dsn := func() asi.DSN {
		if rng.Intn(4) == 0 {
			return asi.DSN(rng.Intn(1000))
		}
		return asi.DSN(rng.Uint64())
	}
	port := func() int { return rng.Intn(512) - 128 } // the encoders must not assume a port range
	for i := 0; i < 2000; i++ {
		typ := "endpoint"
		if rng.Intn(2) == 0 {
			typ = "switch"
		}
		n := nodeLeaf{DSN: dsn(), Type: typ, Ports: port()}
		checkLeaf(t, "random node", nodeJSON(n), n)
		l := linkLeaf{A: dsn(), APort: port(), B: dsn(), BPort: port()}
		checkLeaf(t, "random link", linkJSON(l), l)
		r := fib.Route{DSN: dsn(), ArrivalPort: port()}
		if k := rng.Intn(40) - 1; k >= 0 {
			r.Hops = make([]fib.Hop, k)
			for j := range r.Hops {
				// A hop's fields take every value of their types.
				r.Hops[j] = fib.Hop{Ports: uint16(rng.Intn(1 << 16)), In: uint8(rng.Intn(256)), Out: uint8(rng.Intn(256))}
			}
		}
		checkLeaf(t, "random route", routeJSON(r), r)
		e := fib.EventRoute{DSN: dsn(), Pool: rng.Uint64(), Ptr: uint8(rng.Intn(256))}
		checkLeaf(t, "random event route", eventRouteJSON(e), e)
	}
}
