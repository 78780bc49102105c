package span_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/span"
	"repro/internal/topo"
)

// chromeSeeds records a traced discovery of the 2x2 mesh and renders
// prefixes of its span log, each a valid log of its own, plus one whose
// tracer dropped spans: small documents the fuzzer minimises quickly.
func chromeSeeds(f *testing.F) [][]byte {
	tp, err := topo.ByName("2x2 mesh")
	if err != nil {
		f.Fatal(err)
	}
	r, err := rig.New(tp, rig.Config{Seed: 1, Spans: true, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		f.Fatal(err)
	}
	r.Manager.StartDiscovery()
	r.Run()
	l := r.Spans.Log()
	var seeds [][]byte
	for _, cut := range []span.Log{{Spans: l.Spans[:1]}, {Spans: l.Spans[:8]}, {Spans: l.Spans[:12], Dropped: 3}} {
		var b bytes.Buffer
		if err := span.WriteChrome(&b, cut); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b.Bytes())
	}
	return seeds
}

// FuzzChromeRoundTrip holds the Chrome trace pair to the fuzz wall's
// rule: a log ReadChrome accepts writes back (WriteChrome) into a
// document that reads as the same Log.
func FuzzChromeRoundTrip(f *testing.F) {
	for _, doc := range chromeSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		l, err := span.ReadChrome(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := span.WriteChrome(&b, l); err != nil {
			t.Fatalf("WriteChrome of a log ReadChrome accepted: %v", err)
		}
		again, err := span.ReadChrome(&b)
		if err != nil {
			t.Fatalf("the written document does not read back: %v\n%s", err, b.Bytes())
		}
		if !reflect.DeepEqual(again, l) {
			t.Fatalf("the written document reads as\n%+v\nnot\n%+v", again, l)
		}
	})
}
