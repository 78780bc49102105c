package experiment

import (
	"bytes"
	"os"
	"sync"
	"testing"
)

// TestReportsMatchCommittedResults is the absolute referee for the
// simulation. It renders committedReports, every report of every
// registered experiment at asibench's default scale, and requires the
// whole to equal the committed `asibench -seeds 4` run byte for byte.
// The fingerprint suites only compare a run with itself; this
// catches a change that reorders one random draw. It is skipped under
// -race, which would take minutes over the 10k-switch ext-scale rows.
func TestReportsMatchCommittedResults(t *testing.T) {
	if raceEnabled {
		t.Skip("the full experiment set at four seeds is too slow under -race")
	}
	const committed = "../../results/asibench-seeds4.txt"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, reports := range committedReports() {
		for _, rep := range reports {
			if err := rep.Render(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gs, ws := sections(got.Bytes()), sections(want)
	for i := 0; i < len(gs) || i < len(ws); i++ {
		var g, w []byte
		if i < len(gs) {
			g = gs[i]
		}
		if i < len(ws) {
			w = ws[i]
		}
		if !bytes.Equal(g, w) {
			name := g
			if len(name) == 0 {
				name = w
			}
			name, _, _ = bytes.Cut(name, []byte("\n"))
			t.Fatalf("section %d (%s) differs from %s; after an intended change, re-pin with\n"+
				"\tgo run ./cmd/asibench -seeds 4 > results/asibench-seeds4.txt\n--- got\n%s--- want\n%s",
				i+1, name, committed, g, w)
		}
	}
}

// committedReports runs every registered experiment once at asibench's
// default scale (Opts{Seeds: 4}), in asibench's order, one entry per
// runner: TestReportsMatchCommittedResults renders them, and
// TestAllRunnersSmoke checks them outside -race.
var committedReports = sync.OnceValue(func() [][]Report {
	var all [][]Report
	for _, r := range Runners() {
		all = append(all, r.Run(Opts{Seeds: 4}))
	}
	return all
})

// sections splits a rendered run at its "== id: title ==" banners.
func sections(out []byte) [][]byte {
	var s [][]byte
	for len(out) > 0 {
		end := bytes.Index(out[1:], []byte("\n== "))
		if end < 0 {
			return append(s, out)
		}
		s = append(s, out[:end+2])
		out = out[end+2:]
	}
	return s
}
