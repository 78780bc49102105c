package experiment

import (
	"bytes"
	"os"
	"testing"
)

// TestMultiManagerTablesMatchCommittedResults renders the three
// experiments that attach further managers or a traffic generator to the
// rig's fabric and compares each with its section of the committed
// `asibench -seeds 4` run — the same referee as `make results-check`,
// for the tables that are single-seed and take well under a second, so
// Tier-1 catches an assembly change that reorders one event.
func TestMultiManagerTablesMatchCommittedResults(t *testing.T) {
	committed, err := os.ReadFile("../../results/asibench-seeds4.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []Report{ExtDistributed(), ExtTraffic(), ExtFailover()} {
		var got bytes.Buffer
		if err := rep.Render(&got); err != nil {
			t.Fatal(err)
		}
		// A rendered report runs from its "== id:" banner through the
		// blank line that closes it.
		start := bytes.Index(committed, []byte("== "+rep.ID+":"))
		if start < 0 {
			t.Errorf("%s: no section in results/asibench-seeds4.txt", rep.ID)
			continue
		}
		want := committed[start:]
		if end := bytes.Index(want, []byte("\n\n")); end >= 0 {
			want = want[:end+2]
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from results/asibench-seeds4.txt:\n--- got\n%s--- want\n%s", rep.ID, got.Bytes(), want)
		}
	}
}
