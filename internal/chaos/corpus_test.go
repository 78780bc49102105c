package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/corpus.golden")

// TestCorpus is the committed-corpus regression gate. For every file
// under testdata/corpus it checks four things: the file is byte-for-byte
// the canonical encoding of the generator's scenario (same seed =>
// byte-identical scenario), two in-process executions produce identical
// metrics fingerprints, the oracle's verdict is clean both times, and
// the run and database fingerprints equal the ones committed in
// testdata/corpus.golden — the absolute referee: a refactor that
// reorders one random draw or one scheduled event moves them. Refresh
// deliberately with `go test ./internal/chaos -run TestCorpus -update`.
func TestCorpus(t *testing.T) {
	scenarios := CorpusScenarios()
	if len(scenarios) < 10 {
		t.Fatalf("corpus has %d scenarios, want >= 10", len(scenarios))
	}
	byName := map[string]Scenario{}
	for _, sc := range scenarios {
		byName[CorpusFilename(sc)] = sc
	}
	dir := filepath.Join("testdata", "corpus")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(scenarios) {
		t.Errorf("testdata/corpus has %d files, CorpusScenarios %d; regenerate with asichaos -emit-corpus",
			len(files), len(scenarios))
	}
	goldenPath := filepath.Join("testdata", "corpus.golden")
	golden := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			name, fps, _ := strings.Cut(line, " ")
			golden[name] = fps
		}
	}
	var regenerated strings.Builder
	for _, fe := range files {
		fe := fe
		t.Run(fe.Name(), func(t *testing.T) {
			sc, ok := byName[fe.Name()]
			if !ok {
				t.Fatalf("no generated scenario for corpus file %s", fe.Name())
			}
			disk, err := os.ReadFile(filepath.Join(dir, fe.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(disk, sc.EncodeJSON()) {
				t.Fatalf("corpus file %s is not the generator's canonical encoding; regenerate with asichaos -emit-corpus", fe.Name())
			}
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			opt := Options{Telemetry: true, Spans: true}
			a, err := Execute(sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Execute(sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("two executions fingerprint %#x and %#x", a.Fingerprint, b.Fingerprint)
			}
			if err := (Oracle{}).Check(a); err != nil {
				t.Errorf("oracle: %v", err)
			}
			if err := (Oracle{}).Check(b); err != nil {
				t.Errorf("oracle (second run): %v", err)
			}
			fps := fmt.Sprintf("run=%#016x db=%#016x", a.Fingerprint, a.DBFingerprint)
			fmt.Fprintf(&regenerated, "%s %s\n", fe.Name(), fps)
			if !*updateGolden && golden[fe.Name()] != fps {
				t.Errorf("fingerprints %s, %s has %q", fps, goldenPath, golden[fe.Name()])
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(regenerated.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
