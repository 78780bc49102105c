package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// goldenRec pins what must repeat exactly for a fixed seed: everything
// simulated over a run's fixed prefix of operations. A change meant only
// to speed up the host side must leave every field identical. Host-side
// counts (events processed, allocations) are deliberately absent.
type goldenRec struct {
	Ops int `json:"ops"`
	// SimMS holds every simulated-time metric, in simulated milliseconds.
	SimMS map[string]float64 `json:"sim_ms"`
	// Runs counts completed discovery runs, Packets the PI-4/PI-5 packets
	// the FM sent in them, Reseeds the seeds shifted because a change
	// went undetected, Generations the RIB generations installed.
	Runs        int    `json:"discovery_runs"`
	Packets     uint64 `json:"packets_sent"`
	Reseeds     int    `json:"reseeds"`
	Generations uint64 `json:"generations"`
	// Chain is an FNV-1a chain over each generation's fingerprint (churn
	// workloads) or over each run's simulated duration and packet count
	// (discover workloads), in order.
	Chain string `json:"chain"`
}

func (g goldenRec) encode() []byte {
	b, err := json.Marshal(g)
	if err != nil {
		panic(err) // plain data
	}
	return b
}

func chainHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// goldenFile is bench/golden/<workload>.json: one record per pinned seed.
type goldenFile struct {
	Seeds map[string]goldenRec `json:"seeds"`
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "golden", workload+".json")
}

func loadGolden(dir, workload string) (goldenFile, error) {
	var gf goldenFile
	b, err := os.ReadFile(goldenPath(dir, workload))
	if err != nil {
		return gf, err
	}
	return gf, json.Unmarshal(b, &gf)
}

// checkGolden compares a run's record with the pinned one for its seed.
// Seeds that are not pinned skip the comparison; every other check of the
// run still applies to them.
func checkGolden(dir string, o options, got goldenRec) error {
	gf, err := loadGolden(dir, o.workload)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	want, ok := gf.Seeds[strconv.FormatUint(o.seed, 10)]
	if !ok {
		return nil
	}
	if g, w := got.encode(), want.encode(); !bytes.Equal(g, w) {
		return fmt.Errorf("golden: simulated results drifted for seed %d:\n  got  %s\n  want %s", o.seed, g, w)
	}
	return nil
}

// updateGolden rewrites the pinned record of one seed.
func updateGolden(dir string, o options, got goldenRec) error {
	gf, err := loadGolden(dir, o.workload)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if gf.Seeds == nil {
		gf.Seeds = map[string]goldenRec{}
	}
	gf.Seeds[strconv.FormatUint(o.seed, 10)] = got
	b, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(dir, o.workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, o.workload), append(b, '\n'), 0o644)
}
