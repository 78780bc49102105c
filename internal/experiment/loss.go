package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
)

// ExtLoss sweeps injected per-link packet loss against the three paper
// discovery algorithms and reports how the retry policy holds discovery
// together: time, retry volume, abandoned requests, and topology
// completeness (devices found relative to the lossless ground truth).
// The paper assumes a lossless fabric; this experiment quantifies what
// that assumption hides.
func ExtLoss(seeds, workers int) Report {
	const topoName = "4x4 mesh"
	losses := []float64{0, 1e-4, 1e-3, 1e-2}
	const maxRetries = 3

	var cfgs []Config
	for _, loss := range losses {
		for _, k := range core.PaperKinds() {
			for seed := 1; seed <= seeds; seed++ {
				cfgs = append(cfgs, Config{
					Topology:   topoName,
					Algorithm:  k,
					Seed:       uint64(seed),
					Faults:     fabric.Uniform(loss),
					MaxRetries: maxRetries,
				})
			}
		}
	}
	outs := RunConfigAll(cfgs, workers)

	r := Report{
		ID:     "ext-loss",
		Title:  fmt.Sprintf("Discovery under per-link packet loss (%s, MaxRetries=%d)", topoName, maxRetries),
		Header: []string{"Loss", "Algorithm", "Avg time (s)", "Avg retries", "Gave up", "Timeouts", "Completeness"},
		Notes: []string{
			"loss is the per-link-traversal drop probability; every management packet is exposed on every hop",
			"completeness = discovered devices / devices physically reachable from the FM, averaged over seeds",
			"seeded fault injection: identical seeds replay identical drop sequences",
		},
	}
	i := 0
	for _, loss := range losses {
		for _, k := range core.PaperKinds() {
			var (
				n               int
				sumTime         float64
				retries, gaveUp int
				timeouts        int
				sumComplete     float64
				failed          bool
			)
			for seed := 1; seed <= seeds; seed++ {
				out := outs[i]
				i++
				if out.Err != nil {
					failed = true
					continue
				}
				n++
				sumTime += out.Result.Duration.Seconds()
				retries += out.Result.Retries
				gaveUp += out.Result.GaveUp
				timeouts += out.Result.TimedOut
				sumComplete += float64(out.Result.Devices) / float64(out.ActiveNodes)
			}
			label := "0"
			if loss > 0 {
				label = fmt.Sprintf("%.0e", loss)
			}
			row := []string{label, k.String()}
			if n == 0 || failed {
				row = append(row, "ERR", "ERR", "ERR", "ERR", "ERR")
			} else {
				row = append(row,
					fmt.Sprintf("%.6f", sumTime/float64(n)),
					fmt.Sprintf("%.2f", float64(retries)/float64(n)),
					fmt.Sprint(gaveUp),
					fmt.Sprint(timeouts),
					fmt.Sprintf("%.2f%%", 100*sumComplete/float64(n)),
				)
			}
			r.Rows = append(r.Rows, row)
		}
	}
	return r
}
