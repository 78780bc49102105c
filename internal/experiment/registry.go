package experiment

import "fmt"

// Opts tunes experiment scale.
type Opts struct {
	// Seeds is the number of repetitions of each change scenario (the
	// paper: "this experiment has been repeated several times for each
	// topology").
	Seeds int
	// Workers bounds the simulation worker pool; <= 0 means GOMAXPROCS.
	Workers int
}

// Runner is a registered experiment.
type Runner struct {
	// ID is the key used by cmd/asibench -exp.
	ID string
	// Desc summarizes what the experiment reproduces.
	Desc string
	// Run executes the experiment and returns its reports.
	Run func(o Opts) []Report
}

// Runners returns every registered experiment in presentation order.
func Runners() []Runner {
	return []Runner{
		{"table1", "Table 1: topologies evaluated", func(Opts) []Report {
			return []Report{Table1Report()}
		}},
		{"fig4", "Fig. 4: avg PI-4 processing time at the FM vs network size", func(o Opts) []Report {
			return []Report{Fig4(o.Workers)}
		}},
		{"fig6", "Fig. 6: discovery time after a change (per run and averaged)", func(o Opts) []Report {
			return Fig6(o.Seeds, o.Workers)
		}},
		{"fig7a", "Fig. 7(a): FM packet-processing timeline on the 3x3 mesh", func(Opts) []Report {
			return []Report{Fig7a()}
		}},
		{"fig7b", "Fig. 7(b): idealized serial vs parallel per-packet behaviour", func(Opts) []Report {
			return []Report{Fig7b()}
		}},
		{"fig8", "Fig. 8: discovery time vs FM and device processing factors", func(o Opts) []Report {
			return Fig8(o.Workers)
		}},
		{"fig9", "Fig. 9: discovery time vs active nodes at three factor combinations", func(o Opts) []Report {
			return Fig9(o.Seeds, o.Workers)
		}},
		{"ext-partial", "Extension: partial rediscovery of the affected region", func(o Opts) []Report {
			return []Report{ExtPartial(o.Seeds, o.Workers)}
		}},
		{"ext-distributed", "Extension: collaborative multi-FM discovery", func(Opts) []Report {
			return []Report{ExtDistributed()}
		}},
		{"ext-traffic", "Extension: discovery under background application traffic", func(Opts) []Report {
			return []Report{ExtTraffic()}
		}},
		{"ext-loss", "Extension: discovery under injected packet loss, with timeout retries", func(o Opts) []Report {
			return []Report{ExtLoss(o.Seeds, o.Workers)}
		}},
		{"ext-failover", "Extension: primary FM failure and secondary takeover", func(Opts) []Report {
			return []Report{ExtFailover()}
		}},
		{"ext-churn", "Extension: discovery under scripted churn (chaos scenarios)", func(o Opts) []Report {
			return []Report{ExtChurn(o.Seeds)}
		}},
		{"ext-scale", "Extension: audited discovery at 100-10k switches across all topology families", func(o Opts) []Report {
			return []Report{ExtScale(o.Workers)}
		}},
	}
}

// ByID finds a registered experiment.
func ByID(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiment: unknown id %q", id)
}
