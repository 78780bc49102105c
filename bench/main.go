// Command bench is the repository's end-to-end benchmark: five workloads
// from cold discovery to bytes at a subscriber, each run once untraced
// for the end-to-end metrics and once with the benchmark's own span
// recorder on for the per-layer metrics. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains
// every metric and workload.
//
//	bash bench/run.sh --workload churn-serve --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh -all                        # every workload, both runs
//	bash bench/run.sh -all -runs 5 -out A.json    # a set of runs, for -compare
//	bash bench/run.sh -compare A.json B.json
//
// A single run prints its metrics by name and ends its standard output
// with one JSON object: correct, attempted, failed, metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var o options
	var traceFlag int
	var scale, dir, outFile string
	var all, compare, update, printContract bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed section measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs with the span recorder on and reports the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "workload sizes: full, or tiny (the tests' small fabrics)")
	flag.StringVar(&dir, "dir", "", "the benchmark's directory (default: bench, or . when run from inside it)")
	flag.BoolVar(&all, "all", false, "run every workload untraced then traced, check outputs, print every metric")
	flag.IntVar(&runs, "runs", 1, "with -all: runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&outFile, "out", "", "with -all: append the runs to this run-set file")
	flag.BoolVar(&compare, "compare", false, "compare two run-set files: -compare A.json B.json")
	flag.BoolVar(&printContract, "contract", false, "print BENCHMARK.json as the program defines it")
	flag.BoolVar(&update, "update-golden", false, "pin the run's simulated results as golden for its seed")
	flag.Parse()

	if dir == "" {
		dir = "bench"
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			dir = "."
		}
	}
	o.trace = traceFlag != 0
	o.tiny = scale == "tiny"
	o.outDir = filepath.Join(dir, "out")
	if scale != "full" && scale != "tiny" {
		fatal(2, fmt.Errorf("bench: unknown scale %q (full, tiny)", scale))
	}
	if o.seconds <= 0 {
		fatal(2, fmt.Errorf("bench: -seconds must be positive"))
	}
	// All load comes from this one process, on every core the host has.
	runtime.GOMAXPROCS(runtime.NumCPU())

	switch {
	case printContract:
		os.Stdout.Write(contract())
	case compare:
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		bad, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if bad {
			os.Exit(1)
		}
	case all:
		ok, err := runAll(o, scale, dir, runs, outFile, update)
		if err != nil {
			fatal(1, err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if o.workload == "" {
			fatal(2, fmt.Errorf("bench: name a -workload, or use -all or -compare"))
		}
		line, err := runOne(o, dir, update)
		if err != nil {
			fatal(1, err)
		}
		fmt.Printf("%s  seed %d  %s  ops %d  failed %d\n",
			o.workload, o.seed, runKind(o.trace), line.Attempted, line.Failed)
		printMetrics(line, o.trace)
		fmt.Println(line)
	}
}

// runOne executes one run and applies the golden check. Failed output
// checks are listed on standard error and reported as correct=false.
func runOne(o options, dir string, update bool) (resultLine, error) {
	out, err := run(o)
	if err != nil {
		return resultLine{}, err
	}
	if !o.tiny {
		if update {
			err = updateGolden(dir, o, out.golden)
		} else {
			err = checkGolden(dir, o, out.golden)
		}
		if err != nil {
			out.problem("%v", err)
		}
	}
	line := report(out, o.trace)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "FAILED CHECK:", p)
	}
	return line, nil
}

// runKind names which of a workload's two runs one is.
func runKind(trace bool) string {
	if trace {
		return "traced (per-layer)"
	}
	return "untraced (end-to-end)"
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
