// Command asibench regenerates every table and figure of the paper's
// evaluation (section 4) plus the future-work extension experiments, as
// aligned text tables, CSV, or one machine-readable JSON document.
//
// Usage:
//
//	asibench                  # run everything
//	asibench -exp fig6        # one experiment (see -list)
//	asibench -seeds 8         # more repetitions per change scenario
//	asibench -csv             # machine-readable output
//	asibench -json            # one run-report JSON envelope on stdout
//	asibench -debug :6060     # serve net/http/pprof and expvar while running
package main

import (
	_ "expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/experiment"
)

func main() {
	var common cli.Common
	exp := flag.String("exp", "all", "experiment id to run (see -list), or 'all'")
	seeds := flag.Int("seeds", 4, "repetitions of each change scenario")
	common.RegisterWorkers(flag.CommandLine)
	common.RegisterJSON(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := flag.String("o", "", "also write one .txt (and .csv) file per report into this directory")
	list := flag.Bool("list", false, "list experiment ids and exit")
	debugAddr := flag.String("debug", "", "serve net/http/pprof and expvar on this address while running (e.g. :6060)")
	flag.Parse()
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	jsonOut := &common.JSON

	if *list {
		for _, r := range experiment.Runners() {
			fmt.Printf("%-16s %s\n", r.ID, r.Desc)
		}
		return
	}

	if *debugAddr != "" {
		// DefaultServeMux already carries /debug/pprof/ (net/http/pprof)
		// and /debug/vars (expvar) from their package imports.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/debug/pprof and /debug/vars\n", *debugAddr)
	}

	opts := experiment.Opts{Seeds: *seeds, Workers: common.Workers}
	runners := experiment.Runners()
	if *exp != "all" {
		r, err := experiment.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiment.Runner{r}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	var all []experiment.Report
	for _, r := range runners {
		// Each experiment's wall time goes to stderr, which keeps stdout
		// machine-readable under -csv and -json and a function of the
		// seeds alone.
		start := time.Now()
		reports := r.Run(opts)
		fmt.Fprintf(os.Stderr, "%-16s %8.2fs wall\n", r.ID, time.Since(start).Seconds())
		for _, rep := range reports {
			var err error
			switch {
			case *jsonOut:
				all = append(all, rep)
			case *csv:
				fmt.Printf("# %s: %s\n", rep.ID, rep.Title)
				err = rep.CSV(os.Stdout)
				fmt.Println()
			default:
				err = rep.Render(os.Stdout)
			}
			if err == nil && *outDir != "" {
				err = writeReportFiles(*outDir, rep)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *jsonOut {
		if err := experiment.NewReportsJSON(all).JSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeReportFiles persists one report as <dir>/<id>.txt and .csv.
func writeReportFiles(dir string, rep experiment.Report) error {
	txt, err := os.Create(filepath.Join(dir, rep.ID+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := rep.Render(txt); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, rep.ID+".csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	return rep.CSV(csvf)
}
