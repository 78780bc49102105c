package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runEnv is the host as one run found it.
type runEnv struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1"`
	// Noisy flags a run started while the 1-minute load average already
	// exceeded the core count.
	Noisy bool `json:"noisy"`
}

func readEnv() runEnv {
	e := runEnv{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	e.Noisy = e.Load1 > float64(e.NumCPU)
	return e
}

// runAll runs every workload untraced, then traced, each in a process of
// its own, and prints every metric by name. It reports whether every run
// was correct with no failed operation.
func runAll(o options, scale, dir string, runs int, outFile string, update bool) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var set runSet
	if outFile != "" {
		if prev, err := loadRunSet(outFile); err == nil {
			set = prev
		} else if !os.IsNotExist(err) {
			return false, err
		}
	}
	ok = true
	for i := 0; i < runs; i++ {
		seed := o.seed + uint64(i)
		for _, w := range workloads {
			for _, trace := range []int{0, 1} {
				env := readEnv()
				args := []string{
					"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace), "-scale", scale, "-dir", dir,
				}
				if update && trace == 0 {
					args = append(args, "-update-golden")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var line resultLine
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					return false, fmt.Errorf("%s (trace %d): result line: %w", w.name, trace, err)
				}
				noisy := ""
				if env.Noisy {
					noisy = " [noisy: load " + strconv.FormatFloat(env.Load1, 'f', 2, 64) + "]"
				}
				fmt.Printf("%s  seed %d  %s  ops %d  failed %d  correct %v%s\n", w.name, seed,
					runKind(trace == 1),
					line.Attempted, line.Failed, line.Correct, noisy)
				printMetrics(line, trace == 1)
				if !line.Correct || line.Failed > 0 {
					ok = false
				}
				set.Runs = append(set.Runs, runRecord{Workload: w.name, Seed: seed, Trace: trace == 1, Env: env, Result: line})
			}
		}
	}
	if len(set.Runs) > 0 && set.Runs[0].Env.CPUModel != "" {
		e := set.Runs[len(set.Runs)-1].Env
		fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, %s; subscribers over HTTP used the loopback interface, not a real link\n",
			e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel)
	}
	if outFile != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}
