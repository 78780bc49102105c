package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// section brackets the timed part of a run: the garbage collector runs
// and the allocator is read once before it and once after it, never
// inside it.
type section struct {
	start time.Time
	mem   runtime.MemStats
}

// sectionTotals is what a section measured.
type sectionTotals struct {
	wall       time.Duration
	allocBytes uint64
	numGC      uint32
	gcPause    time.Duration
}

func beginSection() *section {
	s := &section{}
	runtime.GC()
	runtime.ReadMemStats(&s.mem)
	s.start = time.Now()
	return s
}

func (s *section) end() sectionTotals {
	wall := time.Since(s.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sectionTotals{
		wall:       wall,
		allocBytes: m.TotalAlloc - s.mem.TotalAlloc,
		numGC:      m.NumGC - s.mem.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs - s.mem.PauseTotalNs),
	}
}

// probeShare is the last part of a traced churn run, in which probe
// spans follow every round. The probes allocate, which shifts garbage
// collection out of the rounds beside them, so the rounds before this
// part are the ones the recorder's own cost is read from.
const probeShare = 0.3

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeMetrics are the per-layer figures of the Go runtime itself.
func runtimeMetrics(m map[string]float64, t sectionTotals) {
	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["runtime.num_gc"] = float64(t.numGC)
	m["runtime.gc_pause_ms_total"] = ms(t.gcPause)
}

const mib = 1 << 20
