package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailLevel is the quantile job_s_p95 reports for a workload whose pass
// holds perPass jobs: 0.95, or lower when two passes give fewer than ten
// samples above 0.95 — the highest level with ten above it in two passes,
// but not below the median. Basing it on the job list rather than on how
// many passes fit keeps the level the same on fast and slow hosts.
func tailLevel(perPass int) float64 {
	n := float64(2 * perPass)
	return math.Min(0.95, math.Max(0.5, (n-10)/n))
}

// procSample is a point-in-time reading of process-wide counters.
type procSample struct {
	wall     time.Time
	cpu      float64 // user+system seconds
	allocs   uint64  // heap objects allocated
	bytes    uint64  // heap bytes allocated
	gcCycles uint64
	steal    float64 // seconds the hypervisor ran other guests on our CPUs
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func sampleProc() procSample {
	ms := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure; Linux always supports it
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSample{
		wall:     time.Now(),
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		allocs:   ms[0].Value.Uint64(),
		bytes:    ms[1].Value.Uint64(),
		gcCycles: ms[2].Value.Uint64(),
		steal:    stealSeconds(),
	}
}

// stealSeconds reads the machine-wide CPU steal time from /proc/stat (0
// where the kernel does not report it). Steal is host contention: time a
// virtual CPU wanted to run but the host ran something else.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// delta returns the counters accumulated since s as span counts.
func (s procSample) delta() map[string]float64 {
	e := sampleProc()
	return map[string]float64{
		"wall_s":    e.wall.Sub(s.wall).Seconds(),
		"cpu_s":     e.cpu - s.cpu,
		"allocs":    float64(e.allocs - s.allocs),
		"bytes":     float64(e.bytes - s.bytes),
		"gc_cycles": float64(e.gcCycles - s.gcCycles),
		"steal_s":   e.steal - s.steal,
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// next peakRSSMiB reads the peak of one pass.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// merge adds counts b into a (a may be nil).
func merge(a, b map[string]float64) map[string]float64 {
	if a == nil {
		a = map[string]float64{}
	}
	for k, v := range b {
		a[k] += v
	}
	return a
}
