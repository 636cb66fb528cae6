// Command perfbench is the repository's benchmark. It runs one workload —
// prove, serve or encode — from a seed for a fixed time, checks every
// verdict against a known answer, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced passes, runs the layer probe, and prints
// the per-layer metrics computed from the recorded spans. Results, the
// metric table and (traced) the spans are also written under -out/results.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many extra set-ups a run times before its passes, so
// setup_s is a median over several even when only one or two passes fit.
const setupReps = 25

// jobResult is one job's outcome: its time to a verdict and, when the
// verdict disagreed with the known answer or the job errored, why.
type jobResult struct {
	name    string
	seconds float64
	err     error
}

// pass is one set-up copy of a workload, ready to run its fixed job list.
type pass struct {
	run   func(r *runner, span int) []jobResult
	close func() error
}

// workload generates its inputs from the runner's seed; the set-up it
// returns is timed as setup_s.
type workload struct {
	name, why string
	setup     func(r *runner) (*pass, error)
	// probe runs the layer probe of a traced run (may be nil).
	probe func(r *runner) error
	// layers computes the workload's per-layer metrics from the spans of
	// its traced passes.
	layers func(spans []Span, passes int) map[string]float64
}

var workloads = []*workload{proveWorkload, serveWorkload, encodeWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runner carries the run's parameters and its tracer.
type runner struct {
	seed    int64
	seconds float64
	trace   bool
	small   bool // smallest sizes, for the self-test
	corrupt bool // perturb one known answer, for the self-test
	out     string
	workers int
	tr      *Tracer
	jobs    atomic.Int64 // job IDs handed out so far
	pass    int          // index of the pass being set up or run

	// refWalls are the reference kernel's samples so far, taken last at
	// lastRef (reference.go).
	refWalls []float64
	lastRef  time.Time
}

// newJob returns a fresh job ID; the spans of one job share it.
func (r *runner) newJob() int { return int(r.jobs.Add(1)) }

// Result is everything one run measured.
type Result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Passes    int       `json:"passes"`
	PassWalls []float64 `json:"pass_walls_s"`
	// PassSteal is each pass's share of the machine's CPU time the host
	// gave to other guests: a noisy host shows here, not in the program.
	PassSteal []float64 `json:"pass_steal_frac"`
	// RefWalls are the reference kernel's samples (reference.go);
	// HostSpeed is refNominal over their mean, the factor that scales the
	// raw times to the metrics.
	RefWalls  []float64          `json:"ref_wall_s"`
	HostSpeed float64            `json:"host_speed"`
	Samples   int                `json:"job_samples"`
	TailLevel float64            `json:"job_s_p95_level"`
	Metrics   map[string]float64 `json:"metrics"`
	// RawTimes are the end-to-end times as measured, before scaling.
	RawTimes map[string]float64 `json:"raw_times_s,omitempty"`
	// JobMedians is the median raw untraced time of each kind of job.
	JobMedians map[string]float64 `json:"job_medians_s,omitempty"`
	Layers     []LayerTime        `json:"layer_times,omitempty"`
	spans      []Span
}

func (r *runner) run(w *workload) (*Result, error) {
	res := &Result{Workload: w.name, Seed: r.seed, Trace: r.trace, Metrics: map[string]float64{}}
	start := time.Now()
	var setupS, walls, tracedWalls, jobS, rss, durs []float64
	byName := map[string][]float64{}
	minPasses := 1
	if r.trace {
		minPasses = 2 // at least one untraced and one traced pass
	}
	runtime.GC()
	r.sampleSpeed(true)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := w.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if err := p.close(); err != nil {
			return nil, fmt.Errorf("%s tear-down: %w", w.name, err)
		}
	}
	for idx := 0; ; idx++ {
		traced := r.trace && idx%2 == 1
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		r.sampleSpeed(true)
		r.pass = idx
		r.tr.setEnabled(traced)
		ps := r.tr.Begin("pass", 0, -1)
		before := sampleProc()
		t0 := time.Now()
		ss := r.tr.Begin("setup", ps, -1)
		p, err := w.setup(r)
		r.tr.End(ss, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		samples := len(r.refWalls)
		t1 := time.Now()
		jobs := p.run(r, ps)
		// The kernel's samples between jobs are not the workload's time.
		wall := time.Since(t1).Seconds() - sum(r.refWalls[samples:])
		counts := before.delta()
		r.tr.End(ps, counts)
		res.PassSteal = append(res.PassSteal, counts["steal_s"]/(counts["wall_s"]*float64(runtime.NumCPU())))
		if err := p.close(); err != nil {
			return nil, fmt.Errorf("%s tear-down: %w", w.name, err)
		}
		res.Passes++
		res.PassWalls = append(res.PassWalls, wall)
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
			rss = append(rss, peakRSSMiB())
		}
		if res.TailLevel == 0 {
			res.TailLevel = tailLevel(len(jobs))
		}
		for _, j := range jobs {
			res.Attempted++
			if j.err != nil {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("pass %d %s: %v", idx, j.name, j.err))
			}
			if !traced {
				jobS = append(jobS, j.seconds)
				byName[j.name] = append(byName[j.name], j.seconds)
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
		if res.Passes >= minPasses && time.Since(start).Seconds()+median(durs) > r.seconds {
			break
		}
	}
	r.tr.setEnabled(r.trace)
	res.Correct = res.Failed == 0
	res.Samples = len(jobS)
	res.RefWalls = r.refWalls
	res.HostSpeed = refNominal / mean(r.refWalls)
	res.JobMedians = map[string]float64{}
	for name, xs := range byName {
		res.JobMedians[name] = median(xs)
	}
	if !r.trace {
		res.RawTimes = map[string]float64{
			"setup_s":   median(setupS),
			"wall_s":    median(walls),
			"job_s_p50": median(jobS),
			"job_s_p95": quantile(jobS, res.TailLevel),
		}
		for k, v := range res.RawTimes {
			res.Metrics[k] = v * res.HostSpeed
		}
		res.Metrics["peak_rss_mib"] = median(rss)
		return res, nil
	}
	if w.probe != nil {
		if err := w.probe(r); err != nil {
			return nil, fmt.Errorf("%s layer probe: %w", w.name, err)
		}
	}
	res.spans = r.tr.Spans()
	if err := validateSpans(res.spans); err != nil {
		res.Correct = false
		res.Failures = append(res.Failures, "spans: "+err.Error())
	}
	// Untraced passes record nothing, so every span belongs to a traced
	// pass or to the probe.
	for k, v := range w.layers(res.spans, len(tracedWalls)) {
		res.Metrics[k] = v
	}
	for k, v := range procLayers(res.spans, len(tracedWalls)) {
		res.Metrics[k] = v
	}
	res.Metrics["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = 0 // a layer this workload does not use
		}
	}
	res.Layers = layerTimes(res.spans)
	return res, nil
}

// procLayers turns the traced pass spans' process counters into the proc.*
// metrics, per traced pass.
func procLayers(spans []Span, passes int) map[string]float64 {
	ps := spansNamed(spans, "pass")
	n := float64(passes)
	return map[string]float64{
		"proc.cpu_s":      ratio(sumCount(ps, "cpu_s"), n),
		"proc.gc_cycles":  ratio(sumCount(ps, "gc_cycles"), n),
		"proc.alloc_mib":  ratio(sumCount(ps, "bytes"), n) / (1 << 20),
		"proc.steal_frac": ratio(sumCount(ps, "steal_s"), sumCount(ps, "wall_s")*float64(runtime.NumCPU())),
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: prove, serve or encode")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 30, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for result files and scratch data")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want prove, serve or encode)\n", *name)
		os.Exit(2)
	}
	r := &runner{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		workers: runtime.NumCPU(), tr: newTracer()}
	if err := os.MkdirAll(filepath.Join(r.out, "results"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := r.run(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(r, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, r, res)
}

// printResult prints one line per metric, then the JSON result line.
func printResult(f io.Writer, r *runner, res *Result) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		metrics[d.Name] = mv{v, d.Unit}
		fmt.Fprintf(f, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(f, "%-32s %14.6g %s (%d of %d jobs, %d passes)\n",
		"failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "frac",
		res.Failed, res.Attempted, res.Passes)
	if !r.trace {
		fmt.Fprintf(f, "job samples %d, job_s_p95 taken at the %.3g quantile\n", res.Samples, res.TailLevel)
		fmt.Fprintf(f, "the times above are at reference speed; this run's host ran at %.4g of it, and measured\n", res.HostSpeed)
		for _, k := range []string{"setup_s", "wall_s", "job_s_p50", "job_s_p95"} {
			fmt.Fprintf(f, "  %-30s %14.6g s\n", k, res.RawTimes[k])
		}
	}
	for _, msg := range res.Failures {
		fmt.Fprintln(f, "FAILED", msg)
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintln(f, string(line))
}

// writeResult records the run, its environment and the metric table under
// out/results, and the spans of a traced run next to it.
func writeResult(r *runner, res *Result) error {
	base := filepath.Join(r.out, "results", fmt.Sprintf("%s-seed%d-trace%d", res.Workload, r.seed, b2i(r.trace)))
	doc := map[string]any{
		"result":      res,
		"environment": environment(),
		"workloads":   workloadReasons(),
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
	if err := writeJSON(base+".json", doc); err != nil {
		return err
	}
	if r.trace {
		return writeJSON(base+"-spans.json", res.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func workloadReasons() map[string]string {
	m := map[string]string{}
	for _, w := range workloads {
		m[w.name] = w.why
	}
	return m
}

// environment records where the run happened: CPU model, CPU count,
// GOMAXPROCS, Go version and, when the checkout is a git work tree, the
// commit.
func environment() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git work tree)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}
