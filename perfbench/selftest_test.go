package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smallRunner(t *testing.T, trace, corrupt bool) *runner {
	out := t.TempDir()
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	return &runner{seed: 7, trace: trace, small: true, corrupt: corrupt, out: out,
		workers: runtime.NumCPU(), tr: newTracer()}
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// Every workload at its smallest size emits every metric BENCHMARK.json
// names, with its unit, and fails no job.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := findWorkload(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		if w.why != sw.Why {
			t.Errorf("%s: reason %q differs from BENCHMARK.json's %q", w.name, w.why, sw.Why)
		}
		for _, trace := range []bool{false, true} {
			r := smallRunner(t, trace, false)
			res, err := r.run(w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var buf bytes.Buffer
			printResult(&buf, r, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", w.name, trace, got.Correct, got.Failed, got.Attempted, res.Failures)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Value == nil || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.name, trace, name, m, unit)
				}
				if !trace && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, name, *m.Value)
				}
			}
			if !trace {
				continue
			}
			// A layer metric the workload owns must have been measured:
			// run() reports 0 for a metric no span fed.
			for _, d := range perLayer {
				if m, ok := got.Metrics[d.Name]; ok && m.Value != nil && ownedBy(d, w.name) && *m.Value <= 0 {
					t.Errorf("%s: per-layer metric %s is %v, want > 0: its spans or probe went missing", w.name, d.Name, *m.Value)
				}
			}
		}
	}
}

// mayBeZero are per-layer metrics that can honestly read 0 at the smallest
// sizes: steals and parks depend on scheduling (and stay 0 on one CPU), and
// a small supervised check can finish before its first checkpoint.
var mayBeZero = map[string]bool{"check.steals": true, "check.parks": true, "supervise.checkpoints_per_job": true}

// ownedBy reports whether workload w's traced run must measure d: d's Moves
// column names w (or every workload), and d cannot honestly read 0. Metrics
// that should move nothing, such as the cache and dedup shares, are owned
// by no workload.
func ownedBy(d metricDef, w string) bool {
	switch {
	case d.Moves == "" || mayBeZero[d.Name]:
		return false
	case strings.HasSuffix(d.Moves, "on each workload"):
		return true
	}
	return strings.HasPrefix(d.Moves, w+" ")
}

// Every workload owns some layer metric, and the metrics no workload owns
// are exactly the ones that may read 0 or should move nothing.
func TestLayerOwnership(t *testing.T) {
	for _, w := range workloads {
		n := 0
		for _, d := range perLayer {
			if ownedBy(d, w.name) && !strings.HasPrefix(d.Name, "proc.") {
				n++
			}
		}
		if n == 0 {
			t.Errorf("%s owns no layer metric", w.name)
		}
	}
	for _, d := range perLayer {
		owned := false
		for _, w := range workloads {
			owned = owned || ownedBy(d, w.name)
		}
		if !owned && d.Moves != "" && !mayBeZero[d.Name] {
			t.Errorf("%s moves %q, which names no workload", d.Name, d.Moves)
		}
	}
}

// A deliberately wrong known answer is reported as a failed job: the
// known-answer check can fail.
func TestWrongKnownAnswerFails(t *testing.T) {
	for _, w := range workloads {
		res, err := smallRunner(t, false, true).run(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected answer went unnoticed (correct=%v failed=%d)", w.name, res.Correct, res.Failed)
		}
	}
}

func TestValidateSpans(t *testing.T) {
	ok := []Span{{ID: 1, End: 5}, {ID: 2, Parent: 1, Start: 1, End: 2}}
	if err := validateSpans(ok); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]Span{
		"missing parent": {{ID: 1, Parent: 9, End: 1}},
		"cycle":          {{ID: 1, Parent: 2, End: 1}, {ID: 2, Parent: 1, End: 1}},
		"unclosed":       {{ID: 1, End: -1}},
	} {
		if validateSpans(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "call", Start: 30, End: 60},
	}
	for _, lt := range layerTimes(spans) {
		if lt.Name == "job" && math.Abs(lt.SelfS*1e9-50) > 1e-6 {
			t.Errorf("job self time %v ns, want 50", lt.SelfS*1e9)
		}
	}
}
