package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	tf "tradingfences"
	"tradingfences/internal/check"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/objects"
	"tradingfences/internal/serve"
)

// The layer probe times single layer operations at seeded reachable
// configurations, outside any exploration. Each probe span carries the
// number of calls it made, their total time in ns and the heap
// allocations they made.
const (
	probeConfigs = 24  // reachable configurations per subject
	probeReps    = 200 // repetitions of each operation per configuration
	probeDepth   = 80  // longest random walk to a configuration
)

// reachable walks seeded random schedules from root and returns clones of
// the configurations they reach.
func reachable(root *machine.Config, rng *rand.Rand, count int) []*machine.Config {
	out := make([]*machine.Config, 0, count)
	for len(out) < count {
		c := root.Clone()
		for d := rng.Intn(probeDepth); d > 0; d-- {
			els := enabled(c)
			if len(els) == 0 {
				break
			}
			if _, _, err := c.Step(els[rng.Intn(len(els))]); err != nil {
				break
			}
		}
		out = append(out, c)
	}
	return out
}

// enabled lists the schedule elements that take a step at c: each live
// process's next operation and each commit of a buffered write.
func enabled(c *machine.Config) []machine.Elem {
	var els []machine.Elem
	for p := 0; p < c.N(); p++ {
		if e := machine.PBottom(p); c.Enabled(e) {
			els = append(els, e)
		}
		for _, reg := range c.BufferRegs(p) {
			if e := machine.PReg(p, reg); c.Enabled(e) {
				els = append(els, e)
			}
		}
	}
	return els
}

// measure runs op reps times and returns the elapsed ns and the heap
// allocations it made.
func measure(reps int, op func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		op()
	}
	ns = float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs - m0.Mallocs)
}

// probeSpan records one probe measurement as a span.
func (r *runner) probeSpan(name string, parent int, calls float64, f func() (ns, allocs float64, extra map[string]float64)) {
	id := r.tr.Begin(name, parent, -1)
	ns, allocs, extra := f()
	r.tr.End(id, merge(map[string]float64{"calls": calls, "ns": ns, "allocs": allocs}, extra))
}

// proveProbe probes machine and lang operations on every mutex subject of
// the prove workload.
func proveProbe(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	root := r.tr.Begin("probe", 0, -1)
	defer r.tr.End(root, nil)
	seen := map[string]bool{}
	for _, j := range proveJobs(r.small) {
		key := fmt.Sprintf("%s-%d-%v", j.lock, j.n, j.model)
		if j.kind != "mutex" || seen[key] {
			continue
		}
		seen[key] = true
		ctor, err := lockCtor(j.lock)
		if err != nil {
			return err
		}
		subject, err := check.NewMutexSubject(j.lock, ctor, j.n, 1)
		if err != nil {
			return err
		}
		c0, err := subject.Build(modelOf(j.model))
		if err != nil {
			return err
		}
		if err := r.probeConfigs(root, reachable(c0, rng, probeConfigs)); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

func (r *runner) probeConfigs(parent int, cfgs []*machine.Config) error {
	var enc machine.KeyEncoder
	var buf []byte
	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	for _, c := range cfgs {
		els := enabled(c)
		r.probeSpan("machine.Config.StepUndo+Revert", parent, float64(probeReps*len(els)), func() (float64, float64, map[string]float64) {
			ns, allocs := measure(probeReps, func() {
				for _, e := range els {
					_, _, u, err := c.StepUndo(e)
					keep(err)
					u.Revert()
				}
			})
			return ns, allocs, nil
		})
		r.probeSpan("machine.KeyEncoder.AppendStateBytes", parent, probeReps, func() (float64, float64, map[string]float64) {
			ns, allocs := measure(probeReps, func() {
				var err error
				buf, err = enc.AppendStateBytes(c, buf[:0])
				keep(err)
			})
			return ns, allocs, map[string]float64{"key_bytes": float64(len(buf) * probeReps)}
		})
		r.probeSpan("machine.HashStateKey", parent, probeReps, func() (float64, float64, map[string]float64) {
			ns, allocs := measure(probeReps, func() { machine.HashStateKey(buf) })
			return ns, allocs, nil
		})
		// Successor keys of this configuration, inserted as one batch into
		// fresh visited sets, the way the engine inserts a node's children.
		var keys []machine.StateKey
		for _, e := range els {
			_, took, u, err := c.StepUndo(e)
			keep(err)
			if took {
				b, err := enc.AppendStateBytes(c, nil)
				keep(err)
				keys = append(keys, machine.HashStateKey(b))
			}
			u.Revert()
		}
		sets := make([]*machine.VisitedSet, probeReps)
		for i := range sets {
			sets[i] = machine.NewVisitedSet()
		}
		fresh := make([]bool, len(keys))
		r.probeSpan("machine.VisitedSet.TryVisitBatch", parent, float64(probeReps*len(keys)), func() (float64, float64, map[string]float64) {
			i := 0
			ns, allocs := measure(probeReps, func() {
				sets[i].TryVisitBatch(keys, fresh)
				i++
			})
			return ns, allocs, nil
		})
		for p := 0; p < c.N(); p++ {
			ps := c.Proc(p)
			if _, _, err := ps.NextOp(); err != nil && !ps.Halted() {
				keep(err)
			}
			r.probeSpan("lang.ProcState.Clone", parent, probeReps, func() (float64, float64, map[string]float64) {
				ns, allocs := measure(probeReps, func() { ps.Clone() })
				return ns, allocs, nil
			})
			r.probeSpan("lang.ProcState.AppendStateKey", parent, probeReps, func() (float64, float64, map[string]float64) {
				ns, allocs := measure(probeReps, func() { buf = ps.AppendStateKey(buf[:0], nil) })
				return ns, allocs, nil
			})
		}
	}
	return probeErr
}

// perCall is the mean ns and allocations per call over probe spans.
func perCall(spans []Span, name string) (ns, allocs float64) {
	s := spansNamed(spans, name)
	calls := sumCount(s, "calls")
	return ratio(sumCount(s, "ns"), calls), ratio(sumCount(s, "allocs"), calls)
}

func probeLayers(spans []Span) map[string]float64 {
	m := map[string]float64{}
	m["machine.step_undo_ns"], m["machine.allocs_per_step"] = perCall(spans, "machine.Config.StepUndo+Revert")
	m["machine.key_encode_ns"], _ = perCall(spans, "machine.KeyEncoder.AppendStateBytes")
	enc := spansNamed(spans, "machine.KeyEncoder.AppendStateBytes")
	m["machine.key_bytes"] = ratio(sumCount(enc, "key_bytes"), sumCount(enc, "calls"))
	m["machine.hash_ns"], _ = perCall(spans, "machine.HashStateKey")
	m["machine.visited_insert_ns"], _ = perCall(spans, "machine.VisitedSet.TryVisitBatch")
	m["lang.clone_ns"], m["lang.allocs_per_clone"] = perCall(spans, "lang.ProcState.Clone")
	m["lang.append_key_ns"], _ = perCall(spans, "lang.ProcState.AppendStateKey")
	return m
}

// encodeProbe times the legacy string fingerprint on configurations of the
// encode workload's systems (Count over each lock, PSO), reached by seeded
// random schedules from the initial configuration.
func encodeProbe(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	root := r.tr.Begin("probe", 0, -1)
	defer r.tr.End(root, nil)
	seen := map[string]bool{}
	for _, j := range encodeJobs(r.small) {
		key := j.name()
		if seen[key] {
			continue
		}
		seen[key] = true
		c0, err := countConfig(j.spec, j.n)
		if err != nil {
			return err
		}
		for _, c := range reachable(c0, rng, probeConfigs) {
			var ferr error
			r.probeSpan("machine.Config.Fingerprint", root, probeReps, func() (float64, float64, map[string]float64) {
				ns, allocs := measure(probeReps, func() {
					if _, err := c.Fingerprint(); err != nil {
						ferr = err
					}
				})
				return ns, allocs, nil
			})
			if ferr != nil {
				return ferr
			}
		}
	}
	return nil
}

// countConfig builds the initial PSO configuration of the Count object over
// the lock, the system the encoder runs.
func countConfig(spec tf.LockSpec, n int) (*machine.Config, error) {
	var ctor locks.Constructor
	switch spec.Kind {
	case tf.Bakery:
		ctor = locks.NewBakery
	case tf.Tournament:
		ctor = locks.NewTournament
	case tf.GT:
		f := spec.F
		ctor = func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) { return locks.NewGT(l, nm, n, f) }
	default:
		return nil, fmt.Errorf("no probe system for %v", spec)
	}
	lay := machine.NewLayout()
	lk, err := ctor(lay, "lk", n)
	if err != nil {
		return nil, err
	}
	o, err := objects.NewCount(lay, "obj", lk)
	if err != nil {
		return nil, err
	}
	return machine.NewConfig(machine.PSO, lay, o.Programs())
}

// serveProbe times journal appends (write plus fsync) to an outbox on a
// scratch directory.
func serveProbe(r *runner) error {
	dir, err := os.MkdirTemp(filepath.Join(r.out, "tmp"), "outbox-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ob, err := serve.OpenOutbox(filepath.Join(dir, "outbox.jsonl"))
	if err != nil {
		return err
	}
	root := r.tr.Begin("probe", 0, -1)
	defer r.tr.End(root, nil)
	const appends = 50
	var aerr error
	r.probeSpan("serve.Outbox.Append", root, appends, func() (float64, float64, map[string]float64) {
		i := 0
		ns, allocs := measure(appends, func() {
			rec := serve.Record{Event: "submitted", Job: fmt.Sprintf("j-probe-%d", i), Key: fmt.Sprintf("%032x", i)}
			i++
			if err := ob.Append(rec); err != nil && aerr == nil {
				aerr = err
			}
		})
		return ns, allocs, nil
	})
	if err := ob.Close(); err != nil && aerr == nil {
		aerr = err
	}
	return aerr
}
