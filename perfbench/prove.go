package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	tf "tradingfences"
	"tradingfences/internal/check"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
)

var proveWorkload = &workload{
	name: "prove",
	why:  "closed-loop exhaustive proofs of correct locks on the work-stealing engine; machine step/undo, keying, visited set, POR, FCFS and liveness do the work",
	setup: func(r *runner) (*pass, error) {
		jobs := proveJobs(r.small)
		if r.corrupt {
			jobs[0].states++ // a deliberately wrong known answer
		}
		for i := range jobs {
			if err := jobs[i].build(); err != nil {
				return nil, err
			}
		}
		rng := orderRand(r)
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		return &pass{
			run: func(r *runner, span int) []jobResult {
				out := make([]jobResult, 0, len(jobs))
				for i := range jobs {
					out = append(out, r.timeJob(jobs[i].name(), span, jobs[i].run))
				}
				return out
			},
			close: func() error { return nil },
		}, nil
	},
	probe:  proveProbe,
	layers: proveLayers,
}

// seedRand draws a workload's inputs from the run seed alone, so every
// pass of a run (and every extra set-up) repeats the same inputs and the
// number of passes that fit cannot change what is measured.
func seedRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// orderRand draws the order a pass sends its jobs in from the run seed and
// the pass's index. The order changes no job's work, only what ran just
// before each job (its garbage, the daemon's bookkeeping), which moves a
// job's time by up to a factor of three on serve; a new order per pass
// lets a run's quantiles average over several orders instead of resting on
// one.
func orderRand(r *runner) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + int64(r.pass)))
}

// timeJob runs one job inside a job span and times it. Each job starts
// from a collected heap, as a proof or encode run in its own process
// would, so one job's garbage does not bill the next.
func (r *runner) timeJob(name string, parent int, f func(r *runner, span, job int) error) jobResult {
	runtime.GC()
	r.sampleSpeed(false)
	job := r.newJob()
	span := r.tr.Begin("job", parent, job)
	t0 := time.Now()
	err := f(r, span, job)
	d := time.Since(t0).Seconds()
	r.tr.End(span, nil)
	return jobResult{name: name, seconds: d, err: err}
}

// call runs f inside a span named after the layer function it calls,
// recording the process counter deltas around it and the counts f returns.
func (r *runner) call(name string, parent, job int, f func() (map[string]float64, error)) error {
	id := r.tr.Begin(name, parent, job)
	if id == 0 {
		_, err := f()
		return err
	}
	before := sampleProc()
	counts, err := f()
	r.tr.End(id, merge(before.delta(), counts))
	return err
}

// proveJob is one exhaustive check with its known answer: every job must
// prove its property, and a complete unreduced run must visit exactly
// states states. POR runs at more than one worker visit a scheduling-
// dependent number of states, so only their verdict is checked; unreduced
// is their unreduced graph's size, the base of check.por_ratio.
type proveJob struct {
	kind      string // "mutex", "rme", "liveness" or "fcfs"
	lock      string
	n         int
	model     tf.MemoryModel
	crashes   int
	por, sym  bool
	states    int
	unreduced int

	subject *check.Subject
	fcfs    *check.FCFSSubject
}

func proveJobs(small bool) []proveJob {
	if small {
		return []proveJob{
			{kind: "mutex", lock: "bakery", n: 2, model: tf.PSO, states: 936},
			{kind: "mutex", lock: "bakery", n: 2, model: tf.PSO, por: true, unreduced: 936},
			{kind: "mutex", lock: "peterson", n: 2, model: tf.PSO, sym: true, states: 319},
			{kind: "rme", lock: "rtas", n: 2, model: tf.SC, crashes: 1, states: 1584},
			{kind: "liveness", lock: "bakery", n: 2, model: tf.SC, states: 682},
			{kind: "fcfs", lock: "bakery", n: 2, model: tf.SC, states: 1209},
		}
	}
	return []proveJob{
		{kind: "mutex", lock: "bakery", n: 3, model: tf.PSO, states: 77594},
		{kind: "mutex", lock: "bakery", n: 3, model: tf.TSO, states: 77594},
		{kind: "mutex", lock: "tournament", n: 3, model: tf.PSO, states: 51507},
		{kind: "mutex", lock: "gt2", n: 3, model: tf.PSO, states: 187885},
		// RME proofs run on the facade's default (sequential) explorer, as
		// lockstat runs them; 70,338 is that explorer's exact count.
		{kind: "rme", lock: "rtas", n: 3, model: tf.SC, crashes: 1, states: 70338},
		{kind: "mutex", lock: "bakery", n: 3, model: tf.PSO, por: true, unreduced: 77594},
		{kind: "mutex", lock: "gt2", n: 3, model: tf.PSO, por: true, unreduced: 187885},
		{kind: "mutex", lock: "peterson", n: 2, model: tf.PSO, sym: true, states: 319},
		{kind: "liveness", lock: "bakery", n: 3, model: tf.SC, states: 53968},
		{kind: "fcfs", lock: "bakery", n: 2, model: tf.SC, states: 1209},
		{kind: "fcfs", lock: "bakery", n: 2, model: tf.TSO, states: 1626},
		{kind: "fcfs", lock: "bakery", n: 2, model: tf.PSO, states: 1626},
	}
}

func (j *proveJob) name() string {
	s := fmt.Sprintf("%s %s-n%d/%v", j.kind, j.lock, j.n, j.model)
	if j.por {
		s += "/por"
	}
	if j.sym {
		s += "/symmetry"
	}
	if j.crashes > 0 {
		s += fmt.Sprintf("/crashes=%d", j.crashes)
	}
	return s
}

// lockCtor maps the prove and probe lock names to their constructors.
func lockCtor(name string) (locks.Constructor, error) {
	switch name {
	case "bakery":
		return locks.NewBakery, nil
	case "tournament":
		return locks.NewTournament, nil
	case "peterson":
		return locks.NewPeterson, nil
	case "gt2":
		return func(l *machine.Layout, nm string, n int) (*locks.Algorithm, error) {
			return locks.NewGT(l, nm, n, 2)
		}, nil
	}
	return nil, fmt.Errorf("no constructor for lock %q", name)
}

func modelOf(m tf.MemoryModel) machine.Model {
	switch m {
	case tf.SC:
		return machine.SC
	case tf.TSO:
		return machine.TSO
	}
	return machine.PSO
}

// build constructs the job's subject, which the check builds its
// configurations from.
func (j *proveJob) build() error {
	if j.kind == "rme" {
		return nil // the facade builds the recoverable subject per call
	}
	ctor, err := lockCtor(j.lock)
	if err != nil {
		return err
	}
	if j.kind == "fcfs" {
		j.fcfs, err = check.NewFCFSSubject(j.lock, ctor, j.n)
		return err
	}
	j.subject, err = check.NewMutexSubject(j.lock, ctor, j.n, 1)
	return err
}

// jobTimeout bounds one job so a hung exploration fails the job instead of
// the run.
const jobTimeout = 60 * time.Second

func (j *proveJob) run(r *runner, span, job int) error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	m := modelOf(j.model)
	var (
		states int
		proved bool
	)
	var err error
	switch j.kind {
	case "mutex":
		err = r.call("check.Subject.ExhaustiveParallel", span, job, func() (map[string]float64, error) {
			res, err := j.subject.ExhaustiveParallel(ctx, m, check.Opts{
				Workers:   r.workers,
				Symmetry:  j.sym,
				Reduction: check.Reduction{POR: j.por},
			})
			states, proved = res.States, res.Complete && !res.Violation
			c := map[string]float64{"states": float64(res.States)}
			if e := res.Engine; e != nil {
				c["steals"], c["parks"], c["donated"] = float64(e.Steals), float64(e.Parks), float64(e.Donated)
			}
			if j.por {
				c["por"], c["unreduced"] = 1, float64(j.unreduced)
			}
			return c, err
		})
	case "rme":
		err = r.call("tradingfences.CheckRMECtx", span, job, func() (map[string]float64, error) {
			v, err := tf.CheckRMECtx(ctx, j.lock, j.n, 1, j.model, tf.CheckOptions{
				Faults: &tf.FaultPlan{MaxCrashes: j.crashes},
			})
			if v != nil {
				states, proved = v.States, v.Proved
			}
			return map[string]float64{"states": float64(states)}, err
		})
	case "liveness":
		err = r.call("check.Subject.CheckProgress", span, job, func() (map[string]float64, error) {
			res, err := j.subject.CheckProgress(ctx, m, check.Opts{})
			if res != nil {
				states = res.States
				proved = res.Complete && res.DeadlockFree && res.WeakObstructionFree
			}
			return map[string]float64{"states": float64(states)}, err
		})
	case "fcfs":
		err = r.call("check.FCFSSubject.Exhaustive", span, job, func() (map[string]float64, error) {
			res, err := j.fcfs.Exhaustive(ctx, m, check.Opts{})
			states, proved = res.States, res.Complete && !res.Violation
			return map[string]float64{"states": float64(states)}, err
		})
	}
	switch {
	case err != nil:
		return err
	case !proved:
		return fmt.Errorf("not proved (%d states)", states)
	case j.states > 0 && states != j.states:
		return fmt.Errorf("visited %d states, want exactly %d", states, j.states)
	}
	return nil
}

func proveLayers(spans []Span, passes int) map[string]float64 {
	par := spansNamed(spans, "check.Subject.ExhaustiveParallel")
	exh := append(spansNamed(spans, "tradingfences.CheckRMECtx"), par...)
	fcfs := spansNamed(spans, "check.FCFSSubject.Exhaustive")
	live := spansNamed(spans, "check.Subject.CheckProgress")
	var por []Span
	for _, s := range par {
		if s.Counts["por"] == 1 {
			por = append(por, s)
		}
	}
	n := float64(passes)
	exhStates := sumCount(exh, "states")
	all := append(append(append([]Span(nil), exh...), fcfs...), live...)
	m := map[string]float64{
		"check.ns_per_state":          ratio(sumDur(exh)*1e9, exhStates),
		"check.states":                ratio(sumCount(all, "states"), n),
		"check.allocs_per_state":      ratio(sumCount(exh, "allocs"), exhStates),
		"check.bytes_per_state":       ratio(sumCount(exh, "bytes"), exhStates),
		"check.por_ratio":             ratio(sumCount(por, "unreduced"), sumCount(por, "states")),
		"check.steals":                ratio(sumCount(par, "steals"), n),
		"check.parks":                 ratio(sumCount(par, "parks"), n),
		"check.cpu_per_wall":          ratio(sumCount(par, "cpu_s"), sumCount(par, "wall_s")),
		"check.fcfs_ns_per_state":     ratio(sumDur(fcfs)*1e9, sumCount(fcfs, "states")),
		"check.liveness_ns_per_state": ratio(sumDur(live)*1e9, sumCount(live, "states")),
	}
	for k, v := range probeLayers(spans) {
		m[k] = v
	}
	return m
}
