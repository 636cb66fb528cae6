package tradingfences

import (
	"context"
	"fmt"
	"os"
	"time"

	"tradingfences/internal/check"
	"tradingfences/internal/run"
	"tradingfences/internal/supervise"
)

// SuperviseOptions parameterizes a supervised mutex check: the base check
// options plus the retry ladder of the supervisor.
type SuperviseOptions struct {
	CheckOptions
	// MaxAttempts caps the exhaustive attempts before the randomized
	// fallback (0 = default 3).
	MaxAttempts int
	// BackoffBase is the sleep before retry k (BackoffBase << k,
	// 0 = default 50ms).
	BackoffBase time.Duration
	// BudgetGrowth multiplies the tripped budget's bounded resources on
	// each escalation (0 = default 2.0).
	BudgetGrowth float64
	// Resume makes the first attempt pick up a certified snapshot already
	// present at CheckpointPath. By default the supervised run owns the
	// path: a pre-existing file is cleared before the first attempt and
	// the snapshot is removed once a terminal verdict is reached.
	Resume bool
	// OnAttempt, when non-nil, streams each attempt's report as it
	// completes (before any backoff sleep), so long-running supervised
	// checks can surface their escalation ladder live — the verification
	// daemon builds its per-job decision log and progress endpoint from
	// these. The callback runs on the supervising goroutine and must not
	// block for long.
	OnAttempt func(SupervisedAttempt)
}

// SupervisedAttempt reports one rung of a supervised run: the escalated
// parameters in force, what checkpoint (if any) it resumed from, and why
// it stopped.
type SupervisedAttempt = supervise.Attempt

// supervisedVerdict lowers a supervisor outcome to a MutexVerdict and
// packages the witness of whichever phase found the violation.
func supervisedVerdict(ctx context.Context, subject *check.Subject, spec LockSpec, n, passages int, model MemoryModel, out *supervise.Outcome, faults *FaultPlan) (*MutexVerdict, error) {
	res := out.Result
	v := &MutexVerdict{
		Lock:     spec,
		Model:    model,
		Mode:     ModeExhaustive,
		Violated: res.Violation,
		// A bounded-semantics completion is a bounded certificate, not a
		// proof (same suppression as the unsupervised path).
		Proved:          res.Complete && !res.Violation && res.ReorderBound == 0,
		States:          res.States,
		SymmetryApplied: res.SymmetryApplied,
		Coverage: Coverage{
			ExhaustiveStates: res.States,
			ReorderBound:     res.ReorderBound,
			BoundedComplete:  res.ReorderBound > 0 && res.Complete && !res.Violation,
			POR:              res.PORApplied,
		},
	}
	wsched := res.Witness
	if out.Mode == supervise.ModeDegraded {
		v.Mode = ModeDegraded
		v.Proved = false
		v.Coverage.RandomSteps = out.Fallback.States
		if out.Fallback.Violation {
			v.Violated = true
			wsched = out.Fallback.Witness
		}
	}
	if err := attachWitness(ctx, subject, spec.String(), n, passages, model, v, wsched, faults); err != nil {
		return v, err
	}
	return v, nil
}

// CheckMutexSupervisedCtx model-checks mutual exclusion like CheckMutexCtx
// but under the supervisor of internal/supervise: attempts that trip a
// degradable budget or lose a worker are retried from the last certified
// checkpoint (opts.CheckpointPath) with exponential backoff, escalating
// the budget and then shrinking the worker pool before degrading to the
// seeded randomized fallback. The per-attempt reports expose the ladder.
//
// Fault plans with adversarial crash budgets are carried through every
// attempt; the supervised path does not accept fixed crash points or
// stall windows (same restriction as exhaustive checking).
func CheckMutexSupervisedCtx(ctx context.Context, spec LockSpec, n, passages int, model MemoryModel, opts SuperviseOptions) (v *MutexVerdict, attempts []SupervisedAttempt, err error) {
	defer run.Recover("check mutex supervised", &err)
	subject, err := newMutexSubject(spec, n, passages)
	if err != nil {
		return nil, nil, err
	}
	runs, maxSteps := opts.fallback()
	out, serr := supervise.CheckMutex(ctx, subject, model.internal(), supervise.Options{
		Workers:          opts.Workers,
		Budget:           opts.Budget,
		Faults:           opts.Faults,
		Symmetry:         opts.Symmetry,
		Reduction:        check.Reduction{ReorderBound: opts.ReorderBound, POR: opts.POR},
		MaxAttempts:      opts.MaxAttempts,
		BackoffBase:      opts.BackoffBase,
		BudgetGrowth:     opts.BudgetGrowth,
		CheckpointPath:   opts.CheckpointPath,
		CheckpointEvery:  opts.CheckpointEvery,
		Resume:           opts.Resume,
		Meta:             check.CheckpointMeta{Kind: "mutex", Lock: spec.String(), N: n, Passages: passages},
		Seed:             opts.Seed,
		FallbackRuns:     runs,
		FallbackMaxSteps: maxSteps,
		OnAttempt:        opts.OnAttempt,
	})
	if out == nil {
		return nil, nil, serr
	}
	if serr != nil {
		// Non-recoverable: report the partial verdict alongside the error.
		v, _ = supervisedVerdict(ctx, subject, spec, n, passages, model, out, opts.Faults)
		return v, out.Attempts, serr
	}
	v, err = supervisedVerdict(ctx, subject, spec, n, passages, model, out, opts.Faults)
	return v, out.Attempts, err
}

// ResumeMutexCheckCtx continues a checkpointed mutex check from a snapshot
// file written by an earlier run (CheckOptions.CheckpointPath). The
// subject is rebuilt from the snapshot's metadata and re-certified against
// its identity hash — a snapshot from a different lock, workload size or
// build is rejected rather than resumed. The resumed run keeps
// checkpointing to the same file.
//
// The snapshot pins the lock, workload, memory model and crash budget;
// opts contributes only the run parameters (budget, workers, cadence). In
// particular the fault plan is reconstructed from the snapshot — its
// frontier and visited keys are only meaningful under the crash budget
// they were generated with — and any opts.Faults is rejected rather than
// silently overridden.
func ResumeMutexCheckCtx(ctx context.Context, path string, opts CheckOptions) (v *MutexVerdict, err error) {
	defer run.Recover("resume mutex check", &err)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := check.DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if ck.Meta.Kind != "mutex" {
		return nil, fmt.Errorf("tradingfences: cannot resume checkpoint of kind %q", ck.Meta.Kind)
	}
	spec, err := ParseLockSpec(ck.Meta.Lock)
	if err != nil {
		return nil, err
	}
	model, err := ParseMemoryModel(ck.Model)
	if err != nil {
		return nil, err
	}
	n, passages := ck.Meta.N, ck.Meta.Passages
	subject, err := newMutexSubject(spec, n, passages)
	if err != nil {
		return nil, err
	}
	if opts.Faults != nil {
		return nil, fmt.Errorf("tradingfences: resume takes its fault plan from the snapshot (crash budget %d); do not set CheckOptions.Faults", ck.MaxCrashes)
	}
	if ck.MaxCrashes > 0 {
		opts.Faults = &FaultPlan{MaxCrashes: ck.MaxCrashes}
	}
	// Like the fault plan, the symmetry mode is pinned by the snapshot:
	// its visited keys are only meaningful under the canonicalization they
	// were minted with (the resume re-certifies this). So are the
	// reduction modes — bounded keys carry reorder ages and a reduced
	// frontier covers the reduced graph only. ck.ReorderBound is the
	// resolved bound (SC snapshots already carry 0), so copying it back
	// survives the SC no-op convention.
	opts.Symmetry = ck.Symmetry
	opts.ReorderBound = ck.ReorderBound
	opts.POR = ck.POR
	opts.CheckpointPath = path
	res, xerr := subject.ResumeExhaustiveParallel(ctx, model.internal(), ck, opts.checkOpts("mutex", spec.String(), n, passages))
	v = &MutexVerdict{
		Lock:            spec,
		Model:           model,
		Mode:            ModeExhaustive,
		Violated:        res.Violation,
		Proved:          res.Complete && !res.Violation && res.ReorderBound == 0,
		States:          res.States,
		SymmetryApplied: res.SymmetryApplied,
		Coverage: Coverage{
			ExhaustiveStates: res.States,
			ReorderBound:     res.ReorderBound,
			BoundedComplete:  res.ReorderBound > 0 && res.Complete && !res.Violation,
			POR:              res.PORApplied,
		},
	}
	if xerr != nil {
		v.Proved = false
		if run.IsLimit(xerr) {
			return v, xerr
		}
		return nil, xerr
	}
	if aerr := attachWitness(ctx, subject, spec.String(), n, passages, model, v, res.Witness, opts.Faults); aerr != nil {
		return v, aerr
	}
	return v, nil
}
