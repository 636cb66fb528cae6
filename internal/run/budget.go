// Package run provides the resource-budget and failure-recovery substrate
// shared by the long-running pipelines of this repository: the model
// checker's exhaustive and randomized searches, the lower-bound encoder's
// iterative construction, and the facade entry points that drive them.
//
// A Budget bounds the four resources a hostile input can exhaust — machine
// steps, distinct explored states, wall-clock time and (estimated) memory —
// and a Meter charges usage against it while also observing a
// context.Context, so every pipeline is both bounded and cancellable.
// Violations surface as structured *BudgetError values (matching
// ErrBudgetExceeded via errors.Is) instead of silently truncated results,
// and panics in deep machinery are converted by Recover into structured
// *RecoveredError values instead of crashing the process.
package run

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Budget bounds the resources a single check or encode run may consume.
// The zero value of each field means "unlimited" (for MaxSteps callers may
// install their own default, e.g. the decoder's legacy step cap).
type Budget struct {
	// MaxSteps bounds the number of machine (or decode) steps executed.
	MaxSteps int64
	// MaxStates bounds the number of distinct states an exhaustive
	// exploration may intern.
	MaxStates int
	// MaxWall bounds the wall-clock duration of the run.
	MaxWall time.Duration
	// MaxMemEstimate bounds the estimated bytes retained by the run
	// (visited-state sets are the dominant consumer).
	MaxMemEstimate int64
}

// IsZero reports whether every bound is unlimited.
func (b Budget) IsZero() bool {
	return b.MaxSteps == 0 && b.MaxStates == 0 && b.MaxWall == 0 && b.MaxMemEstimate == 0
}

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// *BudgetError.
var ErrBudgetExceeded = errors.New("run: budget exceeded")

// BudgetError reports which resource of a Budget was exhausted, and where.
type BudgetError struct {
	// Resource is one of "steps", "states", "wall", "memory".
	Resource string
	// Limit is the configured bound; Used the consumption that tripped it.
	// For "wall" both are nanoseconds.
	Limit, Used int64
}

func (e *BudgetError) Error() string {
	if e.Resource == "wall" {
		return fmt.Sprintf("run: wall budget exceeded (%v limit, %v used)",
			time.Duration(e.Limit), time.Duration(e.Used))
	}
	return fmt.Sprintf("run: %s budget exceeded (%d limit, %d used)", e.Resource, e.Limit, e.Used)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for every BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Degradable reports whether the exhausted resource admits the checker's
// graceful degradation to randomized search: state and memory budgets do
// (the randomized phase holds no visited set), wall and step budgets do not
// (the randomized phase would exhaust them just the same).
func (e *BudgetError) Degradable() bool {
	return e.Resource == "states" || e.Resource == "memory"
}

// IsLimit reports whether err is a resource-limit condition — a budget
// trip or a context cancellation/deadline — as opposed to a genuine
// failure of the work itself. Explorers use it to decide between
// "return the partial result alongside err" and "abort".
func IsLimit(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// checkEvery is how many charged steps pass between context/wall
// re-checks. Context reads and time.Now are cheap but not free; the
// explorers charge millions of steps per second.
const checkEvery = 1024

// Meter charges resource usage against a Budget while observing a context.
// The zero Meter is not usable; construct with NewMeter. A Meter is not
// safe for concurrent use (all pipelines here are single-goroutine).
type Meter struct {
	ctx   context.Context
	b     Budget
	start time.Time

	steps   int64
	states  int64
	mem     int64
	sinceCk int64
}

// NewMeter starts a meter for one run. ctx may be nil (treated as
// context.Background()).
func NewMeter(ctx context.Context, b Budget) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Meter{ctx: ctx, b: b, start: time.Now()}
}

// Steps returns the number of steps charged so far.
func (m *Meter) Steps() int64 { return m.steps }

// States returns the number of states charged so far.
func (m *Meter) States() int64 { return m.states }

// Mem returns the estimated bytes charged so far.
func (m *Meter) Mem() int64 { return m.mem }

// Preload charges usage carried over from a resumed run (a checkpointed
// exploration continuing in a fresh meter) without tripping mid-call: the
// next Add* call observes the combined totals against the budget. The wall
// clock deliberately restarts — a resumed attempt gets a fresh wall budget,
// otherwise retrying a wall trip from a checkpoint could never progress.
func (m *Meter) Preload(steps, states, mem int64) {
	m.steps += steps
	m.states += states
	m.mem += mem
}

// Elapsed returns the wall-clock time since the meter started.
func (m *Meter) Elapsed() time.Duration { return time.Since(m.start) }

// Check verifies the context and the wall budget unconditionally. The
// returned error wraps ctx.Err() (so errors.Is(err, context.Canceled) and
// context.DeadlineExceeded work) or is a *BudgetError.
func (m *Meter) Check() error {
	if err := m.ctx.Err(); err != nil {
		return fmt.Errorf("run: cancelled after %d steps, %d states: %w", m.steps, m.states, err)
	}
	if m.b.MaxWall > 0 {
		if used := time.Since(m.start); used > m.b.MaxWall {
			return &BudgetError{Resource: "wall", Limit: int64(m.b.MaxWall), Used: int64(used)}
		}
	}
	m.sinceCk = 0
	return nil
}

// AddStep charges one step and periodically re-checks context and wall
// budget.
func (m *Meter) AddStep() error { return m.AddSteps(1) }

// AddSteps charges n steps.
func (m *Meter) AddSteps(n int64) error {
	m.steps += n
	if m.b.MaxSteps > 0 && m.steps > m.b.MaxSteps {
		return &BudgetError{Resource: "steps", Limit: m.b.MaxSteps, Used: m.steps}
	}
	m.sinceCk += n
	if m.sinceCk >= checkEvery {
		return m.Check()
	}
	return nil
}

// AddMem charges delta bytes of retained memory that is not itself a
// state — a reduction's per-state side tables. A negative delta releases
// memory charged earlier; only growth can trip MaxMemEstimate.
func (m *Meter) AddMem(delta int64) error {
	m.mem += delta
	if delta > 0 && m.b.MaxMemEstimate > 0 && m.mem > m.b.MaxMemEstimate {
		return &BudgetError{Resource: "memory", Limit: m.b.MaxMemEstimate, Used: m.mem}
	}
	return nil
}

// AddState charges one interned state of approximately memEstimate bytes
// and periodically re-checks context and wall budget.
func (m *Meter) AddState(memEstimate int64) error {
	m.states++
	if m.b.MaxStates > 0 && m.states > int64(m.b.MaxStates) {
		return &BudgetError{Resource: "states", Limit: int64(m.b.MaxStates), Used: m.states}
	}
	m.mem += memEstimate
	if m.b.MaxMemEstimate > 0 && m.mem > m.b.MaxMemEstimate {
		return &BudgetError{Resource: "memory", Limit: m.b.MaxMemEstimate, Used: m.mem}
	}
	m.sinceCk++
	if m.sinceCk >= checkEvery {
		return m.Check()
	}
	return nil
}
