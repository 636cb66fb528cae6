package check

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"tradingfences/internal/lang"
	"tradingfences/internal/locks"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// FCFSSubject instruments a lock that declares a wait-free doorway for
// first-come-first-served checking (Lamport's fairness notion: if p
// completes its doorway before q enters its doorway, then q does not enter
// the critical section before p).
//
// Three probe reads delimit the phases:
//
//	read(DS)   — doorway start
//	<doorway>
//	read(DE)   — doorway end
//	<waiting>
//	read(CS)   — critical-section entry
//	<release>
//
// FCFS is a *path* property, so the exhaustive search explores the product
// of the machine's state space with a finite precedence monitor (which
// doorway-precedence pairs hold, and who has entered the critical
// section); the monitor state is folded into the visited-set fingerprint,
// keeping the pruning sound.
type FCFSSubject struct {
	Name   string
	Build  func(model machine.Model) (*machine.Config, error)
	DS, DE machine.Reg
	CS     machine.Reg
	n      int
}

// NewFCFSSubject builds the instrumented workload (one passage per
// process). The lock must declare a doorway.
func NewFCFSSubject(name string, ctor locks.Constructor, n int) (*FCFSSubject, error) {
	lay := machine.NewLayout()
	lk, err := ctor(lay, "lk", n)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if !lk.HasDoorway() {
		return nil, fmt.Errorf("check: lock %s declares no doorway; FCFS is undefined for it", lk.Name())
	}
	probes, err := lay.Alloc("fcfs.probe", 3, machine.Unowned)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	ds, de, cs := probes.At(0), probes.At(1), probes.At(2)

	stmts := []lang.Stmt{lang.Read("_ds", lang.I(ds))}
	stmts = append(stmts, lk.Doorway()...)
	stmts = append(stmts, lang.Read("_de", lang.I(de)))
	stmts = append(stmts, lk.Waiting()...)
	stmts = append(stmts, lang.Read("_cs", lang.I(cs)))
	stmts = append(stmts, lk.Release()...)
	stmts = append(stmts, lang.Fence(), lang.Return(lang.I(0)))
	prog := lang.NewProgram(name, stmts...)

	progs := make([]*lang.Program, n)
	for i := range progs {
		progs[i] = prog
	}
	return &FCFSSubject{
		Name: name,
		Build: func(model machine.Model) (*machine.Config, error) {
			return machine.NewConfig(model, lay, progs)
		},
		DS: ds, DE: de, CS: cs,
		n: n,
	}, nil
}

// fcfsMonitor is the finite precedence automaton run alongside the
// machine: per process the phase (0 = before doorway, 1 = in doorway,
// 2 = waiting, 3 = in/past CS) and the doorway-precedence relation.
type fcfsMonitor struct {
	phase []uint8
	// precede[p*n+q] is set when p completed its doorway before q started
	// its doorway.
	precede []bool
	n       int
}

func newFCFSMonitor(n int) *fcfsMonitor {
	return &fcfsMonitor{phase: make([]uint8, n), precede: make([]bool, n*n), n: n}
}

func (m *fcfsMonitor) clone() *fcfsMonitor {
	c := newFCFSMonitor(m.n)
	copy(c.phase, m.phase)
	copy(c.precede, m.precede)
	return c
}

// appendBytes appends the monitor state to a state-key buffer. The layout
// is fixed-width for a given n (n phase bytes, n² precedence bits as
// bytes), so appending it after the machine's self-delimiting state bytes
// keeps the combined encoding injective.
func (m *fcfsMonitor) appendBytes(buf []byte) []byte {
	buf = append(buf, m.phase...)
	for _, p := range m.precede {
		if p {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// observe advances the monitor on a probe read; it returns the overtaken
// process q (with violation=true) if the step is a CS entry by p while
// some q with doorway-precedence over p has not yet entered.
func (m *fcfsMonitor) observe(s *FCFSSubject, rec machine.StepRecord) (violator, overtaken int, violation bool) {
	if rec.Kind != machine.StepRead {
		return 0, 0, false
	}
	p := rec.P
	switch rec.Reg {
	case s.DS:
		m.phase[p] = 1
		// Everyone who already finished their doorway precedes p.
		for q := 0; q < m.n; q++ {
			if q != p && m.phase[q] >= 2 {
				m.precede[q*m.n+p] = true
			}
		}
	case s.DE:
		m.phase[p] = 2
	case s.CS:
		m.phase[p] = 3
		for q := 0; q < m.n; q++ {
			if q != p && m.precede[q*m.n+p] && m.phase[q] < 3 {
				return p, q, true
			}
		}
	}
	return 0, 0, false
}

// FCFSResult reports the outcome of an FCFS check.
type FCFSResult struct {
	// Violation is true if an execution was found in which a process
	// enters the critical section before another process that completed
	// its doorway first.
	Violation bool
	// Violator overtook Overtaken.
	Violator, Overtaken int
	// Witness is the violating schedule.
	Witness machine.Schedule
	// States is the number of distinct (machine × monitor) states.
	States int
	// Complete is true if the product state space was exhausted; together
	// with !Violation it proves FCFS for the bounded workload.
	Complete bool
}

// Exhaustive explores all schedules over the product of machine state and
// precedence monitor, bounded by opts.Budget and cancelled by ctx (budget
// trips return the partial result with a structured error). Fault plans
// are rejected: the precedence monitor is not crash-aware — a crashed
// process would keep its doorway-precedence obligations, which is not the
// notion Lamport's condition defines. Symmetry reduction is rejected too:
// the monitor's precedence relation distinguishes processes, so renaming
// them is not an automorphism of the product system. State-space
// reductions (Opts.Reduction) are rejected for the same structural
// reason: the commit-independence relation ignores the monitor, whose
// state every doorway step changes.
func (s *FCFSSubject) Exhaustive(ctx context.Context, model machine.Model, opts Opts) (FCFSResult, error) {
	if err := opts.noFaults("FCFS checking"); err != nil {
		return FCFSResult{}, err
	}
	if err := s.noSymmetry(opts); err != nil {
		return FCFSResult{}, err
	}
	if err := opts.noReduction("FCFS checking"); err != nil {
		return FCFSResult{}, err
	}
	c, err := s.Build(model)
	if err != nil {
		return FCFSResult{}, err
	}
	meter := run.NewMeter(ctx, opts.Budget)
	res := FCFSResult{Complete: true}
	visited := make(map[machine.StateKey]struct{}, 1024)
	var enc machine.KeyEncoder
	var keyBuf []byte

	// One successor slice per recursion depth (it stays live across the
	// recursive calls issued while iterating it) and a single register
	// slice (consumed before recursing).
	var elemScratch [][]machine.Elem
	regScratch := make([]machine.Reg, 0, 8)

	// The search walks the single configuration c: each edge is taken in
	// place with StepUndo and rolled back with Undo.Revert after the child
	// returns. Only the small precedence monitor is copied per edge.
	var dfs func(m *fcfsMonitor, path machine.Schedule, depth int) (bool, error)
	dfs = func(m *fcfsMonitor, path machine.Schedule, depth int) (bool, error) {
		var err error
		keyBuf, err = enc.AppendStateBytes(c, keyBuf[:0])
		if err != nil {
			return false, err
		}
		keyBuf = m.appendBytes(keyBuf)
		key := machine.HashStateKey(keyBuf)
		if _, seen := visited[key]; seen {
			return false, nil
		}
		if err := meter.AddState(machine.StateKeySize + stateKeyOverhead); err != nil {
			return false, err
		}
		visited[key] = struct{}{}

		if depth >= len(elemScratch) {
			elemScratch = append(elemScratch, make([]machine.Elem, 0, 8))
		}
		for p := 0; p < c.N(); p++ {
			if c.Halted(p) {
				continue
			}
			elems := append(elemScratch[depth][:0], machine.PBottom(p))
			regScratch = c.AppendBufferRegs(p, regScratch[:0])
			for _, r := range regScratch {
				if c.CanCommit(p, r) {
					elems = append(elems, machine.PReg(p, r))
				}
			}
			elemScratch[depth] = elems
			for _, e := range elems {
				if err := meter.AddStep(); err != nil {
					return false, err
				}
				rec, took, u, err := c.StepUndo(e)
				if err != nil {
					return false, err
				}
				if !took {
					continue
				}
				nm := m.clone()
				if violator, overtaken, bad := nm.observe(s, rec); bad {
					u.Revert()
					res.Violation = true
					res.Violator, res.Overtaken = violator, overtaken
					res.Witness = append(append(machine.Schedule(nil), path...), e)
					return true, nil
				}
				found, err := dfs(nm, append(path, e), depth+1)
				u.Revert()
				if err != nil || found {
					return found, err
				}
			}
		}
		return false, nil
	}

	if _, err := dfs(newFCFSMonitor(s.n), nil, 0); err != nil {
		res.States = len(visited)
		res.Complete = false
		return res, err
	}
	res.States = len(visited)
	if res.Violation {
		res.Complete = false
	}
	return res, nil
}

// noSymmetry rejects symmetry reduction for FCFS checking: the precedence
// monitor's state is indexed by concrete process IDs, so process renaming
// is not an automorphism of the product system and orbit keys would be
// unsound. Rejecting (rather than silently ignoring the flag) keeps the
// "requested but inapplicable" case loud.
func (s *FCFSSubject) noSymmetry(opts Opts) error {
	if !opts.Symmetry {
		return nil
	}
	return errors.New("check: FCFS checking distinguishes processes (the precedence monitor is asymmetric); symmetry reduction is unsupported")
}

// Random hunts for FCFS violations with random schedules, bounded by
// opts.Budget and cancelled by ctx. Fault plans, symmetry reduction and
// state-space reductions are rejected (see Exhaustive).
func (s *FCFSSubject) Random(ctx context.Context, model machine.Model, rng *rand.Rand, runs, maxSteps int, commitProb float64, opts Opts) (FCFSResult, error) {
	if err := opts.noFaults("FCFS checking"); err != nil {
		return FCFSResult{}, err
	}
	if err := s.noSymmetry(opts); err != nil {
		return FCFSResult{}, err
	}
	if err := opts.noReduction("FCFS checking"); err != nil {
		return FCFSResult{}, err
	}
	meter := run.NewMeter(ctx, opts.Budget)
	var res FCFSResult
	for r := 0; r < runs; r++ {
		c, err := s.Build(model)
		if err != nil {
			return FCFSResult{}, err
		}
		m := newFCFSMonitor(s.n)
		var path machine.Schedule
		for step := 0; step < maxSteps && !c.AllHalted(); step++ {
			if err := meter.AddStep(); err != nil {
				return res, err
			}
			var live []int
			for p := 0; p < c.N(); p++ {
				if !c.Halted(p) {
					live = append(live, p)
				}
			}
			p := live[rng.Intn(len(live))]
			e := machine.PBottom(p)
			if regs := c.BufferRegs(p); len(regs) > 0 && rng.Float64() < commitProb {
				r := regs[rng.Intn(len(regs))]
				if c.CanCommit(p, r) {
					e = machine.PReg(p, r)
				}
			}
			rec, took, err := c.Step(e)
			if err != nil {
				return FCFSResult{}, err
			}
			if !took {
				continue
			}
			path = append(path, e)
			res.States++
			if violator, overtaken, bad := m.observe(s, rec); bad {
				res.Violation = true
				res.Violator, res.Overtaken = violator, overtaken
				res.Witness = path
				return res, nil
			}
		}
	}
	return res, nil
}
