package check

import (
	"context"
	"unsafe"

	"tradingfences/internal/lang"
	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// Commit-step partial-order reduction with sleep sets (Opts.Reduction.POR)
// for the sequential exhaustive explorer. DESIGN.md §5j gives the full
// soundness story; the shape is:
//
// Ample sets. At a node where some process p has an empty write buffer and
// is poised at a process-local operation — a buffered write under TSO/PSO,
// a fence over the empty buffer, or a return — every enabled transition of
// p (its program step, plus its crash when budget remains) touches only
// p-private state: p's buffer, p's interpreter state, p's cache row, p's
// statistics. Those transitions are independent of every transition of
// every other process regardless of the future, so {⊥(p)} (∪ {crash(p)})
// is a persistent set and the node expands only it. Two guards keep the
// classical side conditions: the step must not move p into the critical
// section (invisibility — checked concretely on the stepped configuration
// rather than argued syntactically, so instrumented subjects with unusual
// probe placement stay safe), and no ample successor may sit on the DFS
// stack (the Holzmann–Peled cycle proviso; on a hit the node is fully
// expanded). Reads are never ample: they observe shared memory.
//
// Sleep sets. Within a full expansion, once commit(p, r) has been explored
// at a node, exploring a later independent sibling need not re-explore
// commit(p, r) from the sibling's successor — both orders commute to the
// same state. Commits by different processes to different registers are
// independent: they touch disjoint memory cells, disjoint last-committer
// entries, disjoint cache rows and disjoint statistics rows, and (for RME
// subjects) a commit never opens or closes a passage window, so the
// watermark accounting commutes exactly. The sleep set carried down an
// edge holds the commits whose exploration is already covered; a sleeping
// candidate is skipped. Because states are cached, each visited state
// stores the sleep set it is covered for; reaching it again with a sleep
// set that is not a superset re-expands it with the smaller set and stores
// the intersection (Godefroid's state-caching treatment — coverage shrinks
// monotonically, so the refinement terminates).
//
// Both reductions compose with symmetry keying, adversarial crash budgets
// and the reorder bound; the randomized fallback never runs reduced.

// porCommit identifies a commit transition (process, register) for sleep
// sets.
type porCommit struct {
	p int
	r machine.Reg
}

// porCommitBytes is the size of one stored sleep-set element.
const porCommitBytes = int64(unsafe.Sizeof(porCommit{}))

// sleepSetBytes is the memory charge of a stored sleep set of n commits:
// its visitedSleep entry (a second copy of the state key plus the map
// bookkeeping every visited state is charged) and its backing array. An
// empty set is not stored and costs nothing.
func sleepSetBytes(n int) int64 {
	if n == 0 {
		return 0
	}
	return machine.StateKeySize + stateKeyOverhead + int64(n)*porCommitBytes
}

// porSearchDone is a test-only hook: when set, exhaustivePOR hands it the
// run's meter and final stored sleep sets, so tests can check the memory
// accounting against what the search actually retains.
var porSearchDone func(meter *run.Meter, visitedSleep map[machine.StateKey][]porCommit)

func sleepHas(s []porCommit, t porCommit) bool {
	for _, x := range s {
		if x == t {
			return true
		}
	}
	return false
}

// sleepSubset reports a ⊆ b.
func sleepSubset(a, b []porCommit) bool {
	for _, x := range a {
		if !sleepHas(b, x) {
			return false
		}
	}
	return true
}

// sleepIntersect returns a ∩ b as a fresh slice (nil when empty).
func sleepIntersect(a, b []porCommit) []porCommit {
	var out []porCommit
	for _, x := range a {
		if sleepHas(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// commitIndep reports whether the pending commit t is independent of the
// executed step (e, rec): both orders commute to the same configuration
// and neither enables or disables the other. Everything a commit touches
// is keyed by its process (buffer, cache row, stats row) or its register
// (memory cell, last-committer entry), so dependence needs the same
// process or a same-register shared-memory access. A buffered read
// (FromMemory=false) never observes memory; a buffered write (non-SC)
// only touches its own buffer. Crashes of other processes wipe only
// process-local state. Passage accounting commutes: commits never open or
// close a passage window, and the windows they charge are per-process.
func commitIndep(t porCommit, e machine.Elem, rec machine.StepRecord, model machine.Model) bool {
	if e.P == t.p {
		return false // program order: same process never commutes
	}
	if e.Crash {
		return true
	}
	switch rec.Kind {
	case machine.StepCommit, machine.StepTas:
		return rec.Reg != t.r
	case machine.StepRead:
		return !rec.FromMemory || rec.Reg != t.r
	case machine.StepWrite:
		// Under SC the write commits in-step; elsewhere it only buffers.
		return model != machine.SC || rec.Reg != t.r
	default: // fence, return: process-local
		return true
	}
}

// ampleCandidate returns the lowest process whose enabled transitions are
// all process-local — empty write buffer and poised at a buffered write
// (TSO/PSO), a fence, or a return — or -1 when no such process exists.
func (s *Subject) ampleCandidate(c *machine.Config, model machine.Model) (int, error) {
	for p := 0; p < c.N(); p++ {
		if c.Halted(p) || c.BufferLen(p) != 0 {
			continue
		}
		op, ok, err := c.NextOp(p)
		if err != nil {
			return -1, err
		}
		if !ok {
			continue
		}
		switch op.Kind {
		case lang.OpWrite:
			if model != machine.SC {
				return p, nil
			}
		case lang.OpFence, lang.OpReturn:
			return p, nil
		}
	}
	return -1, nil
}

// exhaustivePOR is Exhaustive under Opts.Reduction.POR: same contract,
// verdict and witness replayability, over the partial-order-reduced graph.
// It lives apart from the unreduced walker so that reduction off stays
// bit-identical to the historical explorer.
func (s *Subject) exhaustivePOR(ctx context.Context, model machine.Model, opts Opts) (Result, error) {
	maxCrashes, err := opts.exhaustiveCrashBudget()
	if err != nil {
		return Result{}, err
	}
	root, err := s.Build(model)
	if err != nil {
		return Result{}, err
	}
	root.SetReorderBound(opts.Reduction.ReorderBound)
	plog := s.attachPassages(root)
	meter := run.NewMeter(ctx, opts.Budget)
	visited := make(map[machine.StateKey]struct{}, 1024)
	// visitedSleep[k] is the sleep set state k is covered for; absent means
	// ∅ (covered for every revisit). onStack counts active expansions of a
	// state (refining re-expansions can nest on a cycle).
	visitedSleep := make(map[machine.StateKey][]porCommit, 64)
	onStack := make(map[machine.StateKey]int, 256)
	if porSearchDone != nil {
		defer func() { porSearchDone(meter, visitedSleep) }()
	}
	kr := s.newKeyer(opts)
	res := Result{
		Complete:        true,
		SymmetryApplied: kr.reduces(),
		ReorderBound:    root.ReorderBound(),
		PORApplied:      true,
	}

	// Per-depth scratch (a depth's slices stay live across the recursive
	// calls issued while iterating them); the register and occupancy
	// slices are consumed before recursing.
	var elemScratch [][]machine.Elem
	var sleepScratch, execScratch [][]porCommit
	regScratch := make([]machine.Reg, 0, 8)
	inScratch := make([]int, 0, root.N())

	var dfs func(c *machine.Config, path machine.Schedule, crashes, depth int, sleep []porCommit) (bool, error)

	// ampleOK probes every ample-set element from the current node: each
	// must take, must not move the ample process into the critical section
	// (invisibility), and must not land on a state with an active
	// expansion (cycle proviso). Probe steps are speculative — reverted,
	// not metered — and none of the ample operation kinds touches the
	// passage log, so RME watermarks see no phantom records.
	ampleOK := func(c *machine.Config, amp int, elems []machine.Elem, crashes int) (bool, error) {
		for _, e := range elems {
			_, took, u, err := c.StepUndo(e)
			if err != nil {
				return false, err
			}
			if !took {
				return false, nil
			}
			in, err := s.InCS(c, amp)
			if err != nil {
				u.Revert()
				return false, err
			}
			var key machine.StateKey
			if !in {
				nc := crashes
				if e.Crash {
					nc++
				}
				key, err = kr.key(c, nc, maxCrashes)
				if err != nil {
					u.Revert()
					return false, err
				}
			}
			u.Revert()
			if in || onStack[key] > 0 {
				return false, nil
			}
		}
		return true, nil
	}

	// expand enumerates and explores the node's successors. It is called
	// on first visits and again on sleep-refining revisits; state
	// interning, the violation check and onStack bookkeeping live in dfs.
	expand := func(c *machine.Config, path machine.Schedule, crashes, depth int, sleep []porCommit) (bool, error) {
		for depth >= len(elemScratch) {
			elemScratch = append(elemScratch, make([]machine.Elem, 0, 8))
			sleepScratch = append(sleepScratch, nil)
			execScratch = append(execScratch, nil)
		}

		// Ample attempt: a singleton-process persistent set.
		amp, err := s.ampleCandidate(c, model)
		if err != nil {
			return false, err
		}
		if amp >= 0 {
			elems := append(elemScratch[depth][:0], machine.PBottom(amp))
			if crashes < maxCrashes {
				elems = append(elems, machine.PCrash(amp))
			}
			elemScratch[depth] = elems
			ok, err := ampleOK(c, amp, elems, crashes)
			if err != nil {
				return false, err
			}
			if ok {
				for _, e := range elems {
					if err := meter.AddStep(); err != nil {
						return false, err
					}
					_, took, u, err := c.StepUndo(e)
					if err != nil {
						return false, err
					}
					if !took {
						continue
					}
					nc := crashes
					if e.Crash {
						nc++
					}
					// Ample steps are process-local, so every sleeping
					// commit (all owned by other processes — amp's own
					// commits would need a non-empty buffer) survives.
					found, err := dfs(c, append(path, e), nc, depth+1, sleep)
					u.Revert()
					if err != nil || found {
						return found, err
					}
				}
				return false, nil
			}
			// Guard failed: fall through to full expansion.
		}

		execd := execScratch[depth][:0]
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
			if crashes < maxCrashes {
				elems = append(elems, machine.PCrash(p))
			}
			elemScratch[depth] = elems
			for _, e := range elems {
				if e.HasReg && sleepHas(sleep, porCommit{p: e.P, r: e.Reg}) {
					// Asleep: an equivalent interleaving through this commit
					// was already explored at an ancestor; the stored-sleep
					// cache re-awakens it for paths that need it.
					continue
				}
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
				nc := crashes
				if e.Crash {
					nc++
				}
				cs := sleepScratch[depth][:0]
				for _, t := range sleep {
					if commitIndep(t, e, rec, model) {
						cs = append(cs, t)
					}
				}
				for _, t := range execd {
					if commitIndep(t, e, rec, model) {
						cs = append(cs, t)
					}
				}
				sleepScratch[depth] = cs
				found, err := dfs(c, append(path, e), nc, depth+1, cs)
				u.Revert()
				if err != nil || found {
					return found, err
				}
				if e.HasReg {
					execd = append(execd, porCommit{p: e.P, r: e.Reg})
				}
			}
		}
		execScratch[depth] = execd[:0]
		return false, nil
	}

	dfs = func(c *machine.Config, path machine.Schedule, crashes, depth int, sleep []porCommit) (bool, error) {
		key, err := kr.key(c, crashes, maxCrashes) // settles all processes
		if err != nil {
			return false, err
		}
		if _, seen := visited[key]; seen {
			stored, has := visitedSleep[key]
			if !has || sleepSubset(stored, sleep) {
				return false, nil // covered for this sleep set
			}
			// Covered only for a larger sleep set: shrink the stored
			// coverage first (guarantees termination on cycles), then
			// re-expand with the smaller set to explore what was slept.
			inter := sleepIntersect(stored, sleep)
			if err := meter.AddMem(sleepSetBytes(len(inter)) - sleepSetBytes(len(stored))); err != nil {
				return false, err
			}
			if len(inter) == 0 {
				delete(visitedSleep, key)
			} else {
				visitedSleep[key] = inter
			}
			onStack[key]++
			found, err := expand(c, path, crashes, depth, sleep)
			onStack[key]--
			return found, err
		}
		if err := meter.AddState(machine.StateKeySize + stateKeyOverhead); err != nil {
			return false, err
		}
		if err := meter.AddMem(sleepSetBytes(len(sleep))); err != nil {
			return false, err
		}
		visited[key] = struct{}{}
		if len(sleep) > 0 {
			visitedSleep[key] = append([]porCommit(nil), sleep...)
		}

		in, err := s.occupancyInto(c, inScratch[:0])
		if err != nil {
			return false, err
		}
		inScratch = in[:0]
		if len(in) >= 2 {
			res.Violation = true
			res.Witness = append(machine.Schedule(nil), path...)
			res.InCS = append([]int(nil), in...)
			return true, nil
		}

		onStack[key]++
		found, err := expand(c, path, crashes, depth, sleep)
		onStack[key]--
		return found, err
	}

	if _, err := dfs(root, nil, 0, 0, nil); err != nil {
		res.States = len(visited)
		res.Complete = false
		fillPassages(&res, plog)
		return res, err
	}
	res.States = len(visited)
	if res.Violation {
		res.Complete = false
	}
	fillPassages(&res, plog)
	return res, nil
}
