package check

import (
	"context"
	"fmt"
	"math"

	"tradingfences/internal/machine"
	"tradingfences/internal/run"
)

// nodeMemEstimate is the per-node retained cost of the progress graph
// beyond the fingerprint: the index entry, the compact node record and its
// successor ids. Measured at ~66 B (82 B with the fingerprint) on
// bakery-n3/SC at the end of exploration. The analysis then releases the
// index before building its reverse adjacency (~4 B per node and per
// edge). TestProgressMemEstimateHonest holds the meter to the live heap.
const nodeMemEstimate = 72

// ProgressResult reports the liveness analysis of a subject.
type ProgressResult struct {
	// States is the number of distinct reachable states.
	States int
	// Complete is true if the reachable state space was fully explored
	// within the bounds.
	Complete bool
	// DeadlockFree is true if from every reachable state some schedule
	// completes all processes (no reachable dead or livelocked component).
	DeadlockFree bool
	// StuckStates counts reachable states from which no completion is
	// reachable; StuckWitness is a schedule into one of them (empty if
	// none).
	StuckStates  int
	StuckWitness machine.Schedule
	// WeakObstructionFree is true if in every reachable configuration in
	// which all processes but one are in their initial or final states,
	// the remaining process terminates when run alone (the paper's
	// Section 2 progress condition).
	WeakObstructionFree bool
	// WOFWitness leads to a configuration refuting weak obstruction-
	// freedom (empty if none).
	WOFWitness machine.Schedule
}

// CheckProgress builds the full reachable state graph of the subject under
// the given model (bounded by maxStates) and verifies two liveness
// properties:
//
//   - deadlock freedom: every reachable state can still reach a state in
//     which all processes have returned (checked by reverse reachability
//     from the terminal states);
//   - weak obstruction-freedom: wherever all processes but one are initial
//     or final, the remaining process finishes solo.
//
// Spin-lock subjects have cyclic state graphs, so simple "no successor"
// deadlock detection would be vacuous; reverse reachability from the
// terminal states is the right notion (a livelocked component fails it).
//
// The exploration is bounded by opts.Budget and cancelled by ctx. When the
// state budget trips, the analysis finishes on the truncated graph
// (Complete=false, DeadlockFree=false — proving nothing) and the partial
// result is returned together with the *run.BudgetError. Fault plans are
// rejected: the liveness notions above are defined for crash-free
// executions. State-space reductions (Opts.Reduction) are rejected too:
// the reduction soundness arguments cover reachability of
// mutual-exclusion violations, not the successor-graph structure this
// analysis inspects (an ample-reduced graph drops edges deadlock-freedom
// must see, and bounded semantics drop whole executions).
func (s *Subject) CheckProgress(ctx context.Context, model machine.Model, opts Opts) (*ProgressResult, error) {
	if err := opts.noFaults("liveness analysis"); err != nil {
		return nil, err
	}
	if err := opts.noReduction("liveness analysis"); err != nil {
		return nil, err
	}
	res := &ProgressResult{}
	g, err := s.exploreProgress(run.NewMeter(ctx, opts.Budget), model, res)
	if g == nil {
		return nil, err
	}
	res.Complete = err == nil
	g.analyse(res)
	return res, err
}

// progressNode is what the liveness graph keeps per reachable state: no
// configuration, only the witness link and the adjacency the analysis
// needs.
type progressNode struct {
	via            machine.Elem // element taken from parent
	parent         int32        // node the exploration reached this state from (-1 root)
	succLo, succHi int32        // successor ids are progressGraph.succs[succLo:succHi]
	term           bool         // all processes halted
}

// progressGraph is the reachable state graph a liveness analysis runs on.
type progressGraph struct {
	index map[machine.StateKey]int32 // fingerprint → node id; exploration only
	nodes []progressNode
	succs []int32
}

// exploreProgress builds the reachable state graph depth-first over a
// single configuration: each edge is taken in place with StepUndo and
// rolled back with Undo.Revert, so the graph retains compact per-node
// records instead of a configuration per node. The weak obstruction-
// freedom condition is checked at each state on first discovery, while
// the live configuration (including the Stats().Steps the precondition
// reads, which the undo log restores) is the one the exploration path
// reached. A limit error is returned with the graph built so far; any
// other error, or a limit tripped by the root itself, with a nil graph.
func (s *Subject) exploreProgress(meter *run.Meter, model machine.Model, res *ProgressResult) (*progressGraph, error) {
	c, err := s.Build(model)
	if err != nil {
		return nil, err
	}
	g := &progressGraph{index: make(map[machine.StateKey]int32, 1024)}
	var enc machine.KeyEncoder
	var keyBuf []byte

	intern := func(parent int32, via machine.Elem) (int32, bool, error) {
		var err error
		keyBuf, err = enc.AppendStateBytes(c, keyBuf[:0])
		if err != nil {
			return 0, false, err
		}
		key := machine.HashStateKey(keyBuf)
		if id, ok := g.index[key]; ok {
			return id, false, nil
		}
		if len(g.nodes) == math.MaxInt32 {
			return 0, false, fmt.Errorf("check: liveness graph exceeds %d states", math.MaxInt32)
		}
		if err := meter.AddState(machine.StateKeySize + nodeMemEstimate); err != nil {
			return 0, false, err
		}
		id := int32(len(g.nodes))
		g.index[key] = id
		g.nodes = append(g.nodes, progressNode{parent: parent, via: via})
		return id, true, nil
	}

	// Reusable scratch, one slice per recursion depth: a depth's successor
	// elements and successor ids stay live across the recursive calls
	// issued while iterating them. The register slice is consumed before
	// recursing.
	var elemScratch [][]machine.Elem
	var succScratch [][]int32
	regScratch := make([]machine.Reg, 0, 8)

	var expand func(id int32, depth int) error
	expand = func(id int32, depth int) error {
		g.nodes[id].term = c.AllHalted()
		// Weak obstruction-freedom precondition: all but (at most) one
		// process initial or final.
		if err := s.checkWOFAt(c, res, func() machine.Schedule { return g.pathTo(id) }); err != nil {
			return err
		}
		if depth >= len(elemScratch) {
			elemScratch = append(elemScratch, make([]machine.Elem, 0, 8))
			succScratch = append(succScratch, make([]int32, 0, 8))
		}
		succs := succScratch[depth][:0]
		err := func() error {
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
						return err
					}
					_, took, u, err := c.StepUndo(e)
					if err != nil {
						return err
					}
					if !took {
						continue
					}
					sid, fresh, err := intern(id, e)
					if err == nil {
						succs = append(succs, sid)
						if fresh {
							err = expand(sid, depth+1)
						}
					}
					u.Revert()
					if err != nil {
						return err
					}
				}
			}
			return nil
		}()
		// Record the successors found so far even when unwinding on a
		// limit: the analysis then runs on the truncated graph.
		nd := &g.nodes[id]
		nd.succLo = int32(len(g.succs))
		g.succs = append(g.succs, succs...)
		nd.succHi = int32(len(g.succs))
		succScratch[depth] = succs[:0]
		return err
	}

	rootID, _, err := intern(-1, machine.Elem{})
	if err != nil {
		return nil, err
	}
	err = expand(rootID, 0)
	if err != nil && !run.IsLimit(err) {
		return nil, err
	}
	return g, err
}

// pathTo reconstructs the schedule from the root to node id.
func (g *progressGraph) pathTo(id int32) machine.Schedule {
	var rev machine.Schedule
	for ; g.nodes[id].parent >= 0; id = g.nodes[id].parent {
		rev = append(rev, g.nodes[id].via)
	}
	sched := make(machine.Schedule, len(rev))
	for i := range rev {
		sched[len(rev)-1-i] = rev[i]
	}
	return sched
}

// analyse fills in the deadlock-freedom verdict: every state must reach a
// terminal state, checked by reverse reachability from the terminal
// states. The weak obstruction-freedom verdict follows from the witness
// the exploration recorded.
func (g *progressGraph) analyse(res *ProgressResult) {
	g.index = nil // release it before the reverse adjacency is built
	res.States = len(g.nodes)

	// Reverse adjacency in compressed form: pred[predLo[id]:predLo[id+1]]
	// are the predecessors of id. predLo first counts in-degrees, then
	// holds each range's end, and ends at each range's start as the fill
	// loop counts it back down.
	predLo := make([]int32, len(g.nodes)+1)
	for _, sid := range g.succs {
		predLo[sid]++
	}
	for id := 1; id < len(predLo); id++ {
		predLo[id] += predLo[id-1]
	}
	pred := make([]int32, len(g.succs))
	for id, nd := range g.nodes {
		for _, sid := range g.succs[nd.succLo:nd.succHi] {
			predLo[sid]--
			pred[predLo[sid]] = int32(id)
		}
	}

	canFinish := make([]bool, len(g.nodes))
	var queue []int32
	for id, nd := range g.nodes {
		if nd.term {
			canFinish[id] = true
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, pid := range pred[predLo[id]:predLo[id+1]] {
			if !canFinish[pid] {
				canFinish[pid] = true
				queue = append(queue, pid)
			}
		}
	}
	res.DeadlockFree = true
	for id := range g.nodes {
		if !canFinish[id] {
			res.DeadlockFree = false
			res.StuckStates++
			if res.StuckWitness == nil {
				res.StuckWitness = g.pathTo(int32(id))
			}
		}
	}
	if !res.Complete {
		// With a truncated graph, absence of stuck states proves nothing.
		res.DeadlockFree = false
	}
	res.WeakObstructionFree = res.WOFWitness == nil
}

// checkWOFAt tests the weak obstruction-freedom condition at one state;
// path lazily reconstructs the schedule for the witness.
func (s *Subject) checkWOFAt(c *machine.Config, res *ProgressResult, path func() machine.Schedule) error {
	if res.WOFWitness != nil {
		return nil
	}
	// The paper's condition quantifies over every process p such that all
	// *other* processes are initial or final. With at most one
	// mid-execution process, that process must solo-terminate; if all
	// processes are initial or final, every non-final process must.
	active := -1
	for p := 0; p < c.N(); p++ {
		initial := c.Stats().Steps[p] == 0
		if c.Halted(p) || initial {
			continue
		}
		if active >= 0 {
			return nil // two mid-execution processes: precondition fails
		}
		active = p
	}
	var candidates []int
	if active >= 0 {
		candidates = []int{active}
	} else {
		for p := 0; p < c.N(); p++ {
			if !c.Halted(p) {
				candidates = append(candidates, p)
			}
		}
	}
	for _, p := range candidates {
		clone := c.Clone()
		halted, err := clone.RunSolo(p, machine.DefaultSoloLimit(c.N()))
		if err != nil {
			return err
		}
		if !halted {
			res.WOFWitness = path()
			if res.WOFWitness == nil {
				res.WOFWitness = machine.Schedule{}
			}
			return nil
		}
	}
	return nil
}

// String renders a one-line summary.
func (r *ProgressResult) String() string {
	return fmt.Sprintf("states=%d complete=%v deadlockFree=%v weakObstructionFree=%v stuck=%d",
		r.States, r.Complete, r.DeadlockFree, r.WeakObstructionFree, r.StuckStates)
}
