package lang

import (
	"fmt"
	"sort"
)

// This file compiles a Program for execution and identity. Every program
// point and every local variable gets a small, build-stable integer
// identity, and every statement is compiled against those identities:
// local references become slots, nested blocks become block IDs. A
// ProcState is then a few dense slices (locals by slot, a bound bitmask,
// a control stack of packed frames), so executing, keying, cloning and
// restoring it never touches a map.
//
// The legacy string fingerprint (AppendFingerprint) identifies program
// points by the address of a statement block's backing array — canonical
// only within one OS process. The code index walks the program's
// statement tree once, in deterministic order, and assigns dense IDs, so
// two processes that build the same program from the same source assign
// the same IDs. That is what lets checkpoint v3 reuse visited-state
// shards across OS processes.

// blockKey identifies a statement block by its backing array address and
// length. The same (address, length) pair implies identical contents —
// ASTs are immutable once built — while the length distinguishes prefix
// slices that alias the same backing array (a doorway split is
// acquire[:k]). This is the legacy fingerprint's %p identity made exact.
type blockKey struct {
	first *Stmt
	n     int
}

func keyOf(b []Stmt) blockKey { return blockKey{first: &b[0], n: len(b)} }

// opcode is a compiled statement's kind.
type opcode uint8

const (
	opUnknown opcode = iota // a Stmt of a type the interpreter does not know
	opAssign
	opIf
	opWhile
	opRead
	opWrite
	opFence
	opTAS
	opReturn
)

// instr is one compiled statement.
type instr struct {
	op opcode
	// dst is the destination slot of an assignment, read or TAS.
	dst int32
	// a is the assigned, returned or tested expression, or the register
	// operand of a read, write or TAS; b is the value operand of a write
	// or TAS.
	a, b evaluator
	// body is the Then block of an if or the body block of a while; els
	// is the Else block of an if (0 = empty block).
	body, els int32
	// loop is a while statement's loop ID.
	loop int32
}

// codeIndex is the compiled form of one Program. Block and loop IDs are
// assigned in a deterministic pre-order walk of the statement tree, so
// they are stable across builds and OS processes. Both start at 1; ID 0
// is the empty block / "no loop".
type codeIndex struct {
	// blocks[id] is block id's compiled statements and src[id] its source
	// slice (the legacy fingerprint's identity); blocks[0] is empty.
	blocks [][]instr
	src    [][]Stmt
	// loops[id] is loop id's statement (legacy identity) and loopCond[id]
	// its compiled condition; entry 0 is unused.
	loops    []*WhileStmt
	loopCond []evaluator
	// localNames lists the bindable locals in slot order (sorted), and
	// slots maps each back to its slot.
	localNames []string
	slots      map[string]int32
	// words is the bound bitmask's length in 64-bit words.
	words int
	// body and recovery are the block IDs of Program.Body and
	// Program.Recovery; durable lists the slots of Program.Durable that
	// name bindable locals (the others can never be bound).
	body, recovery int32
	durable        []int32
	// err, when set, is why the program cannot run; every process state
	// built for it starts failed with it.
	err error
}

// index returns the program's code index, building it on first use. The
// index lives on the Program, so it is freed with it (synthesis and the
// daemon build programs per candidate and per job). Racing builders
// produce identical indexes; the first stored wins. It is built the
// first time a process state is created for the program, so the
// program's fields must be final by then.
func (p *Program) index() *codeIndex {
	if ci := p.code.Load(); ci != nil {
		return ci
	}
	p.code.CompareAndSwap(nil, buildCodeIndex(p))
	return p.code.Load()
}

func buildCodeIndex(p *Program) *codeIndex {
	ci := &codeIndex{src: [][]Stmt{nil}, loops: []*WhileStmt{nil}}
	blockIDs := make(map[blockKey]int32)
	loopIDs := make(map[*WhileStmt]int32)
	names := make(map[string]bool)
	var walk func(b []Stmt)
	walk = func(b []Stmt) {
		if len(b) == 0 {
			return
		}
		k := keyOf(b)
		if _, seen := blockIDs[k]; seen {
			// A shared fragment referenced twice: one ID suffices, because
			// a frame's continuation is determined by its parent frames,
			// not by which occurrence pushed it.
			return
		}
		blockIDs[k] = int32(len(ci.src))
		ci.src = append(ci.src, b)
		for _, st := range b {
			switch st := st.(type) {
			case *AssignStmt:
				names[st.Dst] = true
			case *ReadStmt:
				names[st.Dst] = true
			case *TasStmt:
				names[st.Dst] = true
			case *IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *WhileStmt:
				if _, seen := loopIDs[st]; !seen {
					loopIDs[st] = int32(len(ci.loops))
					ci.loops = append(ci.loops, st)
				}
				walk(st.Body)
			}
		}
	}
	walk(p.Body)
	// The recovery section is walked after the body so that adding one to
	// an existing program never renumbers the body's blocks or loops.
	walk(p.Recovery)

	// Slots in sorted-name order, matching the legacy string fingerprint's
	// sorted encoding so both induce the same state partition.
	ci.localNames = make([]string, 0, len(names))
	for n := range names {
		ci.localNames = append(ci.localNames, n)
	}
	sort.Strings(ci.localNames)
	ci.slots = make(map[string]int32, len(ci.localNames))
	for i, n := range ci.localNames {
		ci.slots[n] = int32(i)
	}
	ci.words = (len(ci.localNames) + 63) / 64

	// Frames pack their IDs and cursor into one word (see packFrame). A
	// program that does not fit fails every process state built for it.
	longest := 0
	for _, b := range ci.src {
		longest = max(longest, len(b))
	}
	switch {
	case len(ci.src)-1 > maxFrameBlock || len(ci.loops)-1 > maxFrameLoop || longest > maxFrameIdx:
		ci.err = fmt.Errorf("program %s is too large: %d blocks, %d loops, longest block %d statements", p.Name, len(ci.src)-1, len(ci.loops)-1, longest)
		return ci
	case len(p.Recovery) > 0 && (p.ResumeAt < 0 || p.ResumeAt > maxFrameIdx):
		ci.err = fmt.Errorf("program %s: ResumeAt %d out of range", p.Name, p.ResumeAt)
		return ci
	}

	id := func(b []Stmt) int32 {
		if len(b) == 0 {
			return 0
		}
		return blockIDs[keyOf(b)]
	}
	ci.blocks = make([][]instr, len(ci.src))
	for bid, b := range ci.src {
		code := make([]instr, len(b))
		for i, st := range b {
			code[i] = ci.compileStmt(st, id, loopIDs)
		}
		ci.blocks[bid] = code
	}
	ci.loopCond = make([]evaluator, len(ci.loops))
	for lid := 1; lid < len(ci.loops); lid++ {
		ci.loopCond[lid] = ci.loops[lid].Cond.compile(ci.slots)
	}
	ci.body, ci.recovery = id(p.Body), id(p.Recovery)
	for _, n := range p.Durable {
		if slot, ok := ci.slots[n]; ok {
			ci.durable = append(ci.durable, slot)
		}
	}
	return ci
}

// compileStmt compiles one statement; id resolves a nested block and
// loopIDs a while statement.
func (ci *codeIndex) compileStmt(st Stmt, id func([]Stmt) int32, loopIDs map[*WhileStmt]int32) instr {
	switch st := st.(type) {
	case *AssignStmt:
		return instr{op: opAssign, dst: ci.slots[st.Dst], a: st.E.compile(ci.slots)}
	case *ReadStmt:
		return instr{op: opRead, dst: ci.slots[st.Dst], a: st.Reg.compile(ci.slots)}
	case *TasStmt:
		return instr{op: opTAS, dst: ci.slots[st.Dst], a: st.Reg.compile(ci.slots), b: st.Val.compile(ci.slots)}
	case *WriteStmt:
		return instr{op: opWrite, a: st.Reg.compile(ci.slots), b: st.Val.compile(ci.slots)}
	case *FenceStmt:
		return instr{op: opFence}
	case *ReturnStmt:
		return instr{op: opReturn, a: st.E.compile(ci.slots)}
	case *IfStmt:
		return instr{op: opIf, a: st.Cond.compile(ci.slots), body: id(st.Then), els: id(st.Else)}
	case *WhileStmt:
		return instr{op: opWhile, a: st.Cond.compile(ci.slots), body: id(st.Body), loop: loopIDs[st]}
	default:
		return instr{op: opUnknown}
	}
}

// A frame is one entry of the interpreter's control stack, packed into a
// single word so the whole stack lives in the process state's value slab:
// the statement block's ID, the loop ID (non-zero for a loop body: when
// the cursor passes the end, the loop condition is re-evaluated instead
// of popping unconditionally) and the cursor into the block. The cursor
// occupies the low bits, so advancing it is an increment.
const (
	frameIdxBits   = 23
	frameLoopBits  = 20
	frameBlockBits = 20

	maxFrameIdx   = 1<<frameIdxBits - 1
	maxFrameLoop  = 1<<frameLoopBits - 1
	maxFrameBlock = 1<<frameBlockBits - 1

	frameIdxMask = Value(maxFrameIdx)
)

func packFrame(block, loop int32, idx int) Value {
	return Value(block)<<(frameIdxBits+frameLoopBits) | Value(loop)<<frameIdxBits | Value(idx)
}

func frameBlock(f Value) int32 { return int32(f >> (frameIdxBits + frameLoopBits)) }
func frameLoop(f Value) int32  { return int32(f>>frameIdxBits) & maxFrameLoop }
func frameIdx(f Value) int     { return int(f & frameIdxMask) }

// LocalNames returns the local variables the program can bind, sorted.
// A local's index here is its slot (see AppendStateKey). The returned
// slice is shared; callers must not modify it.
func (p *Program) LocalNames() []string { return p.index().localNames }
