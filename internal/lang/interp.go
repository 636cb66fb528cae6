package lang

import (
	"errors"
	"fmt"
)

// OpKind enumerates the shared-memory operations a process can be poised to
// execute — the paper's read(), write(), fence() and return() operations.
type OpKind int

// Shared-memory operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpFence
	OpReturn
	OpTAS
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFence:
		return "fence"
	case OpReturn:
		return "return"
	case OpTAS:
		return "tas"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is the shared-memory operation a process is poised to execute,
// with its arguments already evaluated (expressions are pure, so early
// evaluation is sound).
type Op struct {
	Kind OpKind
	// Reg is the register operand for OpRead and OpWrite.
	Reg Value
	// Val is the value operand for OpWrite and OpReturn.
	Val Value
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read(%d)", o.Reg)
	case OpWrite:
		return fmt.Sprintf("write(%d, %d)", o.Reg, o.Val)
	case OpFence:
		return "fence()"
	case OpReturn:
		return fmt.Sprintf("return(%d)", o.Val)
	case OpTAS:
		return fmt.Sprintf("tas(%d, %d)", o.Reg, o.Val)
	default:
		return o.Kind.String()
	}
}

// ErrHalted is returned when stepping a process that is already in a final
// state.
var ErrHalted = errors.New("lang: process is in a final state")

// frameSlack is the spare control-stack capacity a fresh or cloned state
// reserves in its value slab, so the first few nested blocks push without
// reallocating.
const frameSlack = 4

// ProcState is the complete local state of one process executing a Program:
// its environment, control stack, pending operation, and final value. It is
// a value in the sense that Clone yields an independent deep copy; the
// encoder and the model checker rely on this.
//
// The variable-size state lives in one slab, vals: the locals by slot
// (env.Locals), then the bound bitmask (bit i set iff slot i is bound —
// an unbound local is distinguishable from one bound to 0), then the
// control stack of packed frames, whose spare capacity runs to the end of
// the slab. A stack that outgrows the slab moves out of it.
type ProcState struct {
	prog *Program
	code *codeIndex
	env  Env

	vals   []Value
	bound  []Value
	frames []Value

	// pending is the evaluated shared-memory operation the process is
	// poised to execute, valid when settled is true and halted is false.
	pending Op
	settled bool

	halted   bool
	retValue Value

	err error
}

// NewProcState returns the initial state of process pid (of n) executing
// prog.
func NewProcState(prog *Program, pid, n int) *ProcState {
	ci := prog.index()
	s := &ProcState{prog: prog, code: ci, env: Env{PID: pid, N: n}}
	s.resetSlab(len(ci.localNames)+ci.words, frameSlack)
	if ci.err != nil {
		s.fail(ci.err)
		return s
	}
	s.frames = append(s.frames, packFrame(ci.body, 0, 0))
	return s
}

// resetSlab points env.Locals, bound and an empty control stack into a
// slab whose first head words (the locals and the bitmask) are zero, with
// room for stack frames after them, reusing the current slab when it is
// large enough.
func (s *ProcState) resetSlab(head, stack int) {
	if cap(s.vals) < head+stack {
		s.vals = make([]Value, head+stack)
	} else {
		s.vals = s.vals[:cap(s.vals)]
		clear(s.vals[:head])
	}
	nl := len(s.code.localNames)
	s.env.Locals = s.vals[:nl:nl]
	s.bound = s.vals[nl:head:head]
	s.frames = s.vals[head:head]
}

// Clone returns an independent deep copy of the state. The copy's locals,
// bitmask and control stack share one allocation.
func (s *ProcState) Clone() *ProcState {
	c := &ProcState{}
	c.CopyFrom(s)
	return c
}

// CopyFrom makes s an independent copy of src (a distinct state), reusing
// s's storage when it is large enough — in steady state a copy allocates
// nothing. The machine's undo log snapshots a process this way before a
// program step and restores it on revert.
func (s *ProcState) CopyFrom(src *ProcState) {
	s.prog, s.code = src.prog, src.code
	s.env.PID, s.env.N = src.env.PID, src.env.N
	head := len(src.env.Locals) + len(src.bound)
	s.resetSlab(head, len(src.frames)+frameSlack)
	copy(s.vals, src.vals[:head])
	s.frames = append(s.frames, src.frames...)
	s.pending = src.pending
	s.settled = src.settled
	s.halted = src.halted
	s.retValue = src.retValue
	s.err = src.err
}

// PID returns the process identifier this state was instantiated with.
func (s *ProcState) PID() int { return s.env.PID }

// Restart returns a fresh initial state for the same program and process
// identity: the volatile-state loss of a crash fault. Locals, control
// stack, pending operation and any recorded error are discarded.
func (s *ProcState) Restart() *ProcState {
	return NewProcState(s.prog, s.env.PID, s.env.N)
}

// CrashRestart returns the post-crash state under the recoverable
// mutual-exclusion model. For a program with no recovery section it is a
// cold Restart. For a recoverable program, volatile locals and control
// state are lost but the program's declared durable locals survive, and
// the process re-enters execution at its recovery section; when recovery
// finishes, control resumes at Body[ResumeAt] rather than at the top of
// the program — the Chan–Woelfel recover→re-compete shape, not a fresh
// super-passage. Pending local computation is not run first: callers that
// crash a process mid-computation settle it (NextOp) beforehand.
func (s *ProcState) CrashRestart() *ProcState {
	p := s.prog
	if len(p.Recovery) == 0 {
		return s.Restart()
	}
	ns := NewProcState(p, s.env.PID, s.env.N)
	if ns.err != nil {
		return ns
	}
	for _, slot := range s.code.durable {
		if s.isBound(slot) {
			ns.set(slot, s.env.Locals[slot])
		}
	}
	// Bottom frame resumes the main body at ResumeAt once the recovery
	// frame on top of it is exhausted.
	ns.frames = append(ns.frames[:0],
		packFrame(s.code.body, 0, p.ResumeAt),
		packFrame(s.code.recovery, 0, 0),
	)
	return ns
}

// set binds local slot to v.
func (s *ProcState) set(slot int32, v Value) {
	s.env.Locals[slot] = v
	s.bound[slot>>6] |= 1 << (slot & 63)
}

// isBound reports whether local slot is bound.
func (s *ProcState) isBound(slot int32) bool {
	return s.bound[slot>>6]&(1<<(slot&63)) != 0
}

// Program returns the program this state executes.
func (s *ProcState) Program() *Program { return s.prog }

// Halted reports whether the process has executed return() and is in a
// final state.
func (s *ProcState) Halted() bool { return s.halted }

// ReturnValue returns the value of the final state; only meaningful when
// Halted is true.
func (s *ProcState) ReturnValue() Value { return s.retValue }

// Err returns the first evaluation error encountered (a program bug such as
// division by zero), or nil.
func (s *ProcState) Err() error { return s.err }

// Local returns the current value of a local variable (0 if unbound).
// Intended for tests and trace inspection.
func (s *ProcState) Local(name string) Value {
	if slot, ok := s.code.slots[name]; ok {
		return s.env.Locals[slot]
	}
	return 0
}

// fail records err and halts further progress.
func (s *ProcState) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("lang: %s (pid %d): %w", s.prog.Name, s.env.PID, err)
	}
	return s.err
}

// settle advances through local computation (assignments, control flow)
// until the process is poised at a shared-memory operation or has run off
// the end of its program. Running off the end without a return() is treated
// as return(0), keeping the paper's "each process executes return() exactly
// once" convention total.
func (s *ProcState) settle() error {
	if s.err != nil {
		return s.err
	}
	if s.halted || s.settled {
		return nil
	}
	ci := s.code
	// Guard against pure local-computation divergence (a while loop whose
	// condition never touches shared memory). Any correct program performs
	// a shared op or terminates within a bounded number of local steps.
	const localStepLimit = 1 << 22
	for steps := 0; ; steps++ {
		if steps > localStepLimit {
			return s.fail(errors.New("local computation exceeded step limit (divergent local loop?)"))
		}
		top := len(s.frames) - 1
		if top < 0 {
			// Program ended without an explicit return.
			s.pending = Op{Kind: OpReturn, Val: 0}
			s.settled = true
			return nil
		}
		f := s.frames[top]
		block := ci.blocks[frameBlock(f)]
		idx := frameIdx(f)
		if idx >= len(block) {
			if loop := frameLoop(f); loop != 0 {
				c, err := ci.loopCond[loop].eval(&s.env)
				if err != nil {
					return s.fail(err)
				}
				if c != 0 {
					s.frames[top] = f &^ frameIdxMask
					continue
				}
			}
			s.frames = s.frames[:top]
			continue
		}
		in := &block[idx]
		switch in.op {
		case opAssign:
			v, err := in.a.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.set(in.dst, v)
			s.frames[top]++
		case opIf:
			c, err := in.a.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.frames[top]++
			if c != 0 {
				if in.body != 0 {
					s.frames = append(s.frames, packFrame(in.body, 0, 0))
				}
			} else if in.els != 0 {
				s.frames = append(s.frames, packFrame(in.els, 0, 0))
			}
		case opWhile:
			c, err := in.a.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			if c != 0 {
				s.frames = append(s.frames, packFrame(in.body, in.loop, 0))
			} else {
				s.frames[top]++
			}
		case opRead:
			reg, err := in.a.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.pending = Op{Kind: OpRead, Reg: reg}
			s.settled = true
			return nil
		case opWrite, opTAS:
			reg, err := in.a.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			val, err := in.b.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			kind := OpWrite
			if in.op == opTAS {
				kind = OpTAS
			}
			s.pending = Op{Kind: kind, Reg: reg, Val: val}
			s.settled = true
			return nil
		case opFence:
			s.pending = Op{Kind: OpFence}
			s.settled = true
			return nil
		case opReturn:
			v, err := in.a.eval(&s.env)
			if err != nil {
				return s.fail(err)
			}
			s.pending = Op{Kind: OpReturn, Val: v}
			s.settled = true
			return nil
		default:
			return s.fail(fmt.Errorf("unknown statement type %T", ci.src[frameBlock(f)][idx]))
		}
	}
}

// NextOp returns the shared-memory operation the process is poised to
// execute — the paper's next_p(C) — advancing through any local computation
// first. ok is false if the process is in a final state (next_p(C) = ∅).
func (s *ProcState) NextOp() (op Op, ok bool, err error) {
	if s.halted {
		return Op{}, false, nil
	}
	if err := s.settle(); err != nil {
		return Op{}, false, err
	}
	return s.pending, true, nil
}

// advance moves the cursor past the statement that produced the pending op.
// When the pending op came from the implicit end-of-program return there is
// no frame to advance.
func (s *ProcState) advance() {
	s.settled = false
	if len(s.frames) == 0 {
		return
	}
	s.frames[len(s.frames)-1]++
}

// poisedDst returns the destination slot of the statement that produced
// the pending read or TAS.
func (s *ProcState) poisedDst() int32 {
	f := s.frames[len(s.frames)-1]
	return s.code.blocks[frameBlock(f)][frameIdx(f)].dst
}

// CompleteRead delivers the result of the pending read and advances the
// program. It is an error if the process is not poised at a read.
func (s *ProcState) CompleteRead(v Value) error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != OpRead {
		return s.fail(fmt.Errorf("CompleteRead while poised at %s", op))
	}
	s.set(s.poisedDst(), v)
	s.advance()
	return nil
}

// CompleteTas delivers the old shared-memory value of the pending
// test-and-set and advances the program. The machine performs the atomic
// read-modify-write itself; the process only learns the old value.
func (s *ProcState) CompleteTas(old Value) error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != OpTAS {
		return s.fail(fmt.Errorf("CompleteTas while poised at %s", op))
	}
	s.set(s.poisedDst(), old)
	s.advance()
	return nil
}

// CompleteWrite advances the program past the pending write (the write
// itself — insertion into the write buffer — is the machine's job).
func (s *ProcState) CompleteWrite() error {
	return s.completeSimple(OpWrite)
}

// CompleteFence advances the program past the pending fence. The machine
// must only call this once the process's write buffer is empty.
func (s *ProcState) CompleteFence() error {
	return s.completeSimple(OpFence)
}

// CompleteReturn moves the process into its final state with the pending
// return value.
func (s *ProcState) CompleteReturn() error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != OpReturn {
		return s.fail(fmt.Errorf("CompleteReturn while poised at %s", op))
	}
	s.halted = true
	s.retValue = op.Val
	s.frames = s.frames[:0]
	s.settled = false
	return nil
}

func (s *ProcState) completeSimple(kind OpKind) error {
	op, ok, err := s.NextOp()
	if err != nil {
		return err
	}
	if !ok {
		return ErrHalted
	}
	if op.Kind != kind {
		return s.fail(fmt.Errorf("complete %s while poised at %s", kind, op))
	}
	s.advance()
	return nil
}
