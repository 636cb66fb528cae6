package machine

import (
	"fmt"
	"sort"
)

// Model selects the memory model the machine simulates, i.e. the commit
// discipline of the per-process write buffers.
type Model int

// Supported memory models.
const (
	// SC (sequential consistency): writes commit to shared memory
	// immediately; write buffers are always empty and fences are no-ops.
	SC Model = iota + 1
	// TSO (total store ordering): the write buffer is a FIFO queue; writes
	// commit in program order, but reads may complete while older writes
	// are still buffered. This is the x86/AMD model of the paper's
	// introduction.
	TSO
	// PSO (partial store ordering): the write buffer is an unordered set
	// with per-register replacement — the system may commit buffered
	// writes in any order. This is the paper's formal model (Section 2)
	// and its abstraction of PSO/RMO/POWER-style write reordering.
	PSO
)

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Reg is a shared-memory register identifier. The register namespace is
// totally ordered (the paper relies on this for the "commit the smallest
// register at a fence" decoding convention).
type Reg = int64

// Write is a buffered (register, value) pair.
type Write struct {
	Reg Reg
	Val Value
}

// writeBuffer abstracts the per-process write buffer. Implementations
// differ only in which buffered writes are committable and which write is
// the canonical one drained first at a fence. Both implementations are
// flat slices — buffers hold a handful of writes, where linear scans and
// copies beat any pointer structure — which makes clone two copy calls
// and undo (uncommit/unput) an O(len) splice.
type writeBuffer interface {
	// put inserts a write, replacing any buffered write to the same
	// register (the paper's WB semantics: WB is a set without duplicate
	// registers). It reports whether an existing write was replaced and
	// the value it held — the undo log needs both to reverse the put.
	put(w Write) (replaced bool, old Value)
	// unput reverses a put of w: if the put replaced an existing write,
	// the old value is restored in place; otherwise the inserted entry is
	// removed.
	unput(w Write, replaced bool, old Value)
	// lookup returns the buffered value for r, if any.
	lookup(r Reg) (Value, bool)
	// canCommit reports whether a buffered write to r may commit now.
	canCommit(r Reg) bool
	// commit removes and returns the buffered write to r. It must only be
	// called when canCommit(r) is true.
	commit(r Reg) Write
	// uncommit reverses a commit: the write is reinserted at the position
	// it was committed from (the FIFO head for TSO, its register slot for
	// PSO).
	uncommit(w Write)
	// drainNext returns the register whose write is drained next when the
	// process is blocked at a fence: the smallest register for PSO
	// (matching the paper's Exec rule), the FIFO head for TSO.
	drainNext() Reg
	// len returns the number of buffered writes.
	len() int
	// regs returns the buffered registers in ascending order.
	regs() []Reg
	// appendRegs appends the buffered registers (ascending) to dst without
	// allocating a fresh slice — the explorers' successor-enumeration hot
	// path.
	appendRegs(dst []Reg) []Reg
	// entries returns the buffered writes in semantic order: queue order
	// for TSO (where order is observable), ascending register order for
	// PSO (where it is not). Used for state fingerprints.
	entries() []Write
	// appendEntries appends the entries to dst without allocating a fresh
	// slice — the state-key encoder's hot path.
	appendEntries(dst []Write) []Write
	// clone returns an independent deep copy.
	clone() writeBuffer
}

// psoBuffer implements the paper's unordered write buffer as a flat slice
// sorted by register: a register-keyed set. Any buffered write may commit
// at any time. Keeping the slice sorted makes regs/entries allocation-free
// appends, drainNext a peek at index 0, and clone a single copy.
type psoBuffer struct {
	ws []Write // sorted ascending by Reg, no duplicate registers
}

func newPSOBuffer() *psoBuffer { return &psoBuffer{} }

// find returns the index of r in the sorted slice, or the insertion point
// with ok=false.
func (b *psoBuffer) find(r Reg) (int, bool) {
	lo, hi := 0, len(b.ws)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.ws[mid].Reg < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.ws) && b.ws[lo].Reg == r
}

func (b *psoBuffer) put(w Write) (replaced bool, old Value) {
	i, ok := b.find(w.Reg)
	if ok {
		old = b.ws[i].Val
		b.ws[i].Val = w.Val
		return true, old
	}
	b.ws = append(b.ws, Write{})
	copy(b.ws[i+1:], b.ws[i:])
	b.ws[i] = w
	return false, 0
}

func (b *psoBuffer) unput(w Write, replaced bool, old Value) {
	i, ok := b.find(w.Reg)
	if !ok {
		return
	}
	if replaced {
		b.ws[i].Val = old
		return
	}
	b.ws = append(b.ws[:i], b.ws[i+1:]...)
}

func (b *psoBuffer) len() int { return len(b.ws) }

func (b *psoBuffer) lookup(r Reg) (Value, bool) {
	if i, ok := b.find(r); ok {
		return b.ws[i].Val, true
	}
	return 0, false
}

func (b *psoBuffer) canCommit(r Reg) bool {
	_, ok := b.find(r)
	return ok
}

func (b *psoBuffer) commit(r Reg) Write {
	i, _ := b.find(r)
	w := b.ws[i]
	b.ws = append(b.ws[:i], b.ws[i+1:]...)
	return w
}

func (b *psoBuffer) uncommit(w Write) {
	i, _ := b.find(w.Reg)
	b.ws = append(b.ws, Write{})
	copy(b.ws[i+1:], b.ws[i:])
	b.ws[i] = w
}

func (b *psoBuffer) drainNext() Reg { return b.ws[0].Reg }

func (b *psoBuffer) regs() []Reg {
	return b.appendRegs(make([]Reg, 0, len(b.ws)))
}

func (b *psoBuffer) appendRegs(dst []Reg) []Reg {
	for _, w := range b.ws {
		dst = append(dst, w.Reg)
	}
	return dst
}

func (b *psoBuffer) entries() []Write {
	ws := make([]Write, len(b.ws))
	copy(ws, b.ws)
	return ws
}

func (b *psoBuffer) appendEntries(dst []Write) []Write {
	return append(dst, b.ws...)
}

func (b *psoBuffer) clone() writeBuffer {
	c := &psoBuffer{ws: make([]Write, len(b.ws))}
	copy(c.ws, b.ws)
	return c
}

// tsoBuffer implements a FIFO store buffer: only the oldest write may
// commit, so writes reach memory in program order. A later write to a
// register already buffered coalesces in place (updating the value but
// keeping the original queue position), preserving the no-duplicate-register
// invariant the machine's read rule relies on.
type tsoBuffer struct {
	q []Write
}

func newTSOBuffer() *tsoBuffer { return &tsoBuffer{} }

func (b *tsoBuffer) put(w Write) (replaced bool, old Value) {
	for i := range b.q {
		if b.q[i].Reg == w.Reg {
			old = b.q[i].Val
			b.q[i].Val = w.Val
			return true, old
		}
	}
	b.q = append(b.q, w)
	return false, 0
}

func (b *tsoBuffer) unput(w Write, replaced bool, old Value) {
	if replaced {
		for i := range b.q {
			if b.q[i].Reg == w.Reg {
				b.q[i].Val = old
				return
			}
		}
		return
	}
	// A non-coalescing put appended; the entry to drop is the tail.
	if n := len(b.q); n > 0 && b.q[n-1].Reg == w.Reg {
		b.q = b.q[:n-1]
	}
}

func (b *tsoBuffer) len() int { return len(b.q) }
func (b *tsoBuffer) lookup(r Reg) (Value, bool) {
	for i := len(b.q) - 1; i >= 0; i-- {
		if b.q[i].Reg == r {
			return b.q[i].Val, true
		}
	}
	return 0, false
}
func (b *tsoBuffer) canCommit(r Reg) bool {
	return len(b.q) > 0 && b.q[0].Reg == r
}
func (b *tsoBuffer) commit(r Reg) Write {
	w := b.q[0]
	copy(b.q, b.q[1:])
	b.q = b.q[:len(b.q)-1]
	return w
}
func (b *tsoBuffer) uncommit(w Write) {
	b.q = append(b.q, Write{})
	copy(b.q[1:], b.q)
	b.q[0] = w
}
func (b *tsoBuffer) drainNext() Reg { return b.q[0].Reg }
func (b *tsoBuffer) regs() []Reg {
	rs := b.appendRegs(make([]Reg, 0, len(b.q)))
	return rs
}
func (b *tsoBuffer) appendRegs(dst []Reg) []Reg {
	start := len(dst)
	for _, w := range b.q {
		dst = append(dst, w.Reg)
	}
	rs := dst[start:]
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return dst
}
func (b *tsoBuffer) entries() []Write {
	ws := make([]Write, len(b.q))
	copy(ws, b.q)
	return ws
}
func (b *tsoBuffer) appendEntries(dst []Write) []Write {
	return append(dst, b.q...)
}
func (b *tsoBuffer) clone() writeBuffer {
	c := &tsoBuffer{q: make([]Write, len(b.q))}
	copy(c.q, b.q)
	return c
}

// scBuffer is the degenerate buffer of sequential consistency: the machine
// commits every write within the same step, so the buffer is always empty
// between steps. It still implements the interface so the step rules stay
// uniform.
type scBuffer struct{}

func (scBuffer) put(Write) (bool, Value)    { return false, 0 }
func (scBuffer) unput(Write, bool, Value)   {}
func (scBuffer) len() int                   { return 0 }
func (scBuffer) lookup(Reg) (Value, bool)   { return 0, false }
func (scBuffer) canCommit(Reg) bool         { return false }
func (scBuffer) commit(Reg) Write           { return Write{} }
func (scBuffer) uncommit(Write)             {}
func (scBuffer) drainNext() Reg             { return 0 }
func (scBuffer) regs() []Reg                { return nil }
func (scBuffer) appendRegs(dst []Reg) []Reg { return dst }
func (scBuffer) entries() []Write           { return nil }
func (scBuffer) appendEntries(dst []Write) []Write {
	return dst
}
func (scBuffer) clone() writeBuffer { return scBuffer{} }

func newBuffer(m Model) writeBuffer {
	switch m {
	case SC:
		return scBuffer{}
	case TSO:
		return newTSOBuffer()
	default:
		return newPSOBuffer()
	}
}
