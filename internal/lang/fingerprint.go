package lang

import (
	"fmt"
	"strings"
)

// AppendFingerprint writes a canonical encoding of the process's control
// state — program position, loop nesting, locals, and final value — into b.
// Two states with equal fingerprints behave identically under identical
// future schedules, which is what the model checker's visited-state pruning
// relies on. Callers must settle the state first (call NextOp) so that
// pending local computation does not make semantically equal states look
// different.
func (s *ProcState) AppendFingerprint(b *strings.Builder) {
	if s.halted {
		fmt.Fprintf(b, "H%d", s.retValue)
		return
	}
	ci := s.code
	for _, f := range s.frames {
		// The statement slice's identity (its backing array) uniquely
		// identifies the program point, since ASTs are immutable and
		// shared.
		if stmts := ci.src[frameBlock(f)]; len(stmts) > 0 {
			fmt.Fprintf(b, "|%p:%d", &stmts[0], frameIdx(f))
		} else {
			fmt.Fprintf(b, "|e:%d", frameIdx(f))
		}
		if loop := frameLoop(f); loop != 0 {
			fmt.Fprintf(b, "L%p", ci.loops[loop])
		}
	}
	b.WriteByte(';')
	// Slots are in sorted-name order.
	for slot, name := range ci.localNames {
		if s.isBound(int32(slot)) {
			fmt.Fprintf(b, "%s=%d,", name, s.env.Locals[slot])
		}
	}
}
