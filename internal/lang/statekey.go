package lang

import (
	"encoding/binary"
	"math/bits"
)

// This file encodes a settled ProcState into a compact binary form keyed
// on the code index's identities (see code.go). It is the control-state
// half of the machine's binary StateKey codec.

// Proc-state encoding tags. A halted process encodes only its return
// value (locals can no longer influence behaviour); a live process
// encodes its control stack and bound locals.
const (
	stateTagHalted = 0x01
	stateTagLive   = 0x02
)

// AppendStateKey appends a canonical, injective binary encoding of the
// process's behavioural state to buf and returns the extended slice.
// Two states with equal encodings behave identically under identical
// future schedules — the binary counterpart of AppendFingerprint, minus
// the pointer identities: program points are encoded as the code index's
// stable IDs, so the encoding is reproducible across OS processes.
//
// rename, when non-nil, maps each bound local's value, given its slot
// (its index in Program.LocalNames), before encoding; the machine's process-symmetry
// canonicalization uses it to rename PID-typed locals. Callers must
// settle the state first (call NextOp) so pending local computation does
// not make semantically equal states look different.
func (s *ProcState) AppendStateKey(buf []byte, rename func(slot int, v Value) Value) []byte {
	if s.halted {
		buf = append(buf, stateTagHalted)
		return binary.AppendVarint(buf, s.retValue)
	}
	buf = append(buf, stateTagLive)
	buf = binary.AppendUvarint(buf, uint64(len(s.frames)))
	for _, f := range s.frames {
		buf = binary.AppendUvarint(buf, uint64(frameBlock(f)))
		buf = binary.AppendUvarint(buf, uint64(frameIdx(f)))
		buf = binary.AppendUvarint(buf, uint64(frameLoop(f)))
	}
	// Bound locals only, as (slot, value) pairs in slot order: an unbound
	// local is distinguishable from one bound to zero, exactly as in the
	// legacy string fingerprint.
	bound := 0
	for _, w := range s.bound {
		bound += bits.OnesCount64(uint64(w))
	}
	buf = binary.AppendUvarint(buf, uint64(bound))
	for wi, w := range s.bound {
		for m := uint64(w); m != 0; m &= m - 1 {
			slot := wi<<6 | bits.TrailingZeros64(m)
			v := s.env.Locals[slot]
			if rename != nil {
				v = rename(slot, v)
			}
			buf = binary.AppendUvarint(buf, uint64(slot))
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}
