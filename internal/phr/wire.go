package phr

import (
	"fmt"

	"pathfinder/internal/wire"
)

// Wire codec for the register, used by the cpu.Snapshot binary encoding.
// Only the observable content travels — size plus the words in use. The
// generation counter is process-local: decoding advances the destination's
// counter like any other mutation, so a (register, Gen) fold memo can never
// match the decoded content, and the cpu restore path goes through CopyFrom,
// which bumps the destination's generation itself.

// EncodeWire appends the register's observable content to w.
func (r *Reg) EncodeWire(w *wire.Writer) {
	w.U32(uint32(r.size))
	for i := 0; i < r.words(); i++ {
		w.U64(r.w[i])
	}
}

// DecodeWire reads a register from rd, replacing r's size and content.
func (r *Reg) DecodeWire(rd *wire.Reader) {
	size := int(rd.U32())
	if rd.Err() != nil {
		return
	}
	if size < FootprintDoublets || 2*size > 64*maxWords {
		rd.Fail(fmt.Errorf("phr: wire size %d unsupported", size))
		return
	}
	fresh := New(size)
	for i := 0; i < fresh.words(); i++ {
		fresh.w[i] = rd.U64()
	}
	if rd.Err() != nil {
		return
	}
	if fresh.w[fresh.words()-1]&^fresh.topMask != 0 {
		rd.Fail(fmt.Errorf("phr: wire top word has bits beyond size %d", size))
		return
	}
	fresh.gen = r.gen + 1
	*r = *fresh
}
