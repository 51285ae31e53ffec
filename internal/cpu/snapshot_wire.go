package cpu

import (
	"fmt"

	"pathfinder/internal/wire"
)

// The snapshot wire codec: a stable, versioned binary encoding of Snapshot
// for the cluster's content-addressed snapshot exchange. Encode→decode is
// lossless for everything Snapshot captures, so a decoded snapshot hashes
// identically to its source and RestoreFrom behaves exactly as with the
// original — that equivalence is what lets one worker train warm state and
// every peer restore it.
//
// The envelope is [magic "PFSN"][version u16][hash u64][body]; the hash is
// the snapshot's own FNV-1a content hash and doubles as an integrity check:
// UnmarshalBinary recomputes the hash of the decoded body and rejects the
// blob on mismatch, so a corrupt or mis-addressed CAS object can never be
// restored into a machine.

// snapshotMagic and snapshotVersion pin the envelope. Bump the version on
// any change to the body layout; decoders reject other versions outright —
// cluster peers must run the same build to exchange snapshots.
const (
	snapshotMagic   = "PFSN"
	snapshotVersion = 1
)

// MarshalBinary encodes the snapshot into a fresh byte slice.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 1<<16))
}

// AppendBinary appends the encoding to buf and returns the extended slice —
// the pooled-buffer path of MarshalBinary. The snapshot store and the
// cluster worker's snapshot-serve path reuse encode buffers across calls,
// so the encoding does not allocate per spill or per fetch.
func (s *Snapshot) AppendBinary(buf []byte) ([]byte, error) {
	w := wire.NewWriterBuf(buf)
	w.Raw([]byte(snapshotMagic))
	w.U16(snapshotVersion)
	w.U64(s.hash)

	w.String(s.arch)
	w.U32(uint32(s.phrSize))
	s.unit.EncodeWire(w)
	s.data.EncodeWire(w)
	w.Bool(s.ibrs)
	w.U64(s.noise)
	w.Bool(s.injOK)
	w.U64(s.inj)

	w.U64(s.stats.Instructions)
	w.U64(s.stats.Cycles)
	w.U64(s.stats.CondBranches)
	w.U64(s.stats.TakenBranches)
	w.U64(s.stats.Mispredicts)
	w.U64(s.stats.TransientInstrs)
	w.U64(s.stats.Runs)

	w.U32(uint32(len(s.perPC)))
	for i := range s.perPC {
		p := &s.perPC[i]
		w.U64(p.pc)
		w.U64(p.s.Executed)
		w.U64(p.s.Taken)
		w.U64(p.s.Mispredicted)
	}

	w.U32(uint32(len(s.harts)))
	for i := range s.harts {
		hs := &s.harts[i]
		hs.phr.EncodeWire(w)
		w.U8(uint8(hs.domain))
		for _, r := range hs.regs {
			w.U64(r)
		}
		for _, v := range hs.vregs {
			w.Raw(v[:])
		}
		for _, r := range hs.ready {
			w.U64(r)
		}
		w.U32(uint32(len(hs.stack)))
		for _, f := range hs.stack {
			w.I64(int64(f.retIdx))
			w.Bool(f.restoreDomain)
			w.U8(uint8(f.prevDomain))
		}
		w.U64(hs.rng)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes an encoded snapshot into s, replacing its
// contents. The decoded state's recomputed content hash must match the
// envelope's, or the blob is rejected.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("cpu: snapshot wire data lacks %q magic", snapshotMagic)
	}
	r := wire.NewReader(data[len(snapshotMagic):])
	if v := r.U16(); v != snapshotVersion {
		return fmt.Errorf("cpu: snapshot wire version %d, this build speaks %d", v, snapshotVersion)
	}
	wantHash := r.U64()

	s.arch = r.String()
	s.phrSize = int(r.U32())
	s.unit.DecodeWire(r)
	s.data.DecodeWire(r)
	s.ibrs = r.Bool()
	s.noise = r.U64()
	s.injOK = r.Bool()
	s.inj = r.U64()

	s.stats.Instructions = r.U64()
	s.stats.Cycles = r.U64()
	s.stats.CondBranches = r.U64()
	s.stats.TakenBranches = r.U64()
	s.stats.Mispredicts = r.U64()
	s.stats.TransientInstrs = r.U64()
	s.stats.Runs = r.U64()

	nPC := r.Len(1 << 24)
	s.perPC = s.perPC[:0]
	for i := 0; i < nPC; i++ {
		var p pcStat
		p.pc = r.U64()
		p.s.Executed = r.U64()
		p.s.Taken = r.U64()
		p.s.Mispredicted = r.U64()
		s.perPC = append(s.perPC, p)
	}

	nHarts := r.Len(1 << 16)
	if len(s.harts) != nHarts {
		s.harts = make([]hartState, nHarts)
	}
	for i := 0; i < nHarts && r.Err() == nil; i++ {
		hs := &s.harts[i]
		hs.phr.DecodeWire(r)
		hs.domain = Domain(r.U8())
		for j := range hs.regs {
			hs.regs[j] = r.U64()
		}
		for j := range hs.vregs {
			for k := range hs.vregs[j] {
				hs.vregs[j][k] = r.U8()
			}
		}
		for j := range hs.ready {
			hs.ready[j] = r.U64()
		}
		nStack := r.Len(1 << 20)
		hs.stack = hs.stack[:0]
		for j := 0; j < nStack; j++ {
			var f frame
			f.retIdx = int(r.I64())
			f.restoreDomain = r.Bool()
			f.prevDomain = Domain(r.U8())
			hs.stack = append(hs.stack, f)
		}
		hs.rng = r.U64()
	}

	if err := r.Err(); err != nil {
		return fmt.Errorf("cpu: decoding snapshot: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("cpu: snapshot wire data has %d trailing bytes", r.Remaining())
	}
	s.hash = s.computeHash()
	if s.hash != wantHash {
		return fmt.Errorf("cpu: snapshot content hash %016x does not match envelope %016x (corrupt or mis-addressed blob)",
			s.hash, wantHash)
	}
	return nil
}

// DecodeSnapshot is the allocation path of UnmarshalBinary.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}
