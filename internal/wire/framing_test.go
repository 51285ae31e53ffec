package wire

import (
	"errors"
	"testing"
)

// frameTwoSections builds the section framing the snapshot formats use: a
// small fixed header followed by two length-prefixed sections.
func frameTwoSections(a, b []byte) []byte {
	w := NewWriter(0)
	w.U16(1) // version
	w.U32(uint32(len(a)))
	w.Raw(a)
	w.U32(uint32(len(b)))
	w.Raw(b)
	return w.Bytes()
}

// decodeTwoSections mirrors frameTwoSections, using Len for bounded section
// lengths and Rest/Skip for zero-copy section access.
func decodeTwoSections(data []byte, limit int) (version uint16, a, b []byte, err error) {
	r := NewReader(data)
	version = r.U16()
	for _, dst := range []*[]byte{&a, &b} {
		n := r.Len(limit)
		if r.Err() != nil {
			return 0, nil, nil, r.Err()
		}
		if len(r.Rest()) < n {
			r.Fail(ErrShort)
			return 0, nil, nil, r.Err()
		}
		*dst = r.Rest()[:n]
		r.Skip(n)
	}
	if r.Err() != nil {
		return 0, nil, nil, r.Err()
	}
	if r.Remaining() != 0 {
		return 0, nil, nil, errors.New("trailing bytes")
	}
	return version, a, b, nil
}

// TestSectionFramingTruncation: a torn file — the framed message cut at
// every possible byte boundary — must decode to an error, never a panic or
// a short section silently accepted. Only the full-length input decodes.
func TestSectionFramingTruncation(t *testing.T) {
	full := frameTwoSections([]byte("snapshot-body"), []byte{0xfe, 0xed})
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := decodeTwoSections(full[:cut], 1024); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded, want error", cut, len(full))
		}
	}
	v, a, b, err := decodeTwoSections(full, 1024)
	if err != nil {
		t.Fatalf("full decode: %v", err)
	}
	if v != 1 || string(a) != "snapshot-body" || len(b) != 2 {
		t.Fatalf("decoded v=%d a=%q b=%v", v, a, b)
	}
}

// TestSectionFramingCorruptLengths: oversized or lying length prefixes must
// latch an error instead of allocating or slicing past the buffer.
func TestSectionFramingCorruptLengths(t *testing.T) {
	cases := []struct {
		name  string
		data  []byte
		limit int
	}{
		{"length over structural limit", func() []byte {
			w := NewWriter(0)
			w.U16(1)
			w.U32(1 << 30)
			return w.Bytes()
		}(), 1024},
		{"max u32 length", func() []byte {
			w := NewWriter(0)
			w.U16(1)
			w.U32(0xffffffff)
			return w.Bytes()
		}(), 1 << 20},
		{"length beyond remaining bytes", func() []byte {
			w := NewWriter(0)
			w.U16(1)
			w.U32(64) // claims 64, provides 3
			w.Raw([]byte{1, 2, 3})
			return w.Bytes()
		}(), 1024},
		{"second section truncated", func() []byte {
			full := frameTwoSections([]byte("ok"), []byte("body"))
			return full[:len(full)-2]
		}(), 1024},
		{"trailing garbage", append(frameTwoSections([]byte("a"), []byte("b")), 0x00), 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := decodeTwoSections(tc.data, tc.limit); err == nil {
				t.Error("corrupt framing decoded cleanly, want error")
			}
		})
	}
}

// TestSkip: Skip advances exactly n bytes, a skip past the end latches
// ErrShort, and a skip on a failed reader stays a no-op.
func TestSkip(t *testing.T) {
	w := NewWriter(0)
	w.Raw([]byte{1, 2, 3, 4})
	w.U16(0xbeef)

	r := NewReader(w.Bytes())
	r.Skip(4)
	if got := r.U16(); got != 0xbeef || r.Err() != nil {
		t.Fatalf("after Skip(4): U16 = %#x, err %v", got, r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes remain", r.Remaining())
	}

	r2 := NewReader([]byte{1, 2})
	r2.Skip(3)
	if !errors.Is(r2.Err(), ErrShort) {
		t.Fatalf("Skip past end: err = %v, want ErrShort", r2.Err())
	}
	if r2.Remaining() != 2 {
		t.Fatalf("failed Skip consumed bytes: %d remain, want 2", r2.Remaining())
	}

	r3 := NewReader([]byte{1, 2, 3})
	r3.Fail(errors.New("earlier corruption"))
	r3.Skip(2)
	if r3.Remaining() != 3 {
		t.Fatalf("Skip after latched error advanced the reader")
	}
}

// FuzzSectionFraming drives arbitrary bytes through the section decoder and
// the scalar readers. The seed corpus covers the torn-file shapes a crashed
// writer leaves behind: clean encodings, every-field truncations, and a
// length prefix pointing past the end.
func FuzzSectionFraming(f *testing.F) {
	full := frameTwoSections([]byte("snapshot-body"), []byte{0xfe, 0xed})
	f.Add(full)
	f.Add(full[:2])                         // header only
	f.Add(full[:6])                         // mid length prefix
	f.Add(full[:len(full)-1])               // last byte torn
	f.Add([]byte{})                         // empty file
	f.Add([]byte{1, 0, 255, 255, 255, 255}) // length prefix past the end
	bitflip := append([]byte(nil), full...)
	bitflip[3] ^= 0x80
	f.Add(bitflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		v, a, b, err := decodeTwoSections(data, 1<<16)
		if err == nil {
			// A clean decode must re-encode to the identical bytes: the
			// framing is bijective on valid inputs.
			if got := frameTwoSections(a, b); v != 1 && string(got) == string(data) {
				t.Fatalf("non-v1 input round-tripped: %v", data)
			}
		}

		// The scalar readers must never panic and must latch, not reset,
		// their first error.
		r := NewReader(data)
		_ = r.U16()
		_ = r.String()
		_ = r.Bool()
		_ = r.F64()
		n := r.Len(1 << 16)
		r.Skip(n)
		_ = r.U64()
		first := r.Err()
		_ = r.U32()
		if first != nil && !errors.Is(r.Err(), first) {
			t.Fatalf("error overwritten: had %v, now %v", first, r.Err())
		}
		if r.Remaining() < 0 || r.Remaining() > len(data) {
			t.Fatalf("Remaining() = %d outside [0,%d]", r.Remaining(), len(data))
		}
	})
}
