package cpu

import (
	"runtime"
	"strings"
	"testing"

	"pathfinder/internal/bpu"
	"pathfinder/internal/cache"
	"pathfinder/internal/faultinject"
)

// wireSnapshot builds a trained, state-heavy snapshot for codec tests.
func wireSnapshot(t *testing.T, opts Options) (*Snapshot, *Machine) {
	t.Helper()
	p := snapWorkload(t)
	m := New(opts)
	if err := m.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot(), m
}

// TestSnapshotWireRoundTripHash is the codec acceptance criterion:
// encode→decode→Hash must equal the source hash, across archs, noise and
// fault-injection configurations.
func TestSnapshotWireRoundTripHash(t *testing.T) {
	prof := faultinject.Default()
	cases := []struct {
		name string
		opts Options
	}{
		{"alderlake", Options{Arch: bpu.AlderLake, Seed: 7}},
		{"raptorlake-noise", Options{Arch: bpu.RaptorLake, Seed: 11, Noise: 0.3}},
		{"skylake", Options{Arch: bpu.Skylake, Seed: 5}},
		{"faulted", Options{Arch: bpu.AlderLake, Seed: 9, Faults: &prof}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap, _ := wireSnapshot(t, tc.opts)
			blob, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Hash() != snap.Hash() {
				t.Fatalf("decoded hash %#x, want %#x", dec.Hash(), snap.Hash())
			}
			if dec.Arch() != snap.Arch() {
				t.Fatalf("decoded arch %q, want %q", dec.Arch(), snap.Arch())
			}
			// Re-encoding the decoded snapshot must be byte-identical: the
			// codec is canonical, which is what makes the blob itself a
			// content-addressable object.
			blob2, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(blob2) {
				t.Fatal("re-encoding a decoded snapshot changed the bytes")
			}
		})
	}
}

// TestSnapshotWireRestoreEquivalence: restoring a decoded snapshot must be
// observationally identical to restoring the original — the continuation
// runs land in the same state.
func TestSnapshotWireRestoreEquivalence(t *testing.T) {
	opts := Options{Arch: bpu.RaptorLake, Seed: 31, Noise: 0.25}
	p := snapWorkload(t)
	m := New(opts)
	if err := m.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Continuation from the original snapshot.
	a := New(opts)
	a.RestoreFrom(snap)
	if err := a.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	want := observeMachine(a, p)

	// Continuation from the decoded snapshot on another fresh machine.
	b := New(opts)
	b.RestoreFrom(dec)
	if err := b.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	if got := observeMachine(b, p); got != want {
		t.Fatalf("decoded-snapshot continuation diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotWireRejectsCorruption: flipped body bytes must fail the hash
// check — a corrupt CAS blob can never be restored.
func TestSnapshotWireRejectsCorruption(t *testing.T) {
	snap, _ := wireSnapshot(t, Options{Arch: bpu.AlderLake, Seed: 3})
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xff
		if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want magic rejection", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[4] ^= 0xff
		if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("err = %v, want version rejection", err)
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-9] ^= 0x01 // inside the last hart's payload
		_, err := DecodeSnapshot(bad)
		if err == nil {
			t.Fatal("corrupt body decoded cleanly")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeSnapshot(blob[:len(blob)/2]); err == nil {
			t.Fatal("truncated blob decoded cleanly")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), blob...), 0xaa)
		if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("err = %v, want trailing-bytes rejection", err)
		}
	})
}

// TestSnapshotWireDeterministicBytes: two snapshots of identical machine
// histories encode to identical bytes — the property the content-addressed
// store keys on.
func TestSnapshotWireDeterministicBytes(t *testing.T) {
	opts := Options{Arch: bpu.AlderLake, Seed: 17, Noise: 0.1}
	s1, _ := wireSnapshot(t, opts)
	s2, _ := wireSnapshot(t, opts)
	b1, err := s1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("identical machine histories encoded to different bytes")
	}
}

// snapshotDecodeBytes reports the bytes allocated by snapshotting m into a
// fresh Snapshot and by decoding that snapshot's encoding into another; the
// encoding itself, whose buffer grows by doubling, is not counted.
func snapshotDecodeBytes(t *testing.T, m *Machine) uint64 {
	t.Helper()
	var s, d Snapshot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.SnapshotInto(&s)
	runtime.ReadMemStats(&after)
	n := after.TotalAlloc - before.TotalAlloc
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	err = d.UnmarshalBinary(blob)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hash() != s.Hash() {
		t.Fatal("decoded snapshot hash differs from its source's")
	}
	return n + after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotCacheCostIsSparse pins that a snapshot costs the cache lines
// the machine holds: snapshotting a machine with n valid lines and decoding
// its blob allocates O(n) bytes for the data cache, not a copy of the 1 MiB
// of line records the cache's geometry spans. With no lines, what remains is
// the predictor state, well under that 1 MiB. Each line may add at most 256
// bytes: a 24-byte entry in each of the two states, and the reallocations
// of the snapshot's entries as Save appends, which for long slices grow by
// about a quarter at a time and so allocate several times the final size.
func TestSnapshotCacheCostIsSparse(t *testing.T) {
	m := New(Options{Seed: 1})
	empty := snapshotDecodeBytes(t, m)
	if empty >= 1<<20 {
		t.Fatalf("snapshot and decode of a machine with an empty cache allocated %d bytes", empty)
	}
	for _, n := range []int{64, 1024, 8192} {
		m.Data.Reset()
		for i := 0; i < n; i++ {
			m.Data.Access(uint64(i) * cache.LineSize)
		}
		if got := snapshotDecodeBytes(t, m); got > empty+256*uint64(n) {
			t.Errorf("%d valid lines: snapshot and decode allocated %d bytes, %d with none: %.0f per line",
				n, got, empty, float64(got-empty)/float64(n))
		}
	}
}
