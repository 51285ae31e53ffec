package snapstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/bpu"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
)

// storeSnapshot builds a trained snapshot the way the warm cache does: run a
// branchy workload, then checkpoint. Distinct seeds give distinct content.
func storeSnapshot(t testing.TB, seed int64) *cpu.Snapshot {
	t.Helper()
	a := isa.NewAssembler()
	a.Label("main")
	a.MovI(isa.R1, 24)
	a.Label("loop")
	a.AddI(isa.R1, isa.R1, -1)
	a.Call("leaf")
	a.Br(isa.NE, isa.R1, isa.R0, "loop")
	a.Halt()
	a.Label("leaf")
	a.Ld(isa.R2, isa.R0, 64)
	a.Ret()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Options{Arch: bpu.AlderLake, Seed: seed})
	if err := m.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot()
}

// storeRec builds a synthetic phase-level recovery artifact: every field is
// pure data, so a hand-assembled one exercises the same codec surface as a
// real Extended_Read_PHR product.
func storeRec(t testing.TB) *core.ExtendedResult {
	t.Helper()
	a := isa.NewAssembler()
	a.Label("cap_main")
	a.MovI(isa.R1, 3)
	a.Label("cap_loop")
	a.AddI(isa.R1, isa.R1, -1)
	a.Br(isa.NE, isa.R1, isa.R0, "cap_loop")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	win := phr.New(194)
	win.Update(phr.Footprint(0x40, 0x80))
	win.Update(phr.Footprint(0x90, 0x44))
	return &core.ExtendedResult{
		Window: win,
		Ext:    []phr.Doublet{1, 0, 2, 3, 1},
		Path: pathfinder.Path{
			Steps: []pathfinder.Step{
				{Addr: 0x40, Target: 0x80, Taken: true, Conditional: true, Kind: pathfinder.EdgeCondTaken},
				{Addr: 0x90, Target: 0x44, Taken: true, Kind: pathfinder.EdgeJump},
			},
			Complete: true,
		},
		CaptureProgram: p,
		Entry:          0x40,
		Final:          0x98,
		Probes:         417,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := storeSnapshot(t, 7)
	rec := storeRec(t)
	s.Save("aes-phase1|alderlake|194|0011223344556677|1|0", snap, rec)
	s.Save("aes-warm|alderlake|194|8899aabbccddeeff|0|0", storeSnapshot(t, 11), nil)
	if _, _, _, _, _, n := s.Stats(); n != 2 {
		t.Fatalf("store holds %d entries, want 2", n)
	}

	// A fresh Open over the same directory must rebuild the index from the
	// file headers alone — this is the cold-process restart path.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, gotRec, ok := s2.Load("aes-phase1|alderlake|194|0011223344556677|1|0")
	if !ok {
		t.Fatal("phase-1 entry missing after reopen")
	}
	if gotSnap.Hash() != snap.Hash() {
		t.Fatalf("snapshot hash %016x, want %016x", gotSnap.Hash(), snap.Hash())
	}
	if gotRec == nil {
		t.Fatal("recovery artifact missing")
	}
	if gotRec.CaptureProgram.Hash() != rec.CaptureProgram.Hash() ||
		!gotRec.Path.Complete || len(gotRec.Path.Steps) != len(rec.Path.Steps) ||
		gotRec.Entry != rec.Entry || gotRec.Final != rec.Final || gotRec.Probes != rec.Probes {
		t.Fatalf("recovery artifact mangled: %+v", gotRec)
	}
	if !gotRec.Window.Equal(rec.Window) {
		t.Fatal("window register mangled")
	}

	if _, gotRec, ok := s2.Load("aes-warm|alderlake|194|8899aabbccddeeff|0|0"); !ok || gotRec != nil {
		t.Fatalf("rec-free entry: ok=%v rec=%v", ok, gotRec)
	}
	if _, _, ok := s2.Load("absent"); ok {
		t.Fatal("absent key loaded")
	}
	hits, misses, _, _, bytes, _ := s2.Stats()
	if hits != 2 || misses != 1 || bytes <= 0 {
		t.Fatalf("stats hits=%d misses=%d bytes=%d", hits, misses, bytes)
	}
}

// TestStoreFirstWriterWins: the store is content-addressed — a key names one
// machine state — so a second Save under a resident key must not replace it.
func TestStoreFirstWriterWins(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := storeSnapshot(t, 1)
	s.Save("k", first, nil)
	s.Save("k", storeSnapshot(t, 2), nil)
	got, _, ok := s.Load("k")
	if !ok || got.Hash() != first.Hash() {
		t.Fatalf("resident entry replaced: ok=%v", ok)
	}
	if _, _, puts, _, _, n := s.Stats(); puts != 1 || n != 1 {
		t.Fatalf("puts=%d entries=%d, want 1/1", puts, n)
	}
}

// TestStoreCorruptionIsAMiss: a bit flip anywhere in the payload must fail
// the FNV check, delete the file, and surface as a miss — never a restore.
func TestStoreCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("k", storeSnapshot(t, 3), storeRec(t))
	path := filepath.Join(dir, fileName("k"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Load("k"); ok {
		t.Fatal("corrupt entry restored")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not deleted")
	}
	if _, _, _, _, _, n := s.Stats(); n != 0 {
		t.Fatalf("%d entries after corruption drop", n)
	}
}

// TestStoreOpenSweepsDebris: torn temp files, unparseable entry files and
// entries of another store version must be removed by the Open scan, not
// indexed.
func TestStoreOpenSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("good", storeSnapshot(t, 5), nil)
	// A torn write: a temp file a crashed process left behind.
	torn := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(torn, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A truncated entry file that fails the header probe.
	good, err := os.ReadFile(filepath.Join(dir, fileName("good")))
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "00000000deadbeef"+fileExt)
	if err := os.WriteFile(trunc, good[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	// An entry written by an older store version: Open must drop it, so a
	// daemon restarted over an old data directory retrains instead of
	// failing.
	old := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(old[4:6], 2)
	stale := filepath.Join(dir, "00000000000000c2"+fileExt)
	if err := os.WriteFile(stale, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, _, n := s2.Stats(); n != 1 {
		t.Fatalf("reopened store holds %d entries, want 1", n)
	}
	for _, p := range []string{torn, trunc, stale} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived the open sweep", p)
		}
	}
}

// TestStoreEvictsLRU: over-budget saves must evict the least-recently-used
// entry, and a Load must count as use.
func TestStoreEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	probe, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := storeSnapshot(t, 9)
	probe.Save("sizer", snap, nil)
	_, _, _, _, size, _ := probe.Stats()
	os.Remove(filepath.Join(dir, fileName("sizer")))

	// Budget for two entries, not three.
	s, err := Open(t.TempDir(), size*2+size/2)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("a", snap, nil)
	time.Sleep(2 * time.Millisecond) // ensure distinct mtimes across filesystems
	s.Save("b", snap, nil)
	time.Sleep(2 * time.Millisecond)
	if _, _, ok := s.Load("a"); !ok { // bump a: now b is the LRU entry
		t.Fatal("entry a missing before eviction")
	}
	time.Sleep(2 * time.Millisecond)
	s.Save("c", snap, nil)

	if _, _, ok := s.Load("b"); ok {
		t.Fatal("LRU entry b survived an over-budget save")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := s.Load(k); !ok {
			t.Fatalf("recently-used entry %q evicted", k)
		}
	}
	if _, _, _, ev, bytes, n := s.Stats(); ev != 1 || n != 2 || bytes > size*2+size/2 {
		t.Fatalf("evictions=%d entries=%d bytes=%d", ev, n, bytes)
	}
}

func TestStoreEntriesAndBlob(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := storeSnapshot(t, 13)
	s.Save("k1", snap, nil)
	entries := s.Entries()
	if len(entries) != 1 || entries[0].Key != "k1" || entries[0].SnapHash != snap.Hash() {
		t.Fatalf("entries: %+v", entries)
	}
	blob, ok := s.LoadSnapshotBlob("k1")
	if !ok {
		t.Fatal("blob missing")
	}
	if !strings.HasPrefix(string(blob), "PFSN") {
		t.Fatal("blob is not a bare snapshot section")
	}
	dec, err := cpu.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash() != snap.Hash() {
		t.Fatalf("blob hash %016x, want %016x", dec.Hash(), snap.Hash())
	}
	if _, ok := s.LoadSnapshotBlob("absent"); ok {
		t.Fatal("absent blob served")
	}
}

// FuzzStoreDecode: arbitrary bytes — seeded with a valid entry, truncations,
// and bit flips — must never panic, and a full entry that parses and decodes
// must carry a self-consistent snapshot.
func FuzzStoreDecode(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	s.Save("fuzz-key", storeSnapshot(f, 17), storeRec(f))
	valid, err := os.ReadFile(filepath.Join(dir, fileName("fuzz-key")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{0, 4, 6, 14, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:n]...))
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x01
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseEntry(data, "fuzz-key")
		if err != nil {
			return
		}
		snap, err := cpu.DecodeSnapshot(p.snapBlob)
		if err == nil && snap == nil {
			t.Fatal("nil snapshot decoded without error")
		}
	})
}

// TestStoreConcurrentSaveLoadEvict races Save and Load of two hot keys
// against budget-forced evictions from fillers — the store must
// never panic, never corrupt counters, and every hit must return the right
// snapshot (run under -race in CI).
func TestStoreConcurrentSaveLoadEvict(t *testing.T) {
	sizer, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := storeSnapshot(t, 51)
	alt := storeSnapshot(t, 52)
	fillers := []*cpu.Snapshot{storeSnapshot(t, 53), storeSnapshot(t, 54)}
	sizer.Save("sizer", hot, nil)
	_, _, _, _, size, _ := sizer.Stats()

	s, err := Open(t.TempDir(), size*3+size/2)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // re-save the hot keys
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Save("hot", hot, nil)
			s.Save("hot-alt", alt, nil)
		}
	}()
	go func() { // thrash the budget so gc keeps evicting
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Save(fmt.Sprintf("filler-%d", i), fillers[i%len(fillers)], nil)
		}
	}()
	go func() { // load the hot keys; every hit must be bit-exact
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if got, _, ok := s.Load("hot"); ok && got.Hash() != hot.Hash() {
				t.Errorf("hot load returned hash %016x, want %016x", got.Hash(), hot.Hash())
				return
			}
			if got, _, ok := s.Load("hot-alt"); ok && got.Hash() != alt.Hash() {
				t.Errorf("hot-alt load returned hash %016x, want %016x", got.Hash(), alt.Hash())
				return
			}
		}
	}()
	wg.Wait()
	if _, _, _, _, bytes, n := s.Stats(); bytes < 0 || n < 0 {
		t.Fatalf("counters corrupted: bytes=%d entries=%d", bytes, n)
	}
}

// TestSaveEncodeZeroAlloc pins the pooled encode path: appending the PFSN
// section and rendering the entry file into recycled buffers must not
// allocate once the buffers have grown to size.
func TestSaveEncodeZeroAlloc(t *testing.T) {
	snap := storeSnapshot(t, 61)
	var snapBuf, fileBuf []byte
	run := func() {
		blob, err := snap.AppendBinary(snapBuf[:0])
		if err != nil {
			t.Fatal(err)
		}
		snapBuf = blob
		fileBuf = encodeEntry(fileBuf[:0], "k", snap.Hash(), blob, nil)
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("pooled encode path allocates %v per save", n)
	}
}
