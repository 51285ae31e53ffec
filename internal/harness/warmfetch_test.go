package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
)

// TestWarmStateKeyRoundTrip: the canonical string spelling must invert
// exactly — it is the wire identity heartbeats and fetches agree on.
func TestWarmStateKeyRoundTrip(t *testing.T) {
	keys := []WarmStateKey{
		{Kind: "aes-warm", Arch: "Alder Lake", PHRSize: 194, Prog: 0xdeadbeefcafef00d},
		{Kind: "aes-phase1", Arch: "Skylake", PHRSize: 93, Prog: 1, Seed: -42, Noise: 0.015},
		{Kind: "x", Arch: "y", PHRSize: 0, Prog: 0, Seed: 0, Noise: 0},
	}
	for _, k := range keys {
		got, err := ParseWarmStateKey(k.String())
		if err != nil {
			t.Fatalf("parse %q: %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %q: got %+v, want %+v", k.String(), got, k)
		}
	}
	for _, bad := range []string{"", "a|b", "a|b|x|0|0|0", "a|b|1|zz|0|0", "|b|1|0|0|0"} {
		if _, err := ParseWarmStateKey(bad); err == nil {
			t.Errorf("ParseWarmStateKey(%q) accepted garbage", bad)
		}
	}
}

// TestWarmFetchHookResolvesMiss: a get miss with a fetcher installed pulls
// the snapshot, installs it locally, and subsequent gets hit without the
// fetcher.
func TestWarmFetchHookResolvesMiss(t *testing.T) {
	warm.reset()
	ResetWarmFetchStats()
	defer SetWarmFetch(nil)

	snap := trainedSnapshot(t, 3)
	key := warmKey{kind: "test-fetch", arch: "Alder Lake", phrSize: 194, prog: 7}
	var calls atomic.Int64
	SetWarmFetch(func(k WarmStateKey) (*cpu.Snapshot, bool) {
		calls.Add(1)
		if k != exportKey(key) {
			t.Errorf("fetcher asked for %+v, want %+v", k, exportKey(key))
			return nil, false
		}
		return snap, true
	})

	e, ok := warm.getOrFetch(key)
	if !ok || e.snap != snap {
		t.Fatal("getOrFetch did not resolve the miss through the fetcher")
	}
	if calls.Load() != 1 {
		t.Fatalf("fetcher ran %d times, want 1", calls.Load())
	}
	// Installed: the second lookup is a local hit, no fetch.
	if e2, ok := warm.getOrFetch(key); !ok || e2.snap != snap {
		t.Fatal("fetched entry was not installed locally")
	}
	if calls.Load() != 1 {
		t.Fatalf("local hit still called the fetcher (%d calls)", calls.Load())
	}
	hits, misses := WarmFetchStats()
	if hits != 1 || misses != 0 {
		t.Fatalf("fetch stats = %d/%d, want 1 hit / 0 misses", hits, misses)
	}
}

// TestWarmFetchHookDeclines: a declining fetcher counts a miss and the
// caller falls through to local training.
func TestWarmFetchHookDeclines(t *testing.T) {
	warm.reset()
	ResetWarmFetchStats()
	defer SetWarmFetch(nil)
	SetWarmFetch(func(WarmStateKey) (*cpu.Snapshot, bool) { return nil, false })
	if _, ok := warm.getOrFetch(warmKey{kind: "absent"}); ok {
		t.Fatal("declined fetch reported ok")
	}
	if hits, misses := WarmFetchStats(); hits != 0 || misses != 1 {
		t.Fatalf("fetch stats = %d/%d, want 0/1", hits, misses)
	}
}

// gatedSnapStore is a counting store whose Load waits until open reports
// true, holding the first store read in flight while other callers arrive.
type gatedSnapStore struct {
	*fakeSnapStore
	open func() bool
}

func (g gatedSnapStore) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	for !g.open() {
		runtime.Gosched()
	}
	return g.fakeSnapStore.Load(key)
}

// TestGetOrFetchSingleflight: concurrent local misses of one stored key
// share a single store Load, and every caller gets the entry it loaded.
func TestGetOrFetchSingleflight(t *testing.T) {
	f := installFakeStore(t)
	key := warmKey{kind: "flight", arch: "Alder Lake", phrSize: 194, prog: 9}
	f.m[exportKey(key).String()] = &warmEntry{snap: trainedSnapshot(t, 4)}
	const callers = 8
	SetSnapStore(gatedSnapStore{f, func() bool {
		_, misses := WarmCacheStats()
		return misses >= callers
	}})
	got := make([]*warmEntry, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = warm.getOrFetch(key)
		}()
	}
	wg.Wait()
	if f.loads != 1 {
		t.Fatalf("%d callers made %d store loads, want 1", callers, f.loads)
	}
	for i, e := range got {
		if e == nil || e != got[0] {
			t.Fatalf("caller %d got entry %p, caller 0 got %p", i, e, got[0])
		}
	}
}

// trainedSnapshot builds a small real snapshot for exchange tests.
func trainedSnapshot(t *testing.T, seed int64) *cpu.Snapshot {
	t.Helper()
	m := cpu.New(cpu.Options{Seed: seed})
	return m.Snapshot()
}

// TestWarmSnapshotsExportSkipsRecEntries: entries carrying process-local
// recovery artifacts must not be advertised or served to peers.
func TestWarmSnapshotsExportSkipsRecEntries(t *testing.T) {
	warm.reset()
	snap := trainedSnapshot(t, 5)
	plain := warmKey{kind: "aes-warm", arch: "Alder Lake", phrSize: 194, prog: 1}
	withRec := warmKey{kind: "aes-phase1", arch: "Alder Lake", phrSize: 194, prog: 2, seed: 9}
	warm.putIfAbsent(plain, &warmEntry{snap: snap})
	warm.putIfAbsent(withRec, &warmEntry{snap: snap, rec: &dummyRec})

	got := WarmSnapshots()
	if len(got) != 1 || got[0].Key != exportKey(plain) || got[0].Snap != snap {
		t.Fatalf("WarmSnapshots = %+v, want only the rec-free entry", got)
	}
	if _, ok := LookupWarmSnapshot(exportKey(withRec)); ok {
		t.Fatal("LookupWarmSnapshot served a rec-carrying entry")
	}
	if s, ok := LookupWarmSnapshot(exportKey(plain)); !ok || s != snap {
		t.Fatal("LookupWarmSnapshot missed the exchangeable entry")
	}

	// Install path: a peer-delivered snapshot becomes locally visible.
	inKey := WarmStateKey{Kind: "aes-warm", Arch: "Skylake", PHRSize: 93, Prog: 3}
	InstallWarmSnapshot(inKey, snap)
	if s, ok := LookupWarmSnapshot(inKey); !ok || s != snap {
		t.Fatal("InstallWarmSnapshot entry not visible to LookupWarmSnapshot")
	}
}

// TestAESFetchedWarmStateByteIdentical is the cross-process half of the
// determinism contract: an AES evaluation whose per-trial warm state
// arrives through the fetch hook (as it would from a cluster peer, via the
// wire codec) must produce a byte-identical report to one that trained
// locally.
func TestAESFetchedWarmStateByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	defer SetWarmFetch(nil)

	// Reference run: train everything locally, then steal the per-trial
	// warm snapshot it produced — round-tripped through the wire codec to
	// model a network transfer.
	warm.reset()
	SetWarmFetch(nil)
	want, err := AESLeakEval(ctx, Options{parallelism: 1}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := marshalReport(t, want)
	exported := WarmSnapshots()
	var donor *WarmSnapshot
	for i := range exported {
		if exported[i].Key.Kind == "aes-warm" {
			donor = &exported[i]
			break
		}
	}
	if donor == nil {
		t.Fatal("reference run left no exchangeable aes-warm snapshot")
	}
	blob, err := donor.Snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Fetched run: cold cache, hook serves the decoded peer snapshot.
	warm.reset()
	ResetWarmFetchStats()
	var fetched atomic.Int64
	SetWarmFetch(func(k WarmStateKey) (*cpu.Snapshot, bool) {
		if k != donor.Key {
			return nil, false
		}
		dec, err := cpu.DecodeSnapshot(blob)
		if err != nil {
			t.Errorf("decoding fetched snapshot: %v", err)
			return nil, false
		}
		fetched.Add(1)
		return dec, true
	})
	got, err := AESLeakEval(ctx, Options{parallelism: 4}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON := marshalReport(t, got); gotJSON != wantJSON {
		t.Errorf("fetched-warm-state report diverges:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
	if fetched.Load() == 0 {
		t.Error("fetch hook never served the per-trial warm snapshot")
	}
}

// TestWarmCacheSingleflightMixedKeys is satellite coverage: concurrent
// do/get/putIfAbsent over interleaved hit and miss keys must keep exactly
// one compute per key, deliver the same entry to every caller of a key, and
// stay race-free (run under -race in CI).
func TestWarmCacheSingleflightMixedKeys(t *testing.T) {
	c := newWarmCache(64)
	const keys, callers = 8, 12
	computes := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	entries := make([][]*warmEntry, keys)
	for k := range entries {
		entries[k] = make([]*warmEntry, callers)
	}
	release := make(chan struct{})
	for k := 0; k < keys; k++ {
		key := warmKey{kind: "mixed", seed: int64(k)}
		if k%2 == 0 { // pre-populated: every caller must hit, no compute
			c.putIfAbsent(key, warmTestEntry(uint64(k)))
		}
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				key := warmKey{kind: "mixed", seed: int64(k)}
				e, err := c.do(key, func() (*warmEntry, error) {
					computes[k].Add(1)
					<-release
					return warmTestEntry(uint64(k)), nil
				})
				if err != nil {
					t.Error(err)
				}
				entries[k][i] = e
			}(k, i)
		}
	}
	close(release)
	wg.Wait()
	for k := 0; k < keys; k++ {
		want := int64(1)
		if k%2 == 0 {
			want = 0
		}
		if got := computes[k].Load(); got != want {
			t.Errorf("key %d computed %d times, want %d", k, got, want)
		}
		for i := 1; i < callers; i++ {
			if entries[k][i] != entries[k][0] {
				t.Errorf("key %d caller %d got a different entry", k, i)
			}
		}
	}
}

// TestWarmCacheKillSwitchMidRun is satellite coverage: turning the cache
// off between runs changes only whether the cache is consulted, never the
// report bytes.
func TestWarmCacheKillSwitchMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	warm.reset()
	on, err := AESLeakEval(ctx, Options{parallelism: 2}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, on)
	if hits, misses := warm.stats(); hits+misses == 0 {
		t.Fatal("cache-on run never consulted the cache")
	}

	warm.reset()
	off, err := AESLeakEval(ctx, Options{parallelism: 2, noWarmCache: true}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, off); got != want {
		t.Errorf("cache-off run changed report bytes:\ngot:  %s\nwant: %s", got, want)
	}
	if hits, misses := warm.stats(); hits+misses != 0 {
		t.Fatalf("disabled cache was still consulted (%d hits, %d misses)", hits, misses)
	}

	warm.reset()
	back, err := AESLeakEval(ctx, Options{parallelism: 2}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, back); got != want {
		t.Errorf("re-enabled cache changed report bytes:\ngot:  %s\nwant: %s", got, want)
	}
}

// dummyRec marks an entry as carrying a process-local artifact.
var dummyRec core.ExtendedResult
