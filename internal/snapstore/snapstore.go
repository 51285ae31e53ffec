// Package snapstore is the persistent tier of the harness warm-state cache:
// a content-addressed, on-disk store of machine snapshots (plus, for
// phase-level checkpoints, the recovery artifact needed to resume from
// them), living under the daemon's -data-dir. The in-process warm cache
// spills trained entries here and consults it on a miss, so cold processes —
// a restarted standalone daemon, a fresh cluster worker, a new noisebench
// run — restore ~1 ms snapshots instead of re-running ~70 ms training
// phases.
//
// Durability and integrity follow the journal's discipline: writes go to a
// temp file and rename into place (a crash never leaves a half-written
// entry under its final name), and every file carries an FNV-1a hash over
// its payload that Load verifies before decoding — a torn or bit-flipped
// file is deleted and reported as a miss, never restored. The embedded
// snapshot section additionally self-verifies through the PFSN envelope's
// content hash, so a mis-addressed blob is structurally unrestorable.
//
// The store is size-capped: Save evicts least-recently-used entries (file
// mtime, which Load refreshes on every hit — the portable spelling of LRU
// by access time) until the configured byte budget holds.
package snapstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/wire"
)

// File envelope. Bump the version on any layout change; decoders reject
// other versions (the store is an exchange format between same-version
// binaries, like the snapshot codec it embeds), and the Open scan deletes
// them, so a daemon restarted over an older store retrains instead of
// failing. Version 3 is magic, version, payload hash, then the payload:
// key, snapshot hash, snapshot section, optional recovery section.
const (
	storeMagic   = "PFWS" // PathFinder Warm Store
	storeVersion = 3
	fileExt      = ".pfws"
	tmpPrefix    = "tmp-"

	// DefaultMaxBytes is the byte budget when Open is given none: thousands
	// of entries, since a snapshot encodes only nonzero predictor state and
	// valid cache lines, tens of kilobytes for a trained §9 machine.
	DefaultMaxBytes = 256 << 20

	// maxFileBytes bounds a single entry read; a snapshot plus recovery
	// artifact is a few MiB at most.
	maxFileBytes = 64 << 20

	// headerProbe is how much of a file the Open scan reads to recover the
	// key and snapshot hash: envelope + key (keys are ~50 bytes).
	headerProbe = 4096
)

// Entry describes one resident store entry, for heartbeat advertisements
// and diagnostics.
type Entry struct {
	Key      string
	SnapHash uint64 // content hash of the embedded snapshot
	Size     int64
}

type indexEntry struct {
	path     string
	size     int64
	snapHash uint64
	mtime    time.Time
}

// Store is the on-disk snapshot store. All methods are safe for concurrent
// use. The zero value is unusable; use Open.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	index   map[string]*indexEntry
	bytes   int64
	hits    uint64
	misses  uint64
	puts    uint64
	evicted uint64
}

// Open scans dir (creating it if needed) and indexes every resident entry.
// Unparseable or torn files — including temp files from a crashed writer
// and entries of another store version — are removed. maxBytes <= 0
// selects DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snapstore: empty directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[string]*indexEntry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(path) // torn write from a crashed process
			continue
		}
		if !strings.HasSuffix(name, fileExt) || de.IsDir() {
			continue
		}
		key, snapHash, err := probeHeader(path)
		if err != nil {
			_ = os.Remove(path)
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.index[key] = &indexEntry{path: path, size: info.Size(), snapHash: snapHash, mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.gcLocked()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// probeHeader reads just enough of a file to recover its key and snapshot
// hash without decoding the body. The payload hash is NOT verified here —
// Load does that on every read — so Open stays cheap on big stores.
func probeHeader(path string) (key string, snapHash uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	buf := make([]byte, headerProbe)
	n, _ := f.Read(buf)
	if n < 4 || string(buf[:4]) != storeMagic {
		return "", 0, fmt.Errorf("snapstore: %s lacks %q magic", path, storeMagic)
	}
	r := wire.NewReader(buf[4:n])
	if v := r.U16(); v != storeVersion {
		return "", 0, fmt.Errorf("snapstore: %s version %d, this build speaks %d", path, v, storeVersion)
	}
	_ = r.U64() // payload hash; verified by Load
	key = r.String()
	snapHash = r.U64()
	if err := r.Err(); err != nil {
		return "", 0, err
	}
	if key == "" {
		return "", 0, fmt.Errorf("snapstore: %s has an empty key", path)
	}
	return key, snapHash, nil
}

// fnv1a folds b FNV-1a style — the same hash the snapshot envelope uses.
func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range b {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	return h
}

// fileName derives the entry file name from the key's FNV-1a hash. Key
// equality is re-verified on Load, so a (vanishingly unlikely) hash
// collision degrades to a miss, never a wrong restore.
func fileName(key string) string {
	return fmt.Sprintf("%016x%s", fnv1a([]byte(key)), fileExt)
}

// bufPool recycles encode scratch — snapshot sections, recovery sections
// and whole entry files — across saves, keeping the spill path
// allocation-light (buffers are encoding-sized, tens of kilobytes).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// encodeEntry appends one rendered entry file to dst: envelope, then the
// hashed payload. snapBlob is the PFSN snapshot encoding; recBytes is the
// recovery artifact's wire encoding, nil when the entry carries none.
func encodeEntry(dst []byte, key string, snapHash uint64, snapBlob, recBytes []byte) []byte {
	w := wire.NewWriterBuf(dst)
	w.Raw([]byte(storeMagic))
	w.U16(storeVersion)
	w.U64(0) // payload hash, patched below
	w.String(key)
	w.U64(snapHash)
	w.U32(uint32(len(snapBlob)))
	w.Raw(snapBlob)
	w.Bool(recBytes != nil)
	if recBytes != nil {
		w.U32(uint32(len(recBytes)))
		w.Raw(recBytes)
	}
	out := w.Bytes()
	binary.LittleEndian.PutUint64(out[6:14], fnv1a(out[14:]))
	return out
}

// parsedEntry is one verified entry file, sectioned. snapBlob and recBytes
// alias the file data; recBytes is nil when the entry carries no recovery
// artifact.
type parsedEntry struct {
	snapHash uint64
	snapBlob []byte
	recBytes []byte
}

// parseEntry verifies the envelope, payload hash and stored key of one
// entry file and splits it into sections. It does not decode the snapshot
// or the recovery artifact; Load does that.
func parseEntry(data []byte, wantKey string) (parsedEntry, error) {
	var p parsedEntry
	if len(data) < 4 || string(data[:4]) != storeMagic {
		return p, fmt.Errorf("snapstore: blob lacks %q magic", storeMagic)
	}
	r := wire.NewReader(data[4:])
	if v := r.U16(); v != storeVersion {
		return p, fmt.Errorf("snapstore: blob version %d, this build speaks %d", v, storeVersion)
	}
	wantHash := r.U64()
	if got := fnv1a(r.Rest()); got != wantHash {
		return p, fmt.Errorf("snapstore: payload hash %016x does not match envelope %016x (torn or corrupt file)", got, wantHash)
	}
	if key := r.String(); key != wantKey {
		return p, fmt.Errorf("snapstore: blob holds key %q, want %q", key, wantKey)
	}
	p.snapHash = r.U64()
	p.snapBlob = section(r)
	if r.Bool() {
		p.recBytes = section(r)
	}
	if err := r.Err(); err != nil {
		return p, err
	}
	if r.Remaining() != 0 {
		return p, fmt.Errorf("snapstore: blob has %d trailing bytes", r.Remaining())
	}
	return p, nil
}

// section reads one length-prefixed section, aliasing r's input. A length
// beyond the entry bound or the remaining bytes latches an error on r.
func section(r *wire.Reader) []byte {
	n := r.Len(maxFileBytes)
	b := r.Rest()
	r.Skip(n)
	if r.Err() != nil {
		return nil
	}
	return b[:n]
}

// readEntry reads and structurally verifies the file behind an index entry.
func (s *Store) readEntry(key string, e *indexEntry) (parsedEntry, error) {
	data, err := os.ReadFile(e.path)
	if err != nil {
		return parsedEntry{}, err
	}
	if int64(len(data)) > maxFileBytes {
		return parsedEntry{}, fmt.Errorf("snapstore: %s exceeds the %d-byte entry bound", e.path, int64(maxFileBytes))
	}
	return parseEntry(data, key)
}

// decodeEntry decodes a parsed entry's snapshot, checking it against the
// header hash, and its recovery artifact, if any.
func decodeEntry(p parsedEntry) (*cpu.Snapshot, *core.ExtendedResult, error) {
	snap, err := cpu.DecodeSnapshot(p.snapBlob)
	if err != nil {
		return nil, nil, err
	}
	if snap.Hash() != p.snapHash {
		return nil, nil, fmt.Errorf("snapstore: snapshot hash %016x does not match header %016x", snap.Hash(), p.snapHash)
	}
	if p.recBytes == nil {
		return snap, nil, nil
	}
	rr := wire.NewReader(p.recBytes)
	rec := core.DecodeWireExtendedResult(rr)
	if err := rr.Err(); err != nil {
		return nil, nil, err
	}
	if rr.Remaining() != 0 {
		return nil, nil, fmt.Errorf("snapstore: recovery section has %d trailing bytes", rr.Remaining())
	}
	return snap, rec, nil
}

// Load returns the entry stored under key, verifying the payload hash and
// the embedded snapshot's own envelope before anything is restored. A
// corrupt file is deleted and reported as a miss. A hit refreshes the
// entry's recency stamp.
func (s *Store) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		s.misses++
		return nil, nil, false
	}
	p, err := s.readEntry(key, e)
	var snap *cpu.Snapshot
	var rec *core.ExtendedResult
	if err == nil {
		snap, rec, err = decodeEntry(p)
	}
	if err != nil {
		s.dropLocked(key, e)
		s.misses++
		return nil, nil, false
	}
	now := time.Now()
	if os.Chtimes(e.path, now, now) == nil {
		e.mtime = now
	}
	s.hits++
	return snap, rec, true
}

// LoadSnapshotBlob returns the PFSN-encoded snapshot section of the entry
// stored under key, after verifying the file's payload hash — the cluster
// worker serves peer snapshot fetches with this, no machine-decode round
// trip. A corrupt file is deleted and reported as absent.
func (s *Store) LoadSnapshotBlob(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return nil, false
	}
	p, err := s.readEntry(key, e)
	if err != nil {
		s.dropLocked(key, e)
		return nil, false
	}
	return p.snapBlob, true
}

// Save persists an entry under key. The store is content-addressed — a key
// fully describes the machine state it names — so the first write wins and
// a re-save of a resident key is a no-op. The write is temp+rename atomic;
// over-budget entries are evicted least-recently-used first.
func (s *Store) Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult) {
	if key == "" || snap == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return
	}
	snapBuf := getBuf()
	defer putBuf(snapBuf)
	blob, err := snap.AppendBinary((*snapBuf)[:0])
	*snapBuf = blob
	if err != nil {
		return
	}
	var recBytes []byte
	if rec != nil {
		recBuf := getBuf()
		defer putBuf(recBuf)
		rw := wire.NewWriterBuf((*recBuf)[:0])
		rec.EncodeWire(rw)
		recBytes = rw.Bytes()
		*recBuf = recBytes
	}
	fileBuf := getBuf()
	defer putBuf(fileBuf)
	data := encodeEntry((*fileBuf)[:0], key, snap.Hash(), blob, recBytes)
	*fileBuf = data
	path := filepath.Join(s.dir, fileName(key))
	if err := s.writeFile(path, data); err != nil {
		return
	}
	s.index[key] = &indexEntry{path: path, size: int64(len(data)), snapHash: snap.Hash(), mtime: time.Now()}
	s.bytes += int64(len(data))
	s.puts++
	s.gcLocked()
}

// SaveDelta persists an entry exactly as Save does; baseKey is ignored.
// Every entry is a self-contained full blob.
func (s *Store) SaveDelta(key string, snap *cpu.Snapshot, rec *core.ExtendedResult, baseKey string) {
	s.Save(key, snap, rec)
}

// writeFile writes data to a temp file in the store directory and renames
// it over path — the atomic, crash-safe write every entry goes through.
func (s *Store) writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// dropLocked removes one entry and its file.
func (s *Store) dropLocked(key string, e *indexEntry) {
	_ = os.Remove(e.path)
	delete(s.index, key)
	s.bytes -= e.size
}

// gcLocked evicts least-recently-used entries until the byte budget holds.
func (s *Store) gcLocked() {
	if s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key string
		e   *indexEntry
	}
	all := make([]aged, 0, len(s.index))
	for k, e := range s.index {
		all = append(all, aged{k, e})
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].e.mtime.Equal(all[j].e.mtime) {
			return all[i].e.mtime.Before(all[j].e.mtime)
		}
		return all[i].key < all[j].key
	})
	for _, a := range all {
		if s.bytes <= s.maxBytes {
			break
		}
		s.dropLocked(a.key, a.e)
		s.evicted++
	}
}

// Entries lists the resident entries, unordered.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.index))
	for k, e := range s.index {
		out = append(out, Entry{Key: k, SnapHash: e.snapHash, Size: e.size})
	}
	return out
}

// Stats reports cumulative counters and the current footprint. The
// signature matches the harness SnapStore interface, so a *Store plugs into
// harness.SetSnapStore directly.
func (s *Store) Stats() (hits, misses, puts, evictions uint64, bytes int64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.puts, s.evicted, s.bytes, len(s.index)
}
