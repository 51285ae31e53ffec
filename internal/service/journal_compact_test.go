package service

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestCompactJournalReplayEquality is the compaction fixpoint property:
// replay(compact(J)) == replay(J) for a journal holding every record shape —
// finished jobs, mid-run jobs, queued jobs, retry chatter, corrupt lines and
// stray records — in both the service's format and the coordinator's
// (cjob-/cbatch- IDs, assign and requeue records, no start records).
func TestCompactJournalReplayEquality(t *testing.T) {
	for name, lines := range map[string][]string{
		"service": {
			`{"op":"submit","job":"job-000001","experiment":"echo","params":{"seed":11},"timeout_ms":60000,"time":"2026-08-06T12:00:00Z"}`,
			`{"op":"start","job":"job-000001","attempt":1,"time":"2026-08-06T12:00:01Z"}`,
			`{"op":"finish","job":"job-000001","state":"done","result":{"seed":11},"stats":{"runs":1},"time":"2026-08-06T12:00:02Z"}`,
			// Mid-run job: two starts with a retry between them.
			`{"op":"submit","job":"job-000002","experiment":"echo","params":{"seed":22},"timeout_ms":60000,"time":"2026-08-06T12:00:03Z"}`,
			`{"op":"start","job":"job-000002","attempt":1,"time":"2026-08-06T12:00:04Z"}`,
			`{"op":"retry","job":"job-000002","attempt":1,"error":"transient","time":"2026-08-06T12:00:05Z"}`,
			`{"op":"start","job":"job-000002","attempt":2,"time":"2026-08-06T12:00:06Z"}`,
			// Queued job, never started.
			`{"op":"submit","job":"job-000003","experiment":"echo","params":{"seed":33},"batch":"batch-000004","time":"2026-08-06T12:00:07Z"}`,
			// Failed job with an error message.
			`{"op":"submit","job":"job-000005","experiment":"echo","params":{"seed":55},"time":"2026-08-06T12:00:08Z"}`,
			`{"op":"start","job":"job-000005","attempt":1,"time":"2026-08-06T12:00:09Z"}`,
			`{"op":"finish","job":"job-000005","state":"failed","error":"boom","time":"2026-08-06T12:00:10Z"}`,
			// Noise replay already ignores: stray records and a torn tail.
			`{"op":"start","job":"job-999999","attempt":1,"time":"2026-08-06T12:00:11Z"}`,
			`{"op":"submit","job":"job-0000`,
		},
		"coordinator": coordinatorJournalLines,
	} {
		t.Run(name, func(t *testing.T) {
			path := writeJournalLines(t, t.TempDir(), lines...)
			log := slog.New(slog.DiscardHandler)

			before, beforeSeq, err := replayJournal(path, log)
			if err != nil {
				t.Fatal(err)
			}
			origSize := fileSize(t, path)
			if err := compactJournal(path, before); err != nil {
				t.Fatal(err)
			}
			after, afterSeq, err := replayJournal(path, log)
			if err != nil {
				t.Fatal(err)
			}

			if beforeSeq != afterSeq {
				t.Errorf("maxSeq changed across compaction: %d -> %d", beforeSeq, afterSeq)
			}
			if len(after) != len(before) {
				t.Fatalf("job count changed across compaction: %d -> %d", len(before), len(after))
			}
			for i := range before {
				if !reflect.DeepEqual(*before[i], *after[i]) {
					t.Errorf("job %s replays differently after compaction:\nbefore: %+v\nafter:  %+v",
						before[i].ID, *before[i], *after[i])
				}
			}
			if sz := fileSize(t, path); sz >= origSize {
				t.Errorf("compaction did not shrink the journal: %d -> %d bytes", origSize, sz)
			}
		})
	}
}

// TestOpenCompactsOversizedJournal: a service restarted over a journal past
// the size trigger compacts it on startup and still serves every job —
// terminal results intact, sequence numbers resuming.
func TestOpenCompactsOversizedJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueDepth: 16, DataDir: dir,
		Registry: echoRegistry(t), MaxAttempts: 2,
		RetryBackoff: time.Millisecond,
	}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		v, err := s1.Submit("echo", Params{Seed: int64(i + 1)}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, s1, id)
	}
	wantViews := map[string]JobView{}
	for _, id := range ids {
		v, err := s1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		wantViews[id] = v
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	path := filepath.Join(dir, "journal.jsonl")
	// Append replay-ignored retry chatter so compaction has something
	// measurable to reclaim (the trigger below fires on any non-empty file).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		fmt.Fprintf(f, `{"op":"retry","job":%q,"attempt":1,"error":"padding"}`+"\n", ids[0])
	}
	f.Close()
	fat := fileSize(t, path)

	defer func(at int64) { journalCompactBytes = at }(journalCompactBytes)
	journalCompactBytes = 1 // any non-empty journal compacts
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()

	if sz := fileSize(t, path); sz >= fat {
		t.Errorf("startup did not compact the journal: %d -> %d bytes", fat, sz)
	}
	for id, want := range wantViews {
		got, err := s2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across compacting restart: %v", id, err)
		}
		if got.State != want.State || string(got.Result) != string(want.Result) || got.Error != want.Error {
			t.Errorf("job %s differs across compacting restart:\ngot:  %+v\nwant: %+v", id, got, want)
		}
	}
	// New submissions resume the sequence past the compacted history.
	v, err := s2.Submit("echo", Params{Seed: 99}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-000006" {
		t.Errorf("post-compaction submit got %s, want job-000006", v.ID)
	}
	waitTerminal(t, s2, v.ID)

	// A third replay of the now-compacted, re-appended journal still agrees.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	cancel2()
	jobs, _, err := replayJournal(path, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Errorf("final journal replays %d jobs, want 6", len(jobs))
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// waitTerminal polls a job on the service until it is terminal.
func waitTerminal(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}
