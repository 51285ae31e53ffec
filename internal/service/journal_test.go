package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/cpu"
)

func writeJournalLines(t *testing.T, dir string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// coordinatorJournalLines is a coordinator.jsonl in the format the cluster
// coordinator writes: cjob-/cbatch- IDs, assign and requeue records between
// submit and finish (one assignment in-process under degraded mode), a job
// still queued, a stray record and a torn tail.
var coordinatorJournalLines = []string{
	`{"op":"submit","job":"cjob-000002","time":"2026-10-17T01:01:25.382445173Z","experiment":"ctest","params":{"arch":"alderlake","seed":1},"batch":"cbatch-000001","timeout_ms":120000}`,
	`{"op":"submit","job":"cjob-000003","time":"2026-10-17T01:01:25.382797913Z","experiment":"ctest","params":{"arch":"alderlake","seed":2},"batch":"cbatch-000001","timeout_ms":120000}`,
	`{"op":"assign","job":"cjob-000002","time":"2026-10-17T01:01:25.405496125Z","worker":"w0"}`,
	`{"op":"assign","job":"cjob-000003","time":"2026-10-17T01:01:25.405524024Z","worker":"w0"}`,
	`{"op":"finish","job":"cjob-000002","time":"2026-10-17T01:01:25.424159843Z","state":"done","result":{"arch":"alderlake","seed":1,"value":40},"stats":{"instructions":0,"cycles":0,"cond_branches":0,"taken_branches":0,"mispredicts":0,"transient_instrs":0,"runs":1}}`,
	`{"op":"requeue","job":"cjob-000003","time":"2026-10-17T01:01:27.412901352Z","worker":"w0","reason":"lease expired"}`,
	`{"op":"assign","job":"cjob-000003","time":"2026-10-17T01:01:27.430114297Z","worker":"coordinator"}`,
	`{"op":"finish","job":"cjob-000003","time":"2026-10-17T01:01:27.451726910Z","state":"failed","error":"experiment \"ctest\" not runnable on the coordinator"}`,
	`{"op":"submit","job":"cjob-000004","time":"2026-10-17T01:01:27.460626654Z","experiment":"ctest","params":{"arch":"skylake","seed":5},"timeout_ms":30000}`,
	`{"op":"requeue","job":"cjob-000009","time":"2026-10-17T01:01:27.470000000Z","worker":"w1","reason":"lease expired"}`,
	`{"op":"finish","job":"cjob-0000`,
}

// TestJournalAppendBytes pins the bytes Append writes against literal
// lines: the service's record shapes, then the coordinator's assign and
// requeue records. Zero stats are omitted, non-zero stats spelled out.
func TestJournalAppendBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, _, err := OpenJournal(path, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	p := Params{Arch: "alderlake", Seed: 7, Trials: 3, Noise: -1}
	for _, rec := range []JournalRecord{
		{Op: OpSubmit, Job: "job-000002", Time: now, Experiment: "echo", Params: &p, Batch: "batch-000001", TimeoutMS: 60000},
		{Op: OpStart, Job: "job-000002", Time: now.Add(time.Second), Attempt: 1},
		{Op: OpRetry, Job: "job-000002", Time: now.Add(2 * time.Second), Attempt: 1, Error: "transient"},
		{Op: OpStart, Job: "job-000002", Time: now.Add(3 * time.Second), Attempt: 2},
		{Op: OpFinish, Job: "job-000002", Time: now.Add(4 * time.Second), State: StateDone, Result: json.RawMessage(`{"seed":7}`),
			Stats: cpu.Counters{Instructions: 12345678, Cycles: 9, Runs: 1}},
		{Op: OpFinish, Job: "job-000003", Time: now.Add(5 * time.Second), State: StateFailed, Error: "boom"},
		{Op: OpAssign, Job: "cjob-000004", Time: now.Add(6 * time.Second), Worker: "w0"},
		{Op: OpRequeue, Job: "cjob-000004", Time: now.Add(7 * time.Second), Worker: "w0", Reason: "lease expired"},
	} {
		j.Append(rec)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`{"op":"submit","job":"job-000002","time":"2026-08-06T12:00:00Z","experiment":"echo","params":{"arch":"alderlake","seed":7,"trials":3,"noise":-1},"batch":"batch-000001","timeout_ms":60000}`,
		`{"op":"start","job":"job-000002","time":"2026-08-06T12:00:01Z","attempt":1}`,
		`{"op":"retry","job":"job-000002","time":"2026-08-06T12:00:02Z","attempt":1,"error":"transient"}`,
		`{"op":"start","job":"job-000002","time":"2026-08-06T12:00:03Z","attempt":2}`,
		`{"op":"finish","job":"job-000002","time":"2026-08-06T12:00:04Z","state":"done","result":{"seed":7},"stats":{"instructions":12345678,"cycles":9,"cond_branches":0,"taken_branches":0,"mispredicts":0,"transient_instrs":0,"runs":1}}`,
		`{"op":"finish","job":"job-000003","time":"2026-08-06T12:00:05Z","state":"failed","error":"boom"}`,
		`{"op":"assign","job":"cjob-000004","time":"2026-08-06T12:00:06Z","worker":"w0"}`,
		`{"op":"requeue","job":"cjob-000004","time":"2026-08-06T12:00:07Z","worker":"w0","reason":"lease expired"}`,
	}, "\n") + "\n"
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("journal bytes:\n%s\nwant:\n%s", got, want)
	}
}

// TestJournalReplayCoordinatorFormat: one replay serves the coordinator's
// journal — cjob-/cbatch- IDs set the sequence, assign and requeue records
// are history only.
func TestJournalReplayCoordinatorFormat(t *testing.T) {
	path := writeJournalLines(t, t.TempDir(), coordinatorJournalLines...)
	var buf bytes.Buffer
	jobs, maxSeq, err := replayJournal(path, slog.New(slog.NewTextHandler(&buf, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if maxSeq != 4 {
		t.Errorf("maxSeq = %d, want 4", maxSeq)
	}
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	done, failed, queued := jobs[0], jobs[1], jobs[2]
	if !done.Finished || done.State != StateDone || string(done.Result) != `{"arch":"alderlake","seed":1,"value":40}` ||
		done.Stats != (cpu.Counters{Runs: 1}) || done.Batch != "cbatch-000001" || done.Starts != 0 {
		t.Errorf("done job replay = %+v", done)
	}
	if !failed.Finished || failed.State != StateFailed || failed.Error != `experiment "ctest" not runnable on the coordinator` {
		t.Errorf("failed job replay = %+v", failed)
	}
	if queued.Finished || queued.Timeout != 30*time.Second || queued.Params.Arch != "skylake" {
		t.Errorf("queued job replay = %+v", queued)
	}
	for _, want := range []string{"stray requeue", "corrupt record"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("log missing %q warning; log:\n%s", want, buf.String())
		}
	}
}

func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(filepath.Join(dir, "journal.jsonl"), slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	p := Params{Seed: 7, Trials: 3}
	records := []JournalRecord{
		{Op: OpSubmit, Job: "job-000001", Time: now, Experiment: "echo", Params: &p, TimeoutMS: 60000},
		{Op: OpStart, Job: "job-000001", Time: now, Attempt: 1},
		{Op: OpFinish, Job: "job-000001", Time: now, State: StateDone, Result: json.RawMessage(`{"n":1}`)},
		{Op: OpSubmit, Job: "job-000002", Time: now, Experiment: "echo", Params: &p, Batch: "batch-000003"},
		{Op: OpStart, Job: "job-000002", Time: now, Attempt: 1},
		{Op: OpRetry, Job: "job-000002", Time: now, Attempt: 1, Error: "transient"},
		{Op: OpStart, Job: "job-000002", Time: now, Attempt: 2},
	}
	for _, rec := range records {
		j.Append(rec)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, maxSeq, err := replayJournal(filepath.Join(dir, "journal.jsonl"), slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if maxSeq != 3 {
		t.Fatalf("maxSeq = %d, want 3 (the batch ID outranks both job IDs)", maxSeq)
	}
	j1, j2 := jobs[0], jobs[1]
	if !j1.Finished || j1.State != StateDone || string(j1.Result) != `{"n":1}` {
		t.Fatalf("job 1 replay = %+v, want finished done with its result", j1)
	}
	if j1.Params.Seed != 7 || j1.Params.Trials != 3 || j1.Timeout != time.Minute {
		t.Fatalf("job 1 params/timeout not preserved: %+v", j1)
	}
	if j2.Finished || j2.Starts != 2 || j2.Batch != "batch-000003" {
		t.Fatalf("job 2 replay = %+v, want unfinished with 2 starts", j2)
	}
}

func TestJournalReplayMissingFileIsEmpty(t *testing.T) {
	jobs, maxSeq, err := replayJournal(filepath.Join(t.TempDir(), "journal.jsonl"), slog.New(slog.DiscardHandler))
	if err != nil || len(jobs) != 0 || maxSeq != 0 {
		t.Fatalf("missing journal: jobs=%v maxSeq=%d err=%v, want empty", jobs, maxSeq, err)
	}
}

// TestJournalReplaySkipsCorruptTail covers the crash-mid-append case: the
// torn last line must be skipped with a logged warning while every record
// before it replays normally.
func TestJournalReplaySkipsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := writeJournalLines(t, dir,
		`{"op":"submit","job":"job-000001","experiment":"echo","time":"2026-08-06T12:00:00Z"}`,
		`{"op":"start","job":"job-000001","attempt":1,"time":"2026-08-06T12:00:01Z"}`,
		`{"op":"finish","job":"job-000001","state":"done","time":"2026-08-06T12:00:02Z"}`,
		`{"op":"submit","job":"job-000002","experiment":"ec`, // torn mid-append
	)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	jobs, maxSeq, err := replayJournal(path, logger)
	if err != nil {
		t.Fatalf("corrupt tail surfaced as an error: %v", err)
	}
	if len(jobs) != 1 || !jobs[0].Finished {
		t.Fatalf("replayed %d jobs, want only the intact finished one", len(jobs))
	}
	if maxSeq != 1 {
		t.Fatalf("maxSeq = %d, want 1 (torn submit must not count)", maxSeq)
	}
	if !strings.Contains(buf.String(), "skipping corrupt record") {
		t.Fatalf("corrupt tail skipped without a logged warning; log:\n%s", buf.String())
	}
}

// TestJournalReplaySkipsStrayRecords: records referencing unknown jobs,
// duplicate submits, and unknown ops are all warnings, never errors.
func TestJournalReplaySkipsStrayRecords(t *testing.T) {
	dir := t.TempDir()
	path := writeJournalLines(t, dir,
		`{"op":"start","job":"job-000009","attempt":1}`,
		`{"op":"submit","job":"job-000001","experiment":"echo"}`,
		`{"op":"submit","job":"job-000001","experiment":"echo"}`,
		`{"op":"finish","job":"job-000007","state":"done"}`,
		`{"op":"warp","job":"job-000001"}`,
		`{"op":"finish","job":"job-000001","state":"running"}`,
	)
	var buf bytes.Buffer
	jobs, _, err := replayJournal(path, slog.New(slog.NewTextHandler(&buf, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Finished || jobs[0].Starts != 0 {
		t.Fatalf("stray records leaked into replay state: %+v", jobs)
	}
	for _, want := range []string{"stray start", "duplicate submit", "stray finish", "unknown op", "non-terminal state"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("log missing %q warning; log:\n%s", want, buf.String())
		}
	}
}

// FuzzJournalReplay is the satellite fuzz target: no journal content —
// corrupt, truncated, adversarial, or enormous — may panic the replay path.
// Corrupt tails are skipped with a warning; replay must always return.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"op":"submit","job":"job-000001","experiment":"echo"}` + "\n"))
	f.Add([]byte(`{"op":"submit","job":"job-000001","experiment":"echo"}` + "\n" +
		`{"op":"start","job":"job-000001","attempt":1}` + "\n" +
		`{"op":"finish","job":"job-000001","state":"done","result":{"n":1}}` + "\n"))
	f.Add([]byte(`{"op":"finish","job":"job-000001","state":"done"}` + "\n" + `{"op":"sub`))
	f.Add([]byte(`{"op":"submit","job":"job-00000000000000000000001","experiment":"e"}` + "\n"))
	f.Add([]byte("\x00\xff\xfe garbage"))
	f.Add([]byte(strings.Join(coordinatorJournalLines, "\n") + "\n"))
	f.Add([]byte(`{"op":"submit","job":"cjob-000001","experiment":"e","batch":"cbatch-"}` + "\n" +
		`{"op":"assign","job":"cjob-000001","worker":"w0"}` + "\n" +
		`{"op":"requeue","job":"cjob-000001","worker":"w0","reason":"lease expired"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		jobs, _, err := replayJournal(path, slog.New(slog.DiscardHandler))
		if err != nil {
			t.Fatalf("replay returned an error for on-disk content: %v", err)
		}
		// Whatever replayed must be internally consistent: unique IDs, and
		// finished jobs carry terminal states.
		seen := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			if seen[j.ID] {
				t.Fatalf("duplicate job %s in replay", j.ID)
			}
			seen[j.ID] = true
			if j.Finished && !j.State.Terminal() {
				t.Fatalf("job %s finished with non-terminal state %q", j.ID, j.State)
			}
		}
	})
}
