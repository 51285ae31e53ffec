package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/service"
)

// jobTable is the client surface both owners of a service.Table expose.
type jobTable interface {
	service.JobAPI
	StateCounts() map[service.State]int
}

// gateRegistry is ctestRegistry plus "gate", which blocks until release is
// closed. A gate job holds a one-worker service's only worker, so the jobs
// queued behind it stay pending, as they do on a coordinator no worker has
// joined.
func gateRegistry(release <-chan struct{}) *service.Registry {
	r := ctestRegistry()
	err := r.Register(service.Experiment{
		Name:        "gate",
		Description: "test: blocks until released",
		Run: func(ctx context.Context, p service.Params) (any, cpu.Counters, error) {
			select {
			case <-release:
				return map[string]bool{"released": true}, cpu.Counters{}, nil
			case <-ctx.Done():
				return nil, cpu.Counters{}, ctx.Err()
			}
		},
	})
	if err != nil {
		panic(err)
	}
	return r
}

// sameViews fails unless the service's and the coordinator's views encode
// to the same JSON once the coordinator's "c" ID prefixes and its worker
// names are normalized away. dropAttempts also ignores the attempt count,
// which the coordinator's journal never recorded.
func sameViews(t *testing.T, step string, svc, coord []service.JobView, dropAttempts bool) {
	t.Helper()
	encode := func(vs []service.JobView) string {
		out := make([]service.JobView, len(vs))
		for i, v := range vs {
			v.ID = strings.TrimPrefix(v.ID, "c")
			v.Batch = strings.TrimPrefix(v.Batch, "c")
			v.Worker = ""
			if dropAttempts {
				v.Attempts = 0
			}
			out[i] = v
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if s, c := encode(svc), encode(coord); s != c {
		t.Fatalf("%s: views differ\nservice:\n%s\ncoordinator:\n%s", step, s, c)
	}
}

// sameErr fails unless both owners returned the same error text.
func sameErr(t *testing.T, step string, svcErr, coordErr error) {
	t.Helper()
	if svcErr == nil || coordErr == nil || svcErr.Error() != coordErr.Error() {
		t.Fatalf("%s: service err %v, coordinator err %v, want the same error", step, svcErr, coordErr)
	}
}

// TestJobTableParity runs one script against a standalone Service and a
// Coordinator: submit, sweep, refused submissions, cancel while pending,
// finish, then restart both from their journals. At every step the two
// owners' job views must agree except for the ID prefix and the worker.
// A fixed clock makes every timestamp comparable.
func TestJobTableParity(t *testing.T) {
	svcDir, coordDir := t.TempDir(), t.TempDir()
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return t0 }
	release := make(chan struct{})
	reg := gateRegistry(release)

	open := func() (*service.Service, *Coordinator) {
		svc, err := service.Open(service.Config{Workers: 1, QueueDepth: 8, DataDir: svcDir, Registry: reg, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(CoordinatorConfig{MaxPending: 8, DataDir: coordDir, Registry: reg, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		return svc, coord
	}
	stop := func(svc *service.Service, coord *Coordinator) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := coord.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	svc, coord := open()
	owners := []jobTable{svc, coord}

	// The gate job takes the service's worker; everything after it waits.
	for _, o := range owners {
		if _, err := o.Submit("gate", service.Params{}, "", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the service's gate job to start", func() bool {
		v, err := svc.Get("job-000001")
		return err == nil && v.State == service.StateRunning
	})

	var submitted [2]service.JobView
	var swept [2][]service.JobView
	var batches [2]string
	for i, o := range owners {
		v, err := o.Submit("ctest", service.Params{Seed: 7}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		submitted[i] = v
		batches[i], swept[i], err = o.SubmitSweep("ctest", service.Params{}, []string{"alderlake", "skylake"}, []int64{1, 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	sameViews(t, "submit", submitted[:1], submitted[1:], false)
	sameViews(t, "sweep", swept[0], swept[1], false)
	if batches[0] != "batch-000003" || batches[1] != "cbatch-000003" {
		t.Fatalf("batch IDs %q, %q, want batch-000003 and cbatch-000003", batches[0], batches[1])
	}

	// Refusals agree and leave no record behind.
	var errs [2]error
	for i, o := range owners {
		_, errs[i] = o.Submit("ctest", service.Params{Trials: -1}, "", 0)
	}
	sameErr(t, "out-of-range param", errs[0], errs[1])
	for i, o := range owners {
		_, errs[i] = o.Submit("no-such-experiment", service.Params{}, "", 0)
	}
	sameErr(t, "unknown experiment", errs[0], errs[1])
	for i, o := range owners {
		_, _, errs[i] = o.SubmitSweep("ctest", service.Params{}, []string{"alderlake", "skylake", "raptorlake"}, []int64{1, 2, 3}, 0)
		if !errors.Is(errs[i], service.ErrQueueFull) {
			t.Fatalf("oversized sweep: err %v, want ErrQueueFull", errs[i])
		}
	}
	sameErr(t, "oversized sweep", errs[0], errs[1])

	// Cancel one sweep point while it waits.
	var cancelled [2]service.JobView
	for i, o := range owners {
		v, err := o.Cancel(swept[i][1].ID)
		if err != nil {
			t.Fatal(err)
		}
		cancelled[i] = v
		_, errs[i] = o.Cancel("job-999999")
	}
	sameViews(t, "cancel pending", cancelled[:1], cancelled[1:], false)
	sameErr(t, "cancel unknown", errs[0], errs[1])
	waiting := service.ListFilter{State: service.StatePending, Experiment: "ctest"}
	sameViews(t, "pending table", svc.List(waiting), coord.List(waiting), false)

	// Finish: the service runs its queue once the gate opens; the
	// coordinator takes the same results from a worker.
	close(release)
	waitFor(t, "the service's queue to drain", func() bool {
		n := svc.StateCounts()
		return n[service.StatePending]+n[service.StateRunning] == 0
	})
	var results []JobResult
	for _, v := range coord.List(service.ListFilter{State: service.StatePending}) {
		exp, _ := reg.Get(v.Experiment)
		raw, stats, err := service.Execute(context.Background(), exp.Run, v.Params)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, JobResult{ID: v.ID, State: service.StateDone, Result: raw, Stats: &stats, Attempts: 1})
	}
	coord.handleResults(ResultsPush{Worker: "w0", Results: results})
	for i, o := range owners {
		_, errs[i] = o.Cancel(submitted[i].ID)
	}
	sameErr(t, "cancel finished", errs[0], errs[1])
	want := svc.List(service.ListFilter{})
	sameViews(t, "finished table", want, coord.List(service.ListFilter{}), false)
	sameViews(t, "batch listing", svc.List(service.ListFilter{Batch: batches[0]}), coord.List(service.ListFilter{Batch: batches[1]}), false)
	if s, c := fmt.Sprint(svc.StateCounts()), fmt.Sprint(coord.StateCounts()); s != c {
		t.Fatalf("state counts: service %s, coordinator %s", s, c)
	}

	// Restart both from their journals.
	stop(svc, coord)
	svc, coord = open()
	defer stop(svc, coord)
	owners = []jobTable{svc, coord}
	restored := svc.List(service.ListFilter{})
	sameViews(t, "restored table", restored, coord.List(service.ListFilter{}), true)
	sameViews(t, "service restored", want, restored, false)
	for i, o := range owners {
		v, err := o.Submit("ctest", service.Params{Seed: 9}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		submitted[i] = v
	}
	if submitted[0].ID != "job-000008" {
		t.Fatalf("first ID after restart %s, want job-000008", submitted[0].ID)
	}
	sameViews(t, "submit after restart", submitted[:1], submitted[1:], false)
}

// TestJobTableConcurrentAccess drives Submit, SubmitSweep, Cancel, Get and
// List from several goroutines at once on both owners, with queues small
// enough that admission refuses some jobs. Then it checks the table: every
// sequence number went to exactly one admitted job or batch (a refused job
// consumes none), listing order is ID order, each batch lists the points
// its sweep admitted, and the state counts add up. Run it under -race.
func TestJobTableConcurrentAccess(t *testing.T) {
	const goroutines, rounds = 4, 20
	svc := service.New(service.Config{Workers: 2, QueueDepth: 16, Registry: ctestRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	coord, _ := startCoord(t, CoordinatorConfig{MaxPending: 128})

	for _, tc := range []struct {
		name  string
		table jobTable
	}{{"service", svc}, {"coordinator", coord}} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.table
			var (
				mu      sync.Mutex
				jobs    []string
				batches []string
				refused int
				wg      sync.WaitGroup
			)
			admitted := func(err error) bool {
				if errors.Is(err, service.ErrQueueFull) {
					mu.Lock()
					refused++
					mu.Unlock()
				} else if err != nil {
					t.Error(err)
				}
				return err == nil
			}
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						var ids []string
						v, err := o.Submit("ctest", service.Params{Seed: int64(g*rounds + r + 1)}, "", 0)
						if admitted(err) {
							ids = append(ids, v.ID)
						}
						batch, views, err := o.SubmitSweep("ctest", service.Params{}, []string{"alderlake", "skylake"}, []int64{int64(g + 1), int64(r + 1)}, 0)
						admitted(err)
						for _, sv := range views {
							ids = append(ids, sv.ID)
						}
						if len(views) > 0 {
							if _, err := o.Cancel(views[r%len(views)].ID); err != nil && !errors.Is(err, service.ErrFinished) {
								t.Error(err)
							}
						}
						for _, id := range ids {
							if got, err := o.Get(id); err != nil || got.ID != id {
								t.Errorf("Get(%s) = %s, %v", id, got.ID, err)
							}
						}
						if batch != "" {
							if n := len(o.List(service.ListFilter{Batch: batch})); n != len(views) {
								t.Errorf("batch %s lists %d jobs, its sweep admitted %d", batch, n, len(views))
							}
						}
						o.List(service.ListFilter{State: service.StatePending})
						mu.Lock()
						jobs = append(jobs, ids...)
						if batch != "" {
							batches = append(batches, batch)
						}
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			t.Logf("%d jobs admitted, %d refused", len(jobs), refused)
			if tc.name == "coordinator" && refused == 0 {
				t.Fatal("no submission was refused; the pending bound was never reached")
			}

			seqOf := func(id string) int {
				n, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
				if err != nil {
					t.Fatalf("ID %q has no sequence number", id)
				}
				return n
			}
			used := make(map[int]string)
			for _, id := range append(append([]string(nil), jobs...), batches...) {
				n := seqOf(id)
				if prev, dup := used[n]; dup {
					t.Fatalf("sequence number %d used by both %s and %s", n, prev, id)
				}
				used[n] = id
			}
			for n := 1; n <= len(used); n++ {
				if _, ok := used[n]; !ok {
					t.Fatalf("sequence number %d unused among %d IDs", n, len(used))
				}
			}
			all := o.List(service.ListFilter{})
			if len(all) != len(jobs) {
				t.Fatalf("table lists %d jobs, %d were admitted", len(all), len(jobs))
			}
			for i := 1; i < len(all); i++ {
				if seqOf(all[i-1].ID) >= seqOf(all[i].ID) {
					t.Fatalf("listing out of submission order: %s before %s", all[i-1].ID, all[i].ID)
				}
			}
			total := 0
			for _, n := range o.StateCounts() {
				total += n
			}
			if total != len(jobs) {
				t.Fatalf("state counts sum to %d, want %d", total, len(jobs))
			}
		})
	}
}
