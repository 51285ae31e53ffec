package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
}

// BatchRequest is the POST /v1/batch body: either an explicit job list or a
// sweep (cross product of archs × seeds over the base params). Exactly one
// of Jobs and Sweep must be used.
type BatchRequest struct {
	Experiment string          `json:"experiment,omitempty"`
	Params     Params          `json:"params,omitempty"`
	Sweep      *Sweep          `json:"sweep,omitempty"`
	Jobs       []SubmitRequest `json:"jobs,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
}

// Sweep is the parameter grid of a batch submission.
type Sweep struct {
	Archs []string `json:"archs,omitempty"`
	Seeds []int64  `json:"seeds,omitempty"`
}

// BatchView summarizes a batch.
type BatchView struct {
	Batch   string        `json:"batch"`
	Total   int           `json:"total"`
	ByState map[State]int `json:"by_state"`
	Jobs    []JobView     `json:"jobs"`
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API: the client job routes of
// RegisterJobRoutes plus
//
//	GET  /healthz               liveness + drain status
//	GET  /readyz                readiness: admission state + per-experiment breakers
//	GET  /metrics               Prometheus text exposition
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		status := http.StatusOK
		if draining {
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, map[string]any{
			"status":  map[bool]string{false: "ok", true: "draining"}[draining],
			"workers": s.Workers(),
			"queue":   s.QueueDepth(),
		})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		breakers := s.breaker.Snapshot()
		// Ready means Submit would be admitted: not draining and queue has
		// room. An open breaker degrades a single experiment, not the whole
		// service, so it is reported but does not flip readiness.
		ready := !draining && s.QueueDepth() < cap(s.queue)
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, map[string]any{
			"ready":    ready,
			"draining": draining,
			"queue":    s.QueueDepth(),
			"capacity": cap(s.queue),
			"breakers": breakers,
		})
	})

	mux.Handle("GET /metrics", s.metrics)
	RegisterJobRoutes(mux, s)
	return mux
}

// JobAPI is the job table behind the client routes. The standalone Service
// and the cluster Coordinator both implement it, so the routes, and the
// JSON a client sees, exist once.
type JobAPI interface {
	Registry() *Registry
	Submit(experiment string, p Params, batch string, timeout time.Duration) (JobView, error)
	SubmitSweep(experiment string, base Params, archs []string, seeds []int64, timeout time.Duration) (string, []JobView, error)
	NewBatch() string
	Get(id string) (JobView, error)
	List(f ListFilter) []JobView
	Cancel(id string) (JobView, error)
}

// RegisterJobRoutes adds the client job routes over api to mux:
//
//	GET  /v1/experiments        registry listing with per-experiment defaults
//	POST /v1/jobs               submit one job
//	GET  /v1/jobs               list jobs (?state=, ?batch=, ?experiment=)
//	GET  /v1/jobs/{id}          one job with its result
//	POST /v1/jobs/{id}/cancel   cancel a pending or running job
//	POST /v1/batch              submit a sweep or an explicit job list
//	GET  /v1/batch/{id}         batch rollup
//	GET  /v1/batch/{id}/report  canonical report (byte-identical across owners)
func RegisterJobRoutes(mux *http.ServeMux, api JobAPI) {
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"experiments": api.Registry().List()})
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !ReadJSON(w, r, &req) {
			return
		}
		v, err := api.Submit(req.Experiment, req.Params, "", time.Duration(req.TimeoutMS)*time.Millisecond)
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, v)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		jobs := api.List(ListFilter{
			State:      State(q.Get("state")),
			Batch:      q.Get("batch"),
			Experiment: q.Get("experiment"),
		})
		WriteJSON(w, http.StatusOK, map[string]any{"total": len(jobs), "jobs": jobs})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := api.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		v, err := api.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !ReadJSON(w, r, &req) {
			return
		}
		timeout := time.Duration(req.TimeoutMS) * time.Millisecond
		var (
			batch string
			views []JobView
			err   error
		)
		switch {
		case len(req.Jobs) > 0 && req.Sweep != nil:
			WriteJSON(w, http.StatusBadRequest, errorBody{"use either jobs or sweep, not both"})
			return
		case len(req.Jobs) > 0:
			batch = api.NewBatch()
			for _, jr := range req.Jobs {
				jt := timeout
				if jr.TimeoutMS > 0 {
					jt = time.Duration(jr.TimeoutMS) * time.Millisecond
				}
				var v JobView
				v, err = api.Submit(jr.Experiment, jr.Params, batch, jt)
				if err != nil {
					break
				}
				views = append(views, v)
			}
		default:
			var archs []string
			var seeds []int64
			if req.Sweep != nil {
				archs, seeds = req.Sweep.Archs, req.Sweep.Seeds
			}
			batch, views, err = api.SubmitSweep(req.Experiment, req.Params, archs, seeds, timeout)
		}
		if err != nil && len(views) == 0 {
			writeError(w, err)
			return
		}
		resp := map[string]any{"batch": batch, "total": len(views), "jobs": views}
		if err != nil {
			// Partial admission (e.g. the queue filled mid-batch): report
			// what was accepted plus the error that stopped expansion.
			resp["error"] = err.Error()
		}
		WriteJSON(w, http.StatusAccepted, resp)
	})

	mux.HandleFunc("GET /v1/batch/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		jobs := api.List(ListFilter{Batch: r.PathValue("id")})
		if len(jobs) == 0 {
			writeError(w, ErrNotFound)
			return
		}
		serveReport(w, BuildReport(jobs))
	})

	mux.HandleFunc("GET /v1/batch/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		jobs := api.List(ListFilter{Batch: id})
		if len(jobs) == 0 {
			writeError(w, ErrNotFound)
			return
		}
		byState := make(map[State]int, 5)
		for _, st := range States() {
			byState[st] = 0
		}
		for _, j := range jobs {
			byState[j.State]++
		}
		WriteJSON(w, http.StatusOK, BatchView{Batch: id, Total: len(jobs), ByState: byState, Jobs: jobs})
	})
}

// serveReport writes a canonical batch report: its exact Render bytes when
// complete, 409 with the state rollup while jobs are still pending or
// running. Standalone and cluster reports both come through here, which is
// what pins their responses to identical bytes.
func serveReport(w http.ResponseWriter, rep Report) {
	if !rep.Complete() {
		WriteJSON(w, http.StatusConflict, map[string]any{
			"error":    "batch not finished",
			"by_state": rep.ByState,
		})
		return
	}
	raw, err := rep.Render()
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// ReadJSON decodes the request body into dst, rejecting unknown fields; on
// failure it answers 400 and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// jsonBufPool recycles the encode buffers of WriteJSON. Every response on
// the API passes through here — job polling clients hit /v1/jobs at a few
// hertz per job — so encoding into a pooled buffer instead of a fresh
// per-response one keeps handler allocations flat. Buffers that ballooned
// on a large batch report are dropped rather than pinned in the pool.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledJSONBuf is the largest buffer worth keeping; bigger ones are
// one-off report payloads.
const maxPooledJSONBuf = 1 << 20

// WriteJSON answers with body as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(buf.Bytes())
	}
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(buf)
	}
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrBreakerOpen):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrFinished):
		status = http.StatusConflict
	default:
		status = http.StatusBadRequest // validation errors from Resolve/ArchConfig
	}
	WriteJSON(w, status, errorBody{err.Error()})
}
