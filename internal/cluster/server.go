package cluster

import (
	"net/http"

	"pathfinder/internal/service"
)

// Handler returns the coordinator's HTTP API: the standalone service's
// client job routes (service.RegisterJobRoutes, so the paths and JSON shapes
// are the same and sweep scripts work unchanged against either), plus the
// worker-facing control plane under /v1/cluster/ and the /cluster/status
// rollup.
//
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition
//	GET  /cluster/status           worker directory + job rollup
//	POST /v1/cluster/heartbeat     worker liveness/progress (worker-facing)
//	POST /v1/cluster/results       terminal results (worker-facing)
//	GET  /v1/cluster/snapshots     warm-key holder lookup, ranked (worker-facing)
//	POST /v1/cluster/report-peer   worker-observed peer failure (worker-facing)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		service.WriteJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"role":    "coordinator",
			"workers": len(st.Workers),
			"pending": st.Pending,
		})
	})

	mux.Handle("GET /metrics", c.metrics)
	service.RegisterJobRoutes(mux, c)

	mux.HandleFunc("GET /cluster/status", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Status())
	})

	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if !service.ReadJSON(w, r, &hb) {
			return
		}
		if hb.Worker == "" || hb.Addr == "" {
			service.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "heartbeat needs worker and addr"})
			return
		}
		service.WriteJSON(w, http.StatusOK, c.handleHeartbeat(hb))
	})

	mux.HandleFunc("POST /v1/cluster/results", func(w http.ResponseWriter, r *http.Request) {
		var p ResultsPush
		if !service.ReadJSON(w, r, &p) {
			return
		}
		service.WriteJSON(w, http.StatusOK, c.handleResults(p))
	})

	mux.HandleFunc("GET /v1/cluster/snapshots", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			service.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "missing key parameter"})
			return
		}
		holders := c.locateSnapshots(key, r.URL.Query().Get("from"))
		if len(holders) == 0 {
			service.WriteJSON(w, http.StatusNotFound, map[string]any{"error": "no live holder for key"})
			return
		}
		service.WriteJSON(w, http.StatusOK, SnapshotLocations{Holders: holders})
	})

	mux.HandleFunc("POST /v1/cluster/report-peer", func(w http.ResponseWriter, r *http.Request) {
		var pr PeerReport
		if !service.ReadJSON(w, r, &pr) {
			return
		}
		if pr.Peer == "" || pr.Class == "" {
			service.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "peer report needs peer and class"})
			return
		}
		c.handlePeerReport(pr)
		service.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})

	return mux
}
