package hub

import (
	"encoding/json"
	"net/http"
)

// RegisterAdmin mounts the hub's observability endpoints on mux:
//
//	GET /metrics   Prometheus text exposition of every hub counter,
//	               gauge and derived quantile (internal/metrics).
//	GET /sessions  JSON array of per-session SessionInfo snapshots,
//	               sorted by session ID.
//
// Both are cheap enough to scrape continuously: /metrics reads each
// metric with one atomic load; /sessions takes the hub's mutex and so
// waits behind the loop's current pass.
//
// cmd/ekho-server mounts these on the -pprof mux; embedders can mount
// them anywhere (the handlers hold only the *Hub).
func (h *Hub) RegisterAdmin(mux *http.ServeMux) {
	mux.Handle("/metrics", h.stats.reg.Handler())
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		infos := h.SessionInfos()
		if infos == nil {
			infos = []SessionInfo{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(infos)
	})
}
