package httpstatus

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// ClusterSource is the coordinator-side surface the /cluster endpoints
// read. cluster.Coordinator implements it (its methods are internally
// locked, so no Locked adapter is needed).
type ClusterSource interface {
	ClusterState() cluster.State
}

// ClusterHandler serves cluster-wide state for operators:
//
//	GET /cluster             — JSON: every agent, liveness, per-workload
//	                           category / ways / IPC / miss rate
//	GET /cluster/healthz     — liveness (200 once any agent is alive)
func ClusterHandler(src ClusterSource) http.Handler {
	return ClusterHandlerOpts(src, Options{})
}

// ClusterHandlerOpts is ClusterHandler plus the optional surfaces in
// Options: /cluster/metrics serving the Metrics registry (the
// coordinator's families land there through its RegisterMetrics), and
// — for the coordinator's own decision trace (enrollments, hints) — the
// /debug/journal, /debug/explain, and pprof endpoints.
func ClusterHandlerOpts(src ClusterSource, opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		type body struct {
			cluster.State
			Time time.Time `json:"time"`
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(body{State: src.ClusterState(), Time: time.Now().UTC()}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/cluster/healthz", func(w http.ResponseWriter, r *http.Request) {
		if src.ClusterState().AgentsAlive == 0 {
			http.Error(w, "no live agents", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if opts.Metrics != nil {
		mux.Handle("/cluster/metrics", metricsHandler(opts.Metrics))
	}
	mountDebug(mux, opts)
	mountFleet(mux, opts)
	return mux
}
