// Package httpstatus serves a dCat controller's state over HTTP for
// operators and scrapers:
//
//	GET /status   — JSON: per-workload state, ways, IPC, occupancy
//	GET /metrics  — Prometheus text exposition of the same gauges
//	GET /healthz  — liveness (200 once the controller has ticked)
package httpstatus

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Source is the controller-side surface the server reads. It must be
// safe to call from the HTTP goroutine: the dCat daemon ticks on one
// goroutine, so callers wrap access with a lock (see Locked).
type Source interface {
	Snapshot() []core.Status
	Occupancy() (map[string]uint64, bool)
	Ticks() int
}

// Locked adapts a Source with a mutual-exclusion function, e.g. one
// that takes the daemon's loop lock around each read.
type Locked struct {
	Src Source
	// Do runs fn under the daemon's lock.
	Do func(fn func())
}

// Snapshot implements Source.
func (l Locked) Snapshot() []core.Status {
	var out []core.Status
	l.Do(func() { out = l.Src.Snapshot() })
	return out
}

// Occupancy implements Source.
func (l Locked) Occupancy() (map[string]uint64, bool) {
	var out map[string]uint64
	var ok bool
	l.Do(func() { out, ok = l.Src.Occupancy() })
	return out, ok
}

// Ticks implements Source.
func (l Locked) Ticks() int {
	var n int
	l.Do(func() { n = l.Src.Ticks() })
	return n
}

// statusEntry is the JSON shape of one workload.
type statusEntry struct {
	Name           string  `json:"name"`
	State          string  `json:"state"`
	Ways           int     `json:"ways"`
	BaselineWays   int     `json:"baseline_ways"`
	IPC            float64 `json:"ipc"`
	NormalizedIPC  float64 `json:"normalized_ipc"`
	OccupancyBytes uint64  `json:"occupancy_bytes,omitempty"`
}

type statusBody struct {
	Ticks     int           `json:"ticks"`
	Time      time.Time     `json:"time"`
	Workloads []statusEntry `json:"workloads"`
}

// Handler returns the HTTP handler tree with no optional surfaces.
func Handler(src Source) http.Handler { return HandlerOpts(src, Options{}) }

// HandlerOpts returns the HTTP handler tree plus whatever Options
// selects (decision-trace journal, metrics registry, pprof).
func HandlerOpts(src Source, opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if src.Ticks() == 0 {
			http.Error(w, "no controller ticks yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		body := statusBody{Ticks: src.Ticks(), Time: time.Now().UTC()}
		occ, _ := src.Occupancy()
		for _, st := range src.Snapshot() {
			body.Workloads = append(body.Workloads, statusEntry{
				Name:           st.Name,
				State:          st.State.String(),
				Ways:           st.Ways,
				BaselineWays:   st.Baseline,
				IPC:            st.IPC,
				NormalizedIPC:  st.NormIPC,
				OccupancyBytes: occ[st.Name],
			})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	registerSourceMetrics(reg, src)
	mux.Handle("/metrics", metricsHandler(reg))
	mountDebug(mux, opts)
	mountFleet(mux, opts)
	return mux
}

// registerSourceMetrics registers the controller's built-in families on
// reg, read from src at each scrape (through Locked, under the daemon's
// lock), one sample per workload in name order.
func registerSourceMetrics(reg *telemetry.Registry, src Source) {
	type emitFunc = func(float64, ...string)
	byName := func() []core.Status {
		snap := src.Snapshot()
		sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
		return snap
	}
	reg.Func("dcat_ticks_total", "Controller ticks since start.", "counter", nil, func(emit emitFunc) { emit(float64(src.Ticks())) })
	reg.Func("dcat_ways", "LLC ways per workload, labeled with its category.", "gauge", []string{"workload", "state"},
		func(emit emitFunc) {
			for _, st := range byName() {
				emit(float64(st.Ways), st.Name, st.State.String())
			}
		})
	reg.Func("dcat_normalized_ipc", "IPC over the phase's baseline IPC, per workload.", "gauge", []string{"workload"},
		func(emit emitFunc) {
			for _, st := range byName() {
				emit(st.NormIPC, st.Name)
			}
		})
	reg.Func("dcat_llc_occupancy_bytes", "LLC bytes each workload occupies (CMT hosts only).", "gauge", []string{"workload"},
		func(emit emitFunc) {
			if occ, ok := src.Occupancy(); ok {
				for _, st := range byName() {
					emit(float64(occ[st.Name]), st.Name)
				}
			}
		})
}

// metricsHandler serves reg in Prometheus text exposition format.
func metricsHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w) // a failed write means the scraper went away
	})
}

// ServeOpts starts the server on addr in a new goroutine and returns
// the http.Server for shutdown.
func ServeOpts(addr string, src Source, opts Options) *http.Server {
	srv := &http.Server{Addr: addr, Handler: HandlerOpts(src, opts), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed on shutdown is the expected exit.
		_ = srv.ListenAndServe()
	}()
	return srv
}
