package httpstatus

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// TraceSink is the slice of obs.FileSink the debug surface reports on:
// the latched write error and the count of events dropped because of
// it. obs.FileSink implements it.
type TraceSink interface {
	Err() error
	Dropped() uint64
}

// Options selects the optional observability surfaces a status server
// exposes on top of the always-on /status, /metrics, and /healthz:
//
//	GET /debug/journal            — decision-trace tail as JSON Lines
//	                                (?n= bounds it; default 256, 0 = all)
//	GET /debug/explain?w=<name>   — one workload's recent decision
//	                                history, JSON Lines, oldest first
//	GET /debug/pprof/...          — the standard Go profiler endpoints
//
// The zero value turns all of them off, which is what plain Handler
// serves.
type Options struct {
	// Journal enables /debug/journal and /debug/explain. The journal
	// is internally locked, so no Locked adapter is involved — scrapes
	// never contend with anything but the emit path.
	Journal *obs.Journal
	// Metrics is the registry /metrics serves; HandlerOpts registers the
	// controller's built-in gauges on it (on a private registry when
	// nil), so one registry backs one handler. ClusterHandlerOpts serves
	// it at /cluster/metrics, and mounts no metrics endpoint when it is
	// nil.
	Metrics *telemetry.Registry
	// Pprof mounts net/http/pprof handlers under /debug/pprof/. Off by
	// default: profiling endpoints can stall the process and belong
	// behind an explicit flag.
	Pprof bool
	// Trace, when set, surfaces the trace-file sink's health on
	// /debug/journal: a latched write error becomes the
	// X-Dcat-Trace-Error header and the post-error drop count the
	// X-Dcat-Trace-Dropped header, so a full disk is visible instead of
	// silently eating the trace.
	Trace TraceSink
	// Recorder, when set, mounts the fleet flight recorder's query
	// plane:
	//
	//	GET /fleet/events?agent=&vm=&kind=&socket=&trace=&after=&since=&until=&n=
	//	GET /fleet/explain?vm=<name>[&agent=][&n=]
	//	GET /fleet/trace?id=<trace id>
	//
	// Only the coordinator sets this.
	Recorder *flightrec.Store
	// Tenants, when set, mounts the fleet time-series plane:
	//
	//	GET /fleet/metrics
	//
	// Only the coordinator sets this (a *cluster.Coordinator satisfies
	// it).
	Tenants TenantSource
	// Placement, when set, mounts the fleet placement engine's status:
	//
	//	GET /fleet/placement — engine counters, inflight directives,
	//	                       and active cooldowns as JSON
	//
	// Only a coordinator running the rebalancer sets this (a
	// *placement.Engine satisfies it).
	Placement PlacementSource
}

// PlacementSource exposes the placement engine's externally visible
// state for the /fleet/placement endpoint.
type PlacementSource interface {
	State() placement.State
}

// defaultJournalTail bounds /debug/journal responses when the client
// does not pass ?n=.
const defaultJournalTail = 256

// mountDebug adds the /debug tree selected by opts to mux.
func mountDebug(mux *http.ServeMux, opts Options) {
	if opts.Journal != nil {
		j := opts.Journal
		mux.HandleFunc("/debug/journal", func(w http.ResponseWriter, r *http.Request) {
			n, ok := tailParam(w, r, defaultJournalTail)
			if !ok {
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Dcat-Journal-Dropped", strconv.FormatUint(j.Dropped(), 10))
			if opts.Trace != nil {
				if err := opts.Trace.Err(); err != nil {
					w.Header().Set("X-Dcat-Trace-Error", err.Error())
				}
				w.Header().Set("X-Dcat-Trace-Dropped", strconv.FormatUint(opts.Trace.Dropped(), 10))
			}
			_ = j.WriteJSONL(w, n)
		})
		mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, r *http.Request) {
			name := r.URL.Query().Get("w")
			if name == "" {
				http.Error(w, "missing ?w=<workload>", http.StatusBadRequest)
				return
			}
			n, ok := tailParam(w, r, 0)
			if !ok {
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = obs.WriteJSONL(w, j.Explain(name, n))
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// tailParam parses the ?n= event-count bound; false means an error
// response has been written.
func tailParam(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		http.Error(w, fmt.Sprintf("bad n %q: want a non-negative integer", q), http.StatusBadRequest)
		return 0, false
	}
	return n, true
}
