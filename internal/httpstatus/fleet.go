package httpstatus

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/flightrec"
	"repro/internal/obs"
)

// TenantSource exposes the coordinator's bounded per-tenant
// time-series plane for /fleet/metrics. cluster.Coordinator implements
// it.
type TenantSource interface {
	TenantMetricsSnapshot() cluster.TenantMetrics
}

// defaultExplainTail bounds /fleet/explain responses when the client
// does not pass ?n=.
const defaultExplainTail = 64

// mountFleet adds the fleet surfaces selected by opts: the
// flight-recorder query plane (Recorder) and the placement engine's
// status (Placement). Nil fields mount nothing.
func mountFleet(mux *http.ServeMux, opts Options) {
	if opts.Placement != nil {
		src := opts.Placement
		mux.HandleFunc("/fleet/placement", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(src.State())
		})
	}
	if opts.Tenants != nil {
		ts := opts.Tenants
		// /fleet/metrics serves the per-tenant time-series plane as JSON;
		// each tenant's latest sample is also a dcat_tenant_* gauge on
		// /cluster/metrics.
		mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(ts.TenantMetricsSnapshot())
		})
	}
	store := opts.Recorder
	if store == nil {
		return
	}
	// /fleet/trace reconstructs one trace id's cross-process decision
	// tree — pressure evidence, directive, execution, settlement — from
	// the flight recorder. ?id= takes the decimal trace id events carry
	// (hex accepted too).
	mux.HandleFunc("/fleet/trace", func(w http.ResponseWriter, r *http.Request) {
		s := r.URL.Query().Get("id")
		if s == "" {
			http.Error(w, "missing ?id=<trace id>", http.StatusBadRequest)
			return
		}
		id, ok := parseTraceID(s)
		if !ok {
			http.Error(w, fmt.Sprintf("bad trace id %q", s), http.StatusBadRequest)
			return
		}
		recs, err := store.Select(flightrec.Query{TraceID: id})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		tree := flightrec.BuildTraceTree(id, recs)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tree)
	})
	// /fleet/events streams matching records as JSON Lines, oldest
	// first. Every filter is optional; ?after= takes a record id and is
	// the tail cursor dcat-trace uses.
	mux.HandleFunc("/fleet/events", func(w http.ResponseWriter, r *http.Request) {
		q, ok := fleetQuery(w, r)
		if !ok {
			return
		}
		writeRecords(w, store, q)
	})
	// /fleet/explain is the fleet-wide twin of /debug/explain: the
	// recent decision history for one workload/VM, with agent
	// attribution, answering "why did this VM lose a way" after the
	// fact.
	mux.HandleFunc("/fleet/explain", func(w http.ResponseWriter, r *http.Request) {
		vm := r.URL.Query().Get("vm")
		if vm == "" {
			http.Error(w, "missing ?vm=<workload>", http.StatusBadRequest)
			return
		}
		n, ok := tailParam(w, r, defaultExplainTail)
		if !ok {
			return
		}
		q := flightrec.Query{
			Workload: vm,
			Agent:    r.URL.Query().Get("agent"),
			LastN:    n,
		}
		if !timeParams(w, r, &q) {
			return
		}
		writeRecords(w, store, q)
	})
}

// fleetQuery parses /fleet/events parameters; false means an error
// response has been written.
func fleetQuery(w http.ResponseWriter, r *http.Request) (flightrec.Query, bool) {
	vals := r.URL.Query()
	q := flightrec.Query{
		Agent:    vals.Get("agent"),
		Workload: vals.Get("vm"),
	}
	if s := vals.Get("kind"); s != "" {
		k, ok := obs.ParseKind(s)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown kind %q", s), http.StatusBadRequest)
			return q, false
		}
		q.Kind = &k
	}
	if s := vals.Get("socket"); s != "" {
		sock, err := strconv.Atoi(s)
		if err != nil || sock < 0 {
			http.Error(w, fmt.Sprintf("bad socket %q: want a non-negative integer", s), http.StatusBadRequest)
			return q, false
		}
		q.Socket = &sock
	}
	if s := vals.Get("trace"); s != "" {
		id, ok := parseTraceID(s)
		if !ok {
			http.Error(w, fmt.Sprintf("bad trace %q", s), http.StatusBadRequest)
			return q, false
		}
		q.TraceID = id
	}
	if s := vals.Get("after"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad after %q: want a record id", s), http.StatusBadRequest)
			return q, false
		}
		q.AfterID = id
	}
	if !timeParams(w, r, &q) {
		return q, false
	}
	n, ok := tailParam(w, r, 0)
	if !ok {
		return q, false
	}
	q.LastN = n
	return q, true
}

// timeParams parses the shared ?since=/&until= Unix-timestamp bounds
// into q; false means an error response has been written.
func timeParams(w http.ResponseWriter, r *http.Request, q *flightrec.Query) bool {
	vals := r.URL.Query()
	for name, dst := range map[string]*int64{"since": &q.SinceUnix, "until": &q.UntilUnix} {
		if s := vals.Get(name); s != "" {
			t, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad %s %q: want a Unix timestamp", name, s), http.StatusBadRequest)
				return false
			}
			*dst = t
		}
	}
	return true
}

// parseTraceID accepts a trace id as decimal (how events render it in
// JSON) or hex (how the X-Dcat-Trace header spells it).
func parseTraceID(s string) (uint64, bool) {
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		id, err = strconv.ParseUint(s, 16, 64)
	}
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

// writeRecords runs one query and writes the matching record lines as
// NDJSON, exactly as the store holds them: nothing is decoded.
func writeRecords(w http.ResponseWriter, store *flightrec.Store, q flightrec.Query) {
	n, lines, err := store.SelectJSONL(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Dcat-Record-Count", strconv.Itoa(n))
	_, _ = w.Write(lines) // a failed write is a client gone; nobody to tell
}
