package httpstatus

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// The exposition goldens in testdata/ were rendered by the hand-written
// writers that /metrics and /cluster/metrics used before every family
// moved onto telemetry.Registry. TestExpositionGolden holds the registry
// rendering to them, allowing only the deliberate differences it names.
// Regenerate (only when the exposition is meant to change) with:
//
//	DCAT_UPDATE_GOLDEN=1 go test ./internal/httpstatus -run TestExpositionGolden

// scrape serves one GET in-process and returns the body.
func scrape(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// goldenHandlerExposition is /metrics of a 3-workload controller with
// occupancy and a tick count past 10⁶.
func goldenHandlerExposition(t *testing.T) string {
	src := &fakeSource{
		ticks: 1234567,
		snap: []core.Status{
			{Name: "web", State: core.StateReceiver, Ways: 7, Baseline: 3, IPC: 0.04, NormIPC: 2.5},
			{Name: "batch", State: core.StateStreaming, Ways: 1, Baseline: 3, IPC: 0.07, NormIPC: 1},
			{Name: "cache", State: core.StateKeeper, Ways: 4, Baseline: 4, IPC: 1.5, NormIPC: 0.875},
		},
		occ:   map[string]uint64{"web": 16 << 20, "batch": 2 << 20, "cache": 1000000},
		hasOc: true,
	}
	return scrape(t, Handler(src), "/metrics")
}

// post sends one protocol message to the coordinator in-process and
// returns the response body.
func post(t *testing.T, proto http.Handler, path string, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	proto.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// enroll registers an agent with the given workloads (baseline 2 ways
// each) and returns its id.
func enroll(t *testing.T, proto http.Handler, agent string, workloads ...string) string {
	t.Helper()
	req := &cluster.EnrollRequest{Version: cluster.ProtocolVersion, Agent: agent, TotalWays: 20}
	for _, w := range workloads {
		req.Workloads = append(req.Workloads, cluster.WorkloadSpec{Name: w, BaselineWays: 2})
	}
	var resp cluster.EnrollResponse
	if err := json.Unmarshal(post(t, proto, cluster.PathEnroll, req), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.AgentID
}

// scriptedCoordinator plays a scripted 2-agent sequence under an
// injected clock and returns the coordinator and the registry its
// metrics are on. host-a reports last at t=1s and host-b at t=4s; the
// clock ends at t=8s, past host-a's 5s expiry. host-b's web moves
// Receiver -> Keeper, so no alive workload is Receiver or Streaming at
// the end.
func scriptedCoordinator(t *testing.T) (*cluster.Coordinator, *telemetry.Registry) {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	now := start
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatExpiry: 5 * time.Second,
		Now:             func() time.Time { return now },
	})
	reg := telemetry.NewRegistry()
	coord.RegisterMetrics(reg)
	proto := coord.Handler()
	ids := map[string]string{}
	for _, name := range []string{"host-a", "host-b"} {
		ids[name] = enroll(t, proto, name, "web", "batch")
	}
	report := func(agent string, tick int, webCat string, webWays int, ev *cluster.EventSummary) {
		post(t, proto, cluster.PathReport, &cluster.ReportRequest{
			Version: cluster.ProtocolVersion, AgentID: ids[agent], Tick: tick,
			Workloads: []cluster.WorkloadReport{
				{Name: "web", Category: webCat, Ways: webWays, BaselineWays: 3, IPC: 1.25, NormIPC: 1.5,
					MissRate: 0.25, MAPI: 0.5, Policy: "reactive"},
				{Name: "batch", Category: "Unknown", Ways: 2, BaselineWays: 2, IPC: 0.5, NormIPC: 1,
					MissRate: 0.5, MAPI: 0.25, Socket: 1, Policy: "reactive"},
			},
			Events: ev,
		})
	}
	report("host-a", 1, "Unknown", 3, nil)
	report("host-b", 1, "Receiver", 5, nil)
	now = start.Add(time.Second)
	report("host-a", 2, "Streaming", 1, &cluster.EventSummary{
		Transitions: map[string]uint64{"Unknown->Streaming": 1},
	})
	report("host-b", 2, "Keeper", 5, &cluster.EventSummary{
		Transitions:  map[string]uint64{"Unknown->Receiver": 1, "Receiver->Keeper": 1},
		PhaseChanges: 1,
	})
	now = start.Add(4 * time.Second)
	report("host-b", 3, "Keeper", 5, nil)
	now = start.Add(8 * time.Second)
	return coord, reg
}

// goldenCoordinator is /cluster/metrics at the end of the scripted
// sequence.
func goldenCoordinator(t *testing.T) string {
	coord, reg := scriptedCoordinator(t)
	return scrape(t, ClusterHandlerOpts(coord, Options{Metrics: reg}), "/cluster/metrics")
}

// family is one parsed exposition family.
type family struct {
	help, typ string
	samples   []string
}

// parseExposition splits Prometheus text into families in order.
func parseExposition(t *testing.T, text string) (order []string, fams map[string]*family) {
	t.Helper()
	fams = map[string]*family{}
	get := func(name string) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			get(name).help = help
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			get(name).typ = typ
		default:
			name, _, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			if len(order) == 0 || order[len(order)-1] != name {
				t.Fatalf("sample %q outside its family's block", line)
			}
			get(name).samples = append(get(name).samples, line)
		}
	}
	return order, fams
}

// checkGolden compares got with testdata/name, or rewrites the golden
// under DCAT_UPDATE_GOLDEN. It reports whether to go on comparing.
func checkGolden(t *testing.T, name, got string) (want string, compare bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("DCAT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return "", false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), true
}

// isFleetGauge reports whether a family is one of the coordinator's
// dcat_fleet_* gauges, which now read the fleet at scrape time.
func isFleetGauge(name string) bool {
	return name == "dcat_fleet_agents_alive" || name == "dcat_fleet_ways_allocated" ||
		strings.HasPrefix(name, "dcat_fleet_category_")
}

func TestExpositionGolden(t *testing.T) {
	t.Run("metrics", func(t *testing.T) {
		got := goldenHandlerExposition(t)
		want, compare := checkGolden(t, "metrics.golden", got)
		if !compare {
			return
		}
		// The one deliberate difference: # HELP lines.
		var kept []string
		for _, line := range strings.SplitAfter(got, "\n") {
			if !strings.HasPrefix(line, "# HELP ") {
				kept = append(kept, line)
			}
		}
		if stripped := strings.Join(kept, ""); stripped != want {
			t.Fatalf("/metrics without # HELP lines:\n%s\nwant (golden):\n%s", stripped, want)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		got := goldenCoordinator(t)
		want, compare := checkGolden(t, "cluster_metrics.golden", got)
		if !compare {
			return
		}
		wantOrder, wantFams := parseExposition(t, want)
		gotOrder, gotFams := parseExposition(t, got)
		// Deliberate differences: the dcat_fleet_* gauges carry
		// scrape-time values and all six categories; dcat_tenant_* is new
		// here; families gain # HELP lines; the moved families change
		// order. Everything else matches the golden exactly.
		var wantKept, gotKept []string
		for _, name := range wantOrder {
			w := wantFams[name]
			g, ok := gotFams[name]
			if !ok {
				t.Errorf("family %s missing", name)
				continue
			}
			if g.typ != w.typ || (w.help != "" && g.help != w.help) {
				t.Errorf("%s: header help=%q type=%q, golden help=%q type=%q", name, g.help, g.typ, w.help, w.typ)
			}
			if g.help == "" {
				t.Errorf("%s: no # HELP line", name)
			}
			if isFleetGauge(name) {
				continue
			}
			wantKept = append(wantKept, name)
			if strings.Join(g.samples, "\n") != strings.Join(w.samples, "\n") {
				t.Errorf("%s samples:\n%s\ngolden:\n%s", name, strings.Join(g.samples, "\n"), strings.Join(w.samples, "\n"))
			}
		}
		for _, name := range gotOrder {
			if _, ok := wantFams[name]; !ok && !isFleetGauge(name) && !strings.HasPrefix(name, "dcat_tenant_") {
				t.Errorf("unexpected new family %s", name)
			}
			if _, ok := wantFams[name]; ok && !isFleetGauge(name) {
				gotKept = append(gotKept, name)
			}
		}
		if strings.Join(gotKept, ",") != strings.Join(wantKept, ",") {
			t.Errorf("family order moved:\n%v\ngolden:\n%v", gotKept, wantKept)
		}
		// At the scrape only host-b is alive: web Keeper (5 ways), batch
		// Unknown (2 ways).
		for name, v := range map[string]string{
			"dcat_fleet_agents_alive":       "1",
			"dcat_fleet_ways_allocated":     "7",
			"dcat_fleet_category_Keeper":    "1",
			"dcat_fleet_category_Donor":     "0",
			"dcat_fleet_category_Receiver":  "0",
			"dcat_fleet_category_Streaming": "0",
			"dcat_fleet_category_Unknown":   "1",
			"dcat_fleet_category_Reclaim":   "0",
		} {
			if f := gotFams[name]; f == nil || strings.Join(f.samples, "\n") != name+" "+v {
				t.Errorf("%s: got %v, want %s %s", name, f, name, v)
			}
		}
		for _, name := range []string{"dcat_tenant_ipc", "dcat_tenant_mpki", "dcat_tenant_ways"} {
			if f := gotFams[name]; f == nil || len(f.samples) != 4 {
				t.Errorf("%s: want one sample per tenant (4), got %v", name, f)
			}
		}
		if _, ok := gotFams["dcat_tenant_overflow_total"]; ok {
			t.Error("dcat_tenant_overflow_total exposed with no overflow")
		}
	})
}
