package httpstatus

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// get fetches a path and returns the response; the caller owns Body.
func get(t *testing.T, base, path string) *http.Response {
	t.Helper()
	res, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return res
}

func getStatus(t *testing.T, base, path string) int {
	t.Helper()
	res := get(t, base, path)
	defer res.Body.Close()
	_, _ = io.Copy(io.Discard, res.Body)
	return res.StatusCode
}

// TestDebugEndpointsLiveController runs a real simulation-backed
// controller and scrapes every surface — /status, /metrics with the
// registry appended, /debug/journal, /debug/explain, pprof — while the
// controller keeps ticking. Run under -race this proves the journal
// needs no external locking and the Locked contract covers the rest.
// Afterwards it checks the acceptance property: the history served by
// /debug/explain is the same contiguous state-transition chain the
// journal holds.
func TestDebugEndpointsLiveController(t *testing.T) {
	hc := host.DefaultConfig()
	hc.CyclesPerInterval = 4_000_000
	hc.Seed = 3
	h, err := host.New(hc)
	if err != nil {
		t.Fatal(err)
	}
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("web", 2, mlr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddVM("lazy", 2, workload.Idle{}); err != nil {
		t.Fatal(err)
	}
	ctl, err := h.Controllers(core.DefaultConfig(), map[string]int{"web": 3, "lazy": 3})
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewJournal(obs.DefaultJournalSize)
	reg := telemetry.NewRegistry()
	ctl.SetSink(journal)
	ctl.RegisterMetrics(reg)

	var mu sync.Mutex
	src := Locked{Src: ctl, Do: func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	}}
	srv := httptest.NewServer(HandlerOpts(src, Options{Journal: journal, Metrics: reg, Pprof: true}))
	defer srv.Close()

	const steps = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < steps; i++ {
			mu.Lock()
			h.RunInterval()
			err := ctl.Tick()
			mu.Unlock()
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Scrape every surface while the loop runs.
	for i := 0; i < 8; i++ {
		for _, p := range []string{"/status", "/metrics", "/debug/journal?n=32", "/debug/explain?w=web"} {
			if code := getStatus(t, srv.URL, p); code != http.StatusOK {
				t.Fatalf("GET %s during ticking: %d", p, code)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// /debug/explain serves the same contiguous transition history the
	// journal holds.
	res := get(t, srv.URL, "/debug/explain?w=web")
	served, err := obs.ReadJSONL(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var servedTrans []obs.Event
	for _, e := range served {
		if e.Kind == obs.KindStateTransition {
			servedTrans = append(servedTrans, e)
		}
	}
	if len(servedTrans) == 0 {
		t.Fatal("no transitions served for a cache-hungry workload")
	}
	for i := 1; i < len(servedTrans); i++ {
		if servedTrans[i].From != servedTrans[i-1].To {
			t.Fatalf("served history not contiguous at %d: %+v", i, servedTrans)
		}
	}
	var journalTrans []obs.Event
	for _, e := range journal.Explain("web", 0) {
		if e.Kind == obs.KindStateTransition {
			journalTrans = append(journalTrans, e)
		}
	}
	if len(journalTrans) != len(servedTrans) {
		t.Fatalf("served %d transitions, journal holds %d", len(servedTrans), len(journalTrans))
	}
	for i := range journalTrans {
		if servedTrans[i] != journalTrans[i] {
			t.Fatalf("served[%d] = %+v, journal %+v", i, servedTrans[i], journalTrans[i])
		}
	}

	// /debug/journal is parseable JSONL and reports the drop counter.
	res = get(t, srv.URL, "/debug/journal")
	if res.Header.Get("X-Dcat-Journal-Dropped") == "" {
		t.Error("journal response missing the dropped header")
	}
	all, err := obs.ReadJSONL(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("empty journal after 40 ticks")
	}

	// /metrics carries the registry: tick-latency histogram and
	// transition counters next to the built-in gauges.
	res = get(t, srv.URL, "/metrics")
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		"dcat_ways{workload=\"web\"",
		"# TYPE dcat_tick_seconds histogram",
		"dcat_tick_seconds_count 40",
		"# TYPE dcat_state_transitions_total counter",
		"dcat_pool_free_ways",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// pprof answers when enabled.
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if code := getStatus(t, srv.URL, p); code != http.StatusOK {
			t.Fatalf("GET %s: %d", p, code)
		}
	}

	// Parameter validation.
	if code := getStatus(t, srv.URL, "/debug/explain"); code != http.StatusBadRequest {
		t.Fatalf("explain without w: %d, want 400", code)
	}
	if code := getStatus(t, srv.URL, "/debug/journal?n=-3"); code != http.StatusBadRequest {
		t.Fatalf("journal with negative n: %d, want 400", code)
	}
	if code := getStatus(t, srv.URL, "/debug/journal?n=zzz"); code != http.StatusBadRequest {
		t.Fatalf("journal with junk n: %d, want 400", code)
	}
}

// TestDebugDisabledByDefault: plain Handler must not expose the debug
// tree.
func TestDebugDisabledByDefault(t *testing.T) {
	src := &mutableSource{occ: map[string]uint64{}}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	for _, p := range []string{"/debug/journal", "/debug/explain?w=x", "/debug/pprof/"} {
		if code := getStatus(t, srv.URL, p); code != http.StatusNotFound {
			t.Fatalf("GET %s on plain handler: %d, want 404", p, code)
		}
	}
}

// TestClusterMetricsTransitions: /cluster/metrics renders the fleet's
// forwarded transition counters, and ClusterHandlerOpts mounts the
// debug tree for the coordinator's own journal.
func TestClusterMetricsTransitions(t *testing.T) {
	coord, reg := scriptedCoordinator(t)
	journal := obs.NewJournal(16)
	journal.Emit(obs.Event{Kind: obs.KindAgentEnrolled, Workload: "host-a", Reason: "enrolled"})

	srv := httptest.NewServer(ClusterHandlerOpts(coord, Options{Journal: journal, Metrics: reg}))
	defer srv.Close()

	res := get(t, srv.URL, "/cluster/metrics")
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		`dcat_cluster_state_transitions_total{from="Unknown",to="Streaming"} 1`,
		`dcat_cluster_state_transitions_total{from="Receiver",to="Keeper"} 1`,
		`dcat_fleet_state_transitions_total{from="Unknown",to="Receiver"} 1`,
		"dcat_cluster_phase_changes_total 1",
		"dcat_fleet_phase_changes_total 1",
		"dcat_fleet_reports_total 5",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/cluster/metrics missing %q:\n%s", want, body)
		}
	}

	res = get(t, srv.URL, "/debug/journal")
	events, err := obs.ReadJSONL(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != obs.KindAgentEnrolled {
		t.Fatalf("coordinator journal served %+v", events)
	}
}
