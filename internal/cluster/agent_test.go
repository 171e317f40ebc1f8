package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeLocal is a scriptable per-host control loop.
type fakeLocal struct {
	mu      sync.Mutex
	ticks   int
	snap    []core.Status
	caps    map[string]int
	tickErr error
}

func newFakeLocal(snap ...core.Status) *fakeLocal {
	return &fakeLocal{snap: snap, caps: make(map[string]int)}
}

func (f *fakeLocal) Tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tickErr != nil {
		return f.tickErr
	}
	f.ticks++
	return nil
}

func (f *fakeLocal) Ticks() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ticks
}

func (f *fakeLocal) Snapshot() []core.Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]core.Status(nil), f.snap...)
}

func (f *fakeLocal) TotalWays() int { return 20 }

func (f *fakeLocal) SetWayCap(name string, ways int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ways == 0 {
		delete(f.caps, name)
	} else {
		f.caps[name] = ways
	}
	return true
}

func (f *fakeLocal) capOn(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.caps[name]
}

func (f *fakeLocal) setCategory(name string, s core.State) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.snap {
		if f.snap[i].Name == name {
			f.snap[i].State = s
		}
	}
}

func newTestAgent(t *testing.T, name, url string, local Local) *Agent {
	t.Helper()
	cli, err := NewClient(ClientConfig{
		BaseURL: url, MaxRetries: 1, Backoff: time.Millisecond,
		sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{Name: name, Client: cli}, local)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAgentEnrollsAndReports(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{})
	local := newFakeLocal(
		core.Status{Name: "web", State: core.StateReceiver, Ways: 5, Baseline: 3, IPC: 1.2, NormIPC: 1.3, MissRate: 0.02},
	)
	a := newTestAgent(t, "host-a", r.srv.URL, local)
	if err := a.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !a.Enrolled() || a.ID() == "" {
		t.Fatal("agent did not enroll on first tick")
	}
	if err := a.LastErr(); err != nil {
		t.Fatalf("healthy exchange left an error: %v", err)
	}
	st := r.coord.ClusterState()
	if st.AgentsAlive != 1 || len(st.Agents) != 1 {
		t.Fatalf("coordinator state: %+v", st)
	}
	row := st.Agents[0]
	if row.Name != "host-a" || row.TotalWays != 20 {
		t.Errorf("agent row: %+v", row)
	}
	if len(row.Workloads) != 1 || row.Workloads[0].Category != "Receiver" || row.Workloads[0].Ways != 5 {
		t.Errorf("reported workloads: %+v", row.Workloads)
	}
}

// TestAgentReportsEveryTickAgainstOldCoordinator: an enroll response
// from a coordinator that still pushes a report cadence and a liveness
// window decodes cleanly, and the agent ignores both — it reports on
// every tick and sends nothing else.
func TestAgentReportsEveryTickAgainstOldCoordinator(t *testing.T) {
	var mu sync.Mutex
	var reported []int
	var other []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathEnroll:
			fmt.Fprint(w, `{"version":1,"agent_id":"agent-1","report_every_ticks":5,"heartbeat_expiry_millis":10000}`)
		case PathReport:
			var req ReportRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			reported = append(reported, req.Tick)
			mu.Unlock()
			_ = json.NewEncoder(w).Encode(ReportResponse{Version: ProtocolVersion})
		default:
			mu.Lock()
			other = append(other, r.URL.Path)
			mu.Unlock()
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)

	a := newTestAgent(t, "host-a", srv.URL, newFakeLocal(core.Status{Name: "web", Ways: 3, Baseline: 3}))
	for i := 0; i < 6; i++ {
		if err := a.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if a.ID() != "agent-1" || a.LastErr() != nil {
		t.Fatalf("enrollment: id %q, last error %v", a.ID(), a.LastErr())
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{1, 2, 3, 4, 5, 6}; fmt.Sprint(reported) != fmt.Sprint(want) {
		t.Errorf("reported ticks %v, want %v", reported, want)
	}
	if len(other) != 0 {
		t.Errorf("agent sent requests besides enroll and report: %v", other)
	}
}

func TestAgentAppliesAndClearsHints(t *testing.T) {
	// Quorum 1 lets a single agent's own Streaming classification come
	// back as a cap, which exercises the full hint round trip.
	r := newCoordRig(t, CoordinatorConfig{StreamingQuorum: 1})
	local := newFakeLocal(
		core.Status{Name: "batch", State: core.StateStreaming, Ways: 1, Baseline: 2, MissRate: 0.9},
	)
	a := newTestAgent(t, "host-a", r.srv.URL, local)
	ctx := context.Background()
	if err := a.Tick(ctx); err != nil { // enrolls
		t.Fatal(err)
	}
	if err := a.Tick(ctx); err != nil { // reports, receives the cap
		t.Fatal(err)
	}
	if got := local.capOn("batch"); got != 2 {
		t.Fatalf("hint not applied: cap %d, want 2", got)
	}
	// The workload leaves Streaming: the next report's hints clear it.
	local.setCategory("batch", core.StateKeeper)
	if err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := local.capOn("batch"); got != 0 {
		t.Fatalf("stale cap not cleared: %d", got)
	}
}

func TestAgentSurvivesCoordinatorOutage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	url := srv.URL
	srv.Close() // coordinator is down from the start
	local := newFakeLocal(core.Status{Name: "web", Ways: 3, Baseline: 3})
	a := newTestAgent(t, "host-a", url, local)
	for i := 0; i < 5; i++ {
		if err := a.Tick(context.Background()); err != nil {
			t.Fatalf("tick %d: coordinator outage leaked into the local loop: %v", i, err)
		}
	}
	if got := local.Ticks(); got != 5 {
		t.Errorf("local loop ran %d ticks, want 5", got)
	}
	if a.Enrolled() {
		t.Error("agent claims enrollment with a dead coordinator")
	}
	if a.LastErr() == nil {
		t.Error("outage not recorded in LastErr")
	}
}

func TestAgentReenrollsAfterCoordinatorRestart(t *testing.T) {
	// A handler that can be swapped mid-test models a coordinator
	// restart at the same address with an empty registry.
	var mu sync.Mutex
	coord := NewCoordinator(CoordinatorConfig{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := coord.Handler()
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	local := newFakeLocal(core.Status{Name: "web", Ways: 3, Baseline: 3})
	a := newTestAgent(t, "host-a", srv.URL, local)
	ctx := context.Background()
	if err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if a.ID() == "" {
		t.Fatal("agent did not enroll")
	}

	mu.Lock()
	coord = NewCoordinator(CoordinatorConfig{}) // restart: registry gone
	mu.Unlock()

	// Next report hits the fresh coordinator, gets unknown-agent, and
	// drops the enrollment; the tick after re-enrolls.
	if err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Enrolled() {
		t.Fatal("agent kept a registration the coordinator lost")
	}
	if err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if !a.Enrolled() {
		t.Fatal("agent did not re-enroll after the restart")
	}
	mu.Lock()
	st := coord.ClusterState()
	mu.Unlock()
	if st.AgentsTotal != 1 {
		t.Errorf("fresh coordinator sees %d agents, want 1", st.AgentsTotal)
	}
}

func TestAgentLocalErrorPropagates(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{})
	local := newFakeLocal(core.Status{Name: "web", Ways: 3, Baseline: 3})
	local.tickErr = fmt.Errorf("backend rejected allocation")
	a := newTestAgent(t, "host-a", r.srv.URL, local)
	if err := a.Tick(context.Background()); err == nil {
		t.Fatal("local controller error swallowed")
	}
}

func TestAgentStandalone(t *testing.T) {
	local := newFakeLocal(core.Status{Name: "web", Ways: 3, Baseline: 3})
	a, err := NewAgent(AgentConfig{Name: "host-a"}, local)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if local.Ticks() != 3 || a.Enrolled() {
		t.Errorf("standalone agent: ticks %d, enrolled %v", local.Ticks(), a.Enrolled())
	}
}
