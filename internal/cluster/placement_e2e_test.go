// End-to-end exercise of the fleet placement plane: a coordinator with
// the placement engine and a flight recorder attached, and one agent
// wrapping a real two-socket core.Controller over scripted counters,
// wired through a real HTTP server. Socket 0's pool is
// deliberately exhausted by two cache-hungry tenants; the engine must
// notice the pressure from ordinary reports, issue a move directive,
// see the agent execute it live (core.Controller.Migrate), find
// the execution evidence in the recorder, and settle — and the moved
// tenant must re-grow to its full allocation on the destination.
package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/placement"
)

// hungryBehavior improves with every way up to knee and keeps missing
// beyond the fit threshold, so the controller grows it as a Receiver
// until the knee (or the pool) stops it. Two of these on one 20-way
// socket want 2*(knee+1) ways — set knee high enough and the pool
// exhausts while both are still hungry, which is exactly the pressure
// signature the placement engine scores.
func hungryBehavior(knee int) behavior {
	return func(ways int) perf.Sample {
		if ways > knee {
			ways = knee
		}
		const retIns = 1_000_000
		ipc := 0.2 + 0.1*float64(ways)
		return perf.Sample{
			L1Ref:   800_000,
			LLCRef:  600_000,
			LLCMiss: 60_000, // 10% — never "fitted", growth is IPC-driven
			RetIns:  retIns,
			Cycles:  uint64(retIns / ipc),
		}
	}
}

// e2eMover executes move directives against the multi-socket
// controller. The scripted counters have no real core topology, so a
// migration keeps the workload's counter bank and only re-homes its
// decision-loop state — the piece the placement story is about.
type e2eMover struct {
	multi *core.Controller
	cores map[string][]int
}

func (m *e2eMover) MigrateVM(name string, toSocket int) error {
	return m.multi.Migrate(name, toSocket, m.cores[name])
}

// socketOf reports which socket's loop manages a workload.
func socketOf(ctl *core.Controller, name string) (int, bool) {
	for _, st := range ctl.Snapshot() {
		if st.Name == name {
			return st.Socket, true
		}
	}
	return 0, false
}

// numaHost is one simulated two-socket machine: scripted counters, a
// controller per socket, and an agent with the mover and a recorder
// streamer attached.
type numaHost struct {
	t         *testing.T
	file      *perf.File
	multi     *core.Controller
	agent     *cluster.Agent
	order     []string
	coreOf    map[string]int
	behaviors map[string]behavior
}

func newNUMAHost(t *testing.T, name, coordURL string) *numaHost {
	t.Helper()
	coreOf := map[string]int{"web": 0, "bulk": 1, "idle": 2}
	file := perf.NewFile(len(coreOf))
	mgr0, err := cat.NewManager(&e2eBackend{ways: 20})
	if err != nil {
		t.Fatal(err)
	}
	mgr1, err := cat.NewManager(&e2eBackend{ways: 20})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := core.NewMulti(core.DefaultConfig(), file, []core.SocketSpec{
		{Socket: 0, Mgr: mgr0, Targets: []core.Target{
			{Name: "web", Cores: []int{coreOf["web"]}, BaselineWays: 3},
			{Name: "bulk", Cores: []int{coreOf["bulk"]}, BaselineWays: 3},
		}},
		{Socket: 1, Mgr: mgr1, Targets: []core.Target{
			{Name: "idle", Cores: []int{coreOf["idle"]}, BaselineWays: 3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := cluster.NewClient(cluster.ClientConfig{
		BaseURL: coordURL, Timeout: 2 * time.Second, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamer, err := cluster.NewStreamer(cluster.StreamerConfig{Client: cli, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	mover := &e2eMover{multi: multi, cores: map[string][]int{
		"web": {coreOf["web"]}, "bulk": {coreOf["bulk"]}, "idle": {coreOf["idle"]},
	}}
	agent, err := cluster.NewAgent(cluster.AgentConfig{
		Name: name, Client: cli, Streamer: streamer, Mover: mover,
	}, multi)
	if err != nil {
		t.Fatal(err)
	}
	// Both the controllers' decision events and the agent's own
	// PlacementExecuted go through the streamer, so the engine's
	// verification evidence travels the same path production uses.
	multi.SetSink(streamer)
	agent.SetSink(streamer)
	return &numaHost{
		t: t, file: file, multi: multi, agent: agent,
		order:  []string{"web", "bulk", "idle"},
		coreOf: coreOf,
		behaviors: map[string]behavior{
			"web":  hungryBehavior(10),
			"bulk": hungryBehavior(10),
			"idle": fittedBehavior(),
		},
	}
}

func (h *numaHost) tick(ctx context.Context) {
	h.t.Helper()
	for _, name := range h.order {
		s := h.behaviors[name](h.multi.Ways(name))
		bank := h.file.Core(h.coreOf[name])
		bank.Add(perf.L1Hits, s.L1Ref)
		bank.Add(perf.LLCReferences, s.LLCRef)
		bank.Add(perf.LLCMisses, s.LLCMiss)
		bank.Add(perf.RetiredInstructions, s.RetIns)
		bank.Add(perf.UnhaltedCycles, s.Cycles)
	}
	if err := h.agent.Tick(ctx); err != nil {
		h.t.Fatalf("agent tick: %v", err)
	}
}

func TestPlacementEndToEnd(t *testing.T) {
	dir := t.TempDir()
	saveRecorderArtifacts(t, dir)
	store, err := flightrec.Open(flightrec.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatExpiry: time.Hour})
	coord.SetRecorder(store)
	const cooldown = 12 // evaluations: long enough to cover the re-grow
	eng := placement.NewEngine(placement.Config{Recorder: store, Cooldown: cooldown})
	engineTrace := &captureSink{}
	eng.SetSink(engineTrace)
	coord.SetPlacement(eng)

	mux := http.NewServeMux()
	mux.Handle("/v1/", coord.Handler())
	mux.Handle("/fleet/", httpstatus.ClusterHandlerOpts(coord, httpstatus.Options{
		Recorder: store, Placement: eng, Tenants: coord,
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	saveFleetMetrics(t, func() *cluster.Coordinator { return coord })

	h := newNUMAHost(t, "host-a", srv.URL)
	ctx := context.Background()

	// Drive ticks until the engine has verified one move through the
	// recorder. Track each hungry tenant's allocation so the mover's
	// pre-move ways are known whichever of the two the engine picks.
	mover, wmove, settleTick := "", 0, -1
	prevWays := map[string]int{}
	for i := 1; i <= 40 && settleTick < 0; i++ {
		for _, n := range []string{"web", "bulk"} {
			prevWays[n] = h.multi.Ways(n)
		}
		h.tick(ctx)
		if mover == "" {
			for _, n := range []string{"web", "bulk"} {
				if s, ok := socketOf(h.multi, n); ok && s == 1 {
					mover, wmove = n, prevWays[n]
				}
			}
		}
		if eng.State().Settled >= 1 {
			settleTick = i
		}
	}
	if mover == "" {
		t.Fatalf("no workload was moved off the exhausted socket in 40 ticks: %+v", eng.State())
	}
	if settleTick < 0 {
		t.Fatalf("move of %q never settled: %+v", mover, eng.State())
	}
	if wmove <= 3 {
		t.Fatalf("mover %q held only %d ways before the move — socket 0 was never exhausted", mover, wmove)
	}

	// Let the cooldown run out. By then the mover must have re-grown to
	// at least its pre-move allocation on the roomy socket — no lasting
	// re-learning dip — and the engine, seeing no pressure anywhere, must
	// not have issued a second move.
	for i := 0; i < cooldown; i++ {
		h.tick(ctx)
	}
	st := eng.State()
	if st.Issued != 1 || st.Executed != 1 || st.Settled != 1 || st.RolledBack != 0 || st.Failed != 0 {
		t.Errorf("engine lifecycle counters: %+v, want exactly one issued/executed/settled move", st)
	}
	if len(st.Inflight) != 0 {
		t.Errorf("directives still inflight after settle: %+v", st.Inflight)
	}
	if s, ok := socketOf(h.multi, mover); !ok || s != 1 {
		t.Errorf("mover %q on socket %d, want 1", mover, s)
	}
	if got := h.multi.Ways(mover); got < wmove {
		t.Errorf("mover %q holds %d ways on socket 1, below its pre-move %d — re-learning dip outlived the cooldown",
			mover, got, wmove)
	}

	// The engine's decision trace must show the full lifecycle.
	var sawIssued, sawVerified bool
	for _, ev := range engineTrace.Events() {
		switch ev.Kind {
		case obs.KindPlacementIssued:
			sawIssued = true
		case obs.KindPlacementVerified:
			sawVerified = true
		}
	}
	if !sawIssued || !sawVerified {
		t.Errorf("engine trace missing lifecycle events: issued=%v verified=%v", sawIssued, sawVerified)
	}

	// The execution evidence must be visible to operators through the
	// fleet query plane, attributed to the agent and the destination.
	recs := fetchFleetEvents(t, srv.URL, "/fleet/events?kind=PlacementExecuted&vm="+mover)
	if len(recs) != 1 {
		t.Fatalf("want exactly one PlacementExecuted record for %q, got %d", mover, len(recs))
	}
	if recs[0].Agent != "host-a" || recs[0].Event.Socket != 1 {
		t.Errorf("execution record misattributed: agent=%q socket=%d, want host-a/1",
			recs[0].Agent, recs[0].Event.Socket)
	}

	// And /fleet/placement must publish the settled state.
	resp, err := http.Get(srv.URL + "/fleet/placement")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pub placement.State
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	if pub.Settled != 1 {
		t.Errorf("/fleet/placement reports %d settled moves, want 1", pub.Settled)
	}
}
