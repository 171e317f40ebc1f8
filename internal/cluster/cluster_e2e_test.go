// End-to-end exercise of the cluster control plane: a coordinator and
// two agents wrapping real core.Controllers over scripted counters,
// wired through real HTTP servers, including the operator-facing
// /cluster endpoint. Lives in an external test package so it can
// import httpstatus (which itself imports cluster).
package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/cat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/perf"
)

type e2eClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *e2eClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *e2eClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

type e2eBackend struct{ ways int }

func (b *e2eBackend) TotalWays() int                               { return b.ways }
func (b *e2eBackend) Apply(cos int, m bits.CBM, cores []int) error { return nil }

// behavior scripts one workload's counter deltas per interval as a
// function of its current allocation.
type behavior func(ways int) perf.Sample

// fittedBehavior is a cache-friendly workload: low miss rate, steady
// IPC — the controller keeps it a Keeper/Donor around its baseline.
func fittedBehavior() behavior {
	return func(ways int) perf.Sample {
		const retIns = 1_000_000
		return perf.Sample{
			L1Ref:   500_000,
			LLCRef:  400_000,
			LLCMiss: 4_000, // 1% — below the 3% threshold
			RetIns:  retIns,
			Cycles:  retIns, // IPC 1.0 regardless of ways
		}
	}
}

// streamBehavior never improves with more cache: high miss rate and
// flat IPC, so the controller classifies it Streaming.
func streamBehavior() behavior {
	return func(ways int) perf.Sample {
		const retIns = 1_000_000
		return perf.Sample{
			L1Ref:   800_000,
			LLCRef:  600_000,
			LLCMiss: 540_000, // 90%
			RetIns:  retIns,
			Cycles:  retIns * 3,
		}
	}
}

// host is one simulated machine: counters, a real controller, and a
// cluster agent pointed at the coordinator.
type host struct {
	t         *testing.T
	file      *perf.File
	ctl       *core.Controller
	caps      map[string]int // the advisory caps the agent installed
	agent     *cluster.Agent
	order     []string
	behaviors map[string]behavior
}

func newHost(t *testing.T, name, coordURL string, names []string, behaviors map[string]behavior) *host {
	t.Helper()
	file := perf.NewFile(len(names))
	mgr, err := cat.NewManager(&e2eBackend{ways: 20})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]core.Target, len(names))
	for i, n := range names {
		targets[i] = core.Target{Name: n, Cores: []int{i}, BaselineWays: 3}
	}
	ctl, err := core.New(core.DefaultConfig(), mgr, file, targets)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := cluster.NewClient(cluster.ClientConfig{
		BaseURL: coordURL, Timeout: 2 * time.Second, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	caps := map[string]int{}
	agent, err := cluster.NewAgent(cluster.AgentConfig{Name: name, Client: cli}, capRecorder{ctl, caps})
	if err != nil {
		t.Fatal(err)
	}
	return &host{t: t, file: file, ctl: ctl, caps: caps, agent: agent, order: names, behaviors: behaviors}
}

// capRecorder is the agent's view of a host's controller: it records
// every advisory cap the agent installs.
type capRecorder struct {
	*core.Controller
	caps map[string]int
}

func (r capRecorder) SetWayCap(name string, ways int) bool {
	ok := r.Controller.SetWayCap(name, ways)
	if ok {
		r.caps[name] = ways
	}
	return ok
}

// tick feeds one interval of counters and runs the agent (local
// controller tick + cluster duties).
func (h *host) tick(ctx context.Context) {
	h.t.Helper()
	for i, name := range h.order {
		s := h.behaviors[name](h.ctl.Ways(name))
		bank := h.file.Core(i)
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

func getClusterState(t *testing.T, url string) cluster.State {
	t.Helper()
	resp, err := http.Get(url + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster: status %d", resp.StatusCode)
	}
	var st cluster.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestClusterEndToEnd(t *testing.T) {
	clock := &e2eClock{now: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatExpiry: 5 * time.Second,
		StreamingQuorum: 2,
		Now:             clock.Now,
	})
	mux := http.NewServeMux()
	mux.Handle("/v1/", coord.Handler())
	mux.Handle("/cluster", httpstatus.ClusterHandler(coord))
	mux.Handle("/cluster/", httpstatus.ClusterHandler(coord))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx := context.Background()
	hostA := newHost(t, "host-a", srv.URL, []string{"web", "batch"},
		map[string]behavior{"web": fittedBehavior(), "batch": streamBehavior()})
	hostB := newHost(t, "host-b", srv.URL, []string{"web", "batch"},
		map[string]behavior{"web": fittedBehavior(), "batch": streamBehavior()})

	// Drive both hosts long enough for the Streaming classification
	// (baseline x StreamingMult growth plus probation) to settle.
	for i := 0; i < 15; i++ {
		hostA.tick(ctx)
		hostB.tick(ctx)
	}

	// (a) /cluster reports both agents' workload categories and ways.
	st := getClusterState(t, srv.URL)
	if st.AgentsAlive != 2 || st.AgentsTotal != 2 {
		t.Fatalf("cluster state: alive %d total %d, want 2/2", st.AgentsAlive, st.AgentsTotal)
	}
	if len(st.Agents) != 2 || st.Agents[0].Name != "host-a" || st.Agents[1].Name != "host-b" {
		t.Fatalf("agent rows: %+v", st.Agents)
	}
	for _, row := range st.Agents {
		if row.TotalWays != 20 {
			t.Errorf("%s: total ways %d, want 20", row.Name, row.TotalWays)
		}
		cats := map[string]cluster.WorkloadReport{}
		for _, w := range row.Workloads {
			cats[w.Name] = w
		}
		if len(cats) != 2 {
			t.Fatalf("%s: reported workloads %+v", row.Name, row.Workloads)
		}
		if got := cats["batch"].Category; got != core.StateStreaming.String() {
			t.Errorf("%s: batch category %q, want Streaming", row.Name, got)
		}
		if cats["web"].Ways < 1 || cats["batch"].Ways < 1 {
			t.Errorf("%s: way counts missing: %+v", row.Name, row.Workloads)
		}
		// The /cluster ways must match the owning controller's view.
		ctl := hostA.ctl
		if row.Name == "host-b" {
			ctl = hostB.ctl
		}
		for name, w := range cats {
			if w.Ways != ctl.Ways(name) {
				t.Errorf("%s/%s: /cluster says %d ways, controller says %d",
					row.Name, name, w.Ways, ctl.Ways(name))
			}
		}
	}
	// Both hosts classify batch Streaming, so the quorum hint caps it
	// at baseline on both.
	if gotA, gotB := hostA.caps["batch"], hostB.caps["batch"]; gotA != 3 || gotB != 3 {
		t.Errorf("streaming quorum caps: host-a %d, host-b %d, want 3/3", gotA, gotB)
	}

	// (b) Killing host-b: it stops ticking, the clock passes the
	// heartbeat expiry, and host-a keeps reporting.
	clock.Advance(6 * time.Second)
	tickBefore := 0
	for i := 0; i < 3; i++ {
		hostA.tick(ctx)
	}
	st = getClusterState(t, srv.URL)
	byName := map[string]cluster.AgentState{}
	for _, row := range st.Agents {
		byName[row.Name] = row
	}
	if byName["host-b"].Alive {
		t.Error("host-b still alive after heartbeat expiry")
	}
	if !byName["host-a"].Alive {
		t.Error("host-a marked dead despite fresh reports")
	}
	if st.AgentsAlive != 1 {
		t.Errorf("agents alive %d, want 1", st.AgentsAlive)
	}
	tickBefore = byName["host-a"].Tick
	hostA.tick(ctx)
	st = getClusterState(t, srv.URL)
	for _, row := range st.Agents {
		if row.Name == "host-a" && row.Tick <= tickBefore {
			t.Errorf("host-a tick stuck at %d after another report", row.Tick)
		}
	}

	// (c) Coordinator outage: host-a's local allocation loop keeps
	// running even though every exchange now fails.
	srv.Close()
	localBefore := hostA.ctl.Ticks()
	for i := 0; i < 5; i++ {
		hostA.tick(ctx)
	}
	if got := hostA.ctl.Ticks(); got != localBefore+5 {
		t.Errorf("local loop ran %d ticks during the outage, want %d", got-localBefore, 5)
	}
	if hostA.agent.LastErr() == nil {
		t.Error("coordinator outage not surfaced in LastErr")
	}
}

// swappableHandler lets the test "restart" the coordinator behind one
// stable URL: the agents keep dialing the same address while the
// handler underneath is replaced.
type swappableHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappableHandler) Set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// captureSink is the test's stand-in for an agent's local trace file:
// the complete, ordered decision-event history on that host.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureSink) Emit(ev obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *captureSink) Events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// streamingHost is a host whose controller also feeds a flight-recorder
// streamer (as dcatd -coord wires it) and a local capture of every event.
type streamingHost struct {
	*host
	streamer *cluster.Streamer
	local    *captureSink
}

func newStreamingHost(t *testing.T, name, coordURL string, epoch int64) *streamingHost {
	t.Helper()
	h := newHost(t, name, coordURL, []string{"web", "batch"},
		map[string]behavior{"web": fittedBehavior(), "batch": streamBehavior()})
	cli, err := cluster.NewClient(cluster.ClientConfig{
		BaseURL: coordURL, Timeout: 2 * time.Second, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamer, err := cluster.NewStreamer(cluster.StreamerConfig{Client: cli, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := cluster.NewAgent(cluster.AgentConfig{
		Name: name, Client: cli, Streamer: streamer,
	}, h.ctl)
	if err != nil {
		t.Fatal(err)
	}
	h.agent = agent
	local := &captureSink{}
	// The trace wrapper sits above both destinations, so the local
	// journal and the streamed copy carry identical causality ids —
	// every controller decision is born as its own root span. The
	// fixed epoch seed keeps the ids deterministic per host.
	h.ctl.SetSink(obs.Trace(obs.Multi(local, streamer), obs.NewIDGen(uint64(epoch))))
	return &streamingHost{host: h, streamer: streamer, local: local}
}

// saveRecorderArtifacts copies the recorder segment directory into
// DCAT_E2E_ARTIFACT_DIR when the test fails, so CI can upload it.
func saveRecorderArtifacts(t *testing.T, dir string) {
	t.Cleanup(func() {
		dst := os.Getenv("DCAT_E2E_ARTIFACT_DIR")
		if dst == "" || !t.Failed() {
			return
		}
		out := filepath.Join(dst, filepath.Base(t.Name()))
		if err := os.MkdirAll(out, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Logf("artifact copy: %v", err)
			return
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(out, e.Name()), data, 0o644)
			}
			if err != nil {
				t.Logf("artifact copy %s: %v", e.Name(), err)
			}
		}
		t.Logf("recorder segments saved to %s", out)
	})
}

// saveFleetMetrics writes the coordinator's /fleet/metrics document —
// the per-tenant time-series plane — into DCAT_E2E_ARTIFACT_DIR when
// the test fails, so CI uploads the fleet's trajectory next to the
// recorder segments. The coordinator is resolved through a func so
// tests that restart it capture the live incarnation.
func saveFleetMetrics(t *testing.T, coord func() *cluster.Coordinator) {
	t.Cleanup(func() {
		dst := os.Getenv("DCAT_E2E_ARTIFACT_DIR")
		if dst == "" || !t.Failed() {
			return
		}
		out := filepath.Join(dst, filepath.Base(t.Name()))
		if err := os.MkdirAll(out, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		data, err := json.MarshalIndent(coord().TenantMetricsSnapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(out, "fleet-metrics.json"), data, 0o644)
		}
		if err != nil {
			t.Logf("fleet metrics artifact: %v", err)
			return
		}
		t.Logf("fleet metrics saved to %s", filepath.Join(out, "fleet-metrics.json"))
	})
}

// fetchFleetEvents GETs a /fleet path and decodes the NDJSON records.
func fetchFleetEvents(t *testing.T, base, path string) []flightrec.Record {
	t.Helper()
	res, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("GET %s: status %d: %s", path, res.StatusCode, body)
	}
	var recs []flightrec.Record
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec flightrec.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFlightRecorderEndToEnd drives two streaming agents into a
// recorder-backed coordinator, restarts the coordinator (new process
// state, reopened store) mid-run, and then requires that /fleet/events
// per agent is byte-identical to that agent's local event history —
// no events lost across the restart, none duplicated by upload
// retries, and every buffer drop accounted (here: zero).
func TestFlightRecorderEndToEnd(t *testing.T) {
	dir := t.TempDir()
	saveRecorderArtifacts(t, dir)

	openStore := func() *flightrec.Store {
		store, err := flightrec.Open(flightrec.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	var liveCoord *cluster.Coordinator
	newCoordHandler := func(store *flightrec.Store) http.Handler {
		coord := cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatExpiry: time.Hour})
		coord.SetRecorder(store)
		mux := http.NewServeMux()
		mux.Handle("/v1/", coord.Handler())
		mux.Handle("/fleet/", httpstatus.ClusterHandlerOpts(coord, httpstatus.Options{
			Recorder: store, Tenants: coord,
		}))
		liveCoord = coord
		return mux
	}
	saveFleetMetrics(t, func() *cluster.Coordinator { return liveCoord })

	store := openStore()
	swap := &swappableHandler{}
	swap.Set(newCoordHandler(store))
	srv := httptest.NewServer(swap)
	defer srv.Close()

	ctx := context.Background()
	hostA := newStreamingHost(t, "host-a", srv.URL, 101)
	hostB := newStreamingHost(t, "host-b", srv.URL, 202)
	hosts := []*streamingHost{hostA, hostB}

	// Phase 1: both agents stream normally.
	for i := 0; i < 8; i++ {
		hostA.tick(ctx)
		hostB.tick(ctx)
	}

	// Phase 2: the coordinator goes down hard. Agents keep ticking —
	// events buffer on each host, flushes fail and back off.
	swap.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
	}))
	for i := 0; i < 4; i++ {
		hostA.tick(ctx)
		hostB.tick(ctx)
	}

	// Phase 3: a NEW coordinator process comes up over the SAME
	// reopened store. The fresh registry 404s the agents' stale ids;
	// they re-enroll and resume uploading from their unacknowledged
	// tail. The store's rebuilt (agent, epoch, seq) cursors dedup any
	// batch that was acknowledged before the crash.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store = openStore()
	defer store.Close()
	swap.Set(newCoordHandler(store))

	// Drive until both streamers have drained (re-enrollment plus
	// flush-cooldown skips take a few ticks).
	for i := 0; i < 100 && (hostA.streamer.Pending() > 0 || hostB.streamer.Pending() > 0); i++ {
		hostA.tick(ctx)
		hostB.tick(ctx)
	}
	for _, h := range hosts {
		if n := h.streamer.Pending(); n != 0 {
			t.Fatalf("%s: %d events still buffered after recovery", h.agent.ID(), n)
		}
	}

	for _, h := range hosts {
		name := map[*streamingHost]string{hostA: "host-a", hostB: "host-b"}[h]
		local := h.local.Events()
		if len(local) == 0 {
			t.Fatalf("%s emitted no events — test is vacuous", name)
		}

		// The fleet recorder's answer for this agent, over HTTP.
		recs := fetchFleetEvents(t, srv.URL, "/fleet/events?agent="+name)
		streamed := make([]obs.Event, len(recs))
		for i, rec := range recs {
			streamed[i] = rec.Event
			if rec.Agent != name {
				t.Fatalf("%s: foreign record %+v", name, rec)
			}
		}

		// Byte-identical to the local journal JSONL: nothing lost
		// across the restart, nothing duplicated by retries.
		var want, got bytes.Buffer
		if err := obs.WriteJSONL(&want, local); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(&got, streamed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: fleet recorder diverges from the local journal: %d local vs %d streamed events",
				name, len(local), len(streamed))
		}

		// Sequence numbers are gapless and duplicate-free from 0.
		for i, rec := range recs {
			if rec.Seq != uint64(i) {
				t.Fatalf("%s: record %d has seq %d, want %d", name, i, rec.Seq, i)
			}
		}

		// Drop accounting balances: the streamer never overflowed, and
		// the store saw no sequence gaps.
		cur, ok := store.Cursors()[name]
		if !ok {
			t.Fatalf("%s: no store cursor", name)
		}
		if h.streamer.Dropped() != 0 || cur.Lost != 0 || cur.ReportedDropped != 0 {
			t.Errorf("%s: unexpected drops: streamer %d, store lost %d, reported %d",
				name, h.streamer.Dropped(), cur.Lost, cur.ReportedDropped)
		}

		// Causality ids survive the buffering, the re-enrollment, and
		// the restarted coordinator's reopened store: every streamed
		// event still carries the root span the trace wrapper stamped
		// at emission, and the reconstructed forest has no orphans —
		// no span lost its parent crossing the restart.
		for i, rec := range recs {
			ev := rec.Event
			if ev.TraceID == 0 || ev.SpanID != ev.TraceID || ev.ParentID != 0 {
				t.Fatalf("%s: record %d lost its root span: trace=%016x span=%016x parent=%016x",
					name, i, ev.TraceID, ev.SpanID, ev.ParentID)
			}
		}
		forest := flightrec.BuildTraceTree(0, recs)
		if len(forest.Orphans) != 0 {
			t.Errorf("%s: %d orphaned spans after restart recovery", name, len(forest.Orphans))
		}
		if got := forest.Spans(); got != len(recs) {
			t.Errorf("%s: causality forest holds %d spans, want %d", name, got, len(recs))
		}
	}
}
