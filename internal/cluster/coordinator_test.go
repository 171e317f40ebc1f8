package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// manualClock is an injectable, advanceable time source.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// coordRig is a coordinator behind a real HTTP server with a fake
// clock and a protocol client.
type coordRig struct {
	clock *manualClock
	coord *Coordinator
	srv   *httptest.Server
	cli   *Client
}

func newCoordRig(t *testing.T, cfg CoordinatorConfig) *coordRig {
	t.Helper()
	clock := newManualClock()
	cfg.Now = clock.Now
	coord := NewCoordinator(cfg)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	cli, err := NewClient(ClientConfig{BaseURL: srv.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return &coordRig{clock: clock, coord: coord, srv: srv, cli: cli}
}

func (r *coordRig) enroll(t *testing.T, name string) string {
	t.Helper()
	req := validEnroll()
	req.Agent = name
	resp, err := r.cli.Enroll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.AgentID
}

func TestCoordinatorEnrollAndState(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{HeartbeatExpiry: 5 * time.Second})
	id := r.enroll(t, "host-a")
	if id == "" {
		t.Fatal("no agent id assigned")
	}
	st := r.coord.ClusterState()
	if st.AgentsTotal != 1 || st.AgentsAlive != 1 {
		t.Fatalf("state after enroll: %+v", st)
	}
	if st.Agents[0].Name != "host-a" || len(st.Agents[0].Workloads) != 2 {
		t.Errorf("agent row wrong: %+v", st.Agents[0])
	}
}

func TestCoordinatorReenrollSupersedes(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{})
	id1 := r.enroll(t, "host-a")
	id2 := r.enroll(t, "host-a")
	if id1 == id2 {
		t.Fatal("re-enrollment reused the old id")
	}
	st := r.coord.ClusterState()
	if st.AgentsTotal != 1 {
		t.Fatalf("re-enrollment duplicated the agent: %+v", st)
	}
	// The superseded id is dead.
	rep := validReport()
	rep.AgentID = id1
	if _, err := r.cli.Report(context.Background(), rep); err == nil {
		t.Error("superseded agent id still accepted")
	}
}

func TestCoordinatorLivenessExpiry(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{HeartbeatExpiry: 5 * time.Second})
	id := r.enroll(t, "host-a")
	r.clock.Advance(4 * time.Second)
	if st := r.coord.ClusterState(); st.AgentsAlive != 1 {
		t.Fatalf("agent died before expiry: %+v", st)
	}
	r.clock.Advance(2 * time.Second) // 6s > 5s
	if st := r.coord.ClusterState(); st.AgentsAlive != 0 {
		t.Fatalf("agent alive past expiry: %+v", st)
	}
	// A report revives it.
	rep := validReport()
	rep.AgentID, rep.Tick = id, 9
	if _, err := r.cli.Report(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	st := r.coord.ClusterState()
	if st.AgentsAlive != 1 || st.Agents[0].Tick != 9 {
		t.Fatalf("report did not revive the agent: %+v", st)
	}
}

func TestCoordinatorStreamingQuorumHints(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{StreamingQuorum: 2})
	ids := []string{r.enroll(t, "host-a"), r.enroll(t, "host-b"), r.enroll(t, "host-c")}

	// Two hosts classify the replicated "batch" workload Streaming.
	for _, id := range ids[:2] {
		rep := &ReportRequest{
			Version: ProtocolVersion, AgentID: id, Tick: 1,
			Workloads: []WorkloadReport{
				{Name: "batch", Category: "Streaming", Ways: 1, BaselineWays: 2, MissRate: 0.9},
			},
		}
		if _, err := r.cli.Report(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	// The third host still probes it as Unknown: its report response
	// should cap "batch" at baseline.
	rep := &ReportRequest{
		Version: ProtocolVersion, AgentID: ids[2], Tick: 1,
		Workloads: []WorkloadReport{
			{Name: "batch", Category: "Unknown", Ways: 5, BaselineWays: 2, MissRate: 0.8},
			{Name: "web", Category: "Keeper", Ways: 4, BaselineWays: 3, MissRate: 0.01},
		},
	}
	resp, err := r.cli.Report(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AllocationHint{}
	for _, h := range resp.Hints {
		byName[h.Workload] = h
	}
	if h := byName["batch"]; h.MaxWays != 2 {
		t.Errorf("streaming quorum should cap batch at baseline 2, got %+v", h)
	}
	if h := byName["web"]; h.MaxWays != 0 {
		t.Errorf("web should be uncapped, got %+v", h)
	}
}

func TestCoordinatorRejectsGarbage(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{})
	for _, body := range []string{"", "junk", `{"version":99}`} {
		resp, err := r.srv.Client().Post(r.srv.URL+PathEnroll, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("body %q got status %d, want 400", body, resp.StatusCode)
		}
	}
	// Oversized body.
	big := bytes.Repeat([]byte("x"), MaxBodyBytes+1)
	resp, err := r.srv.Client().Post(r.srv.URL+PathEnroll, "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Errorf("oversized body got status %d, want 413", resp.StatusCode)
	}
	// Wrong method.
	get, err := r.srv.Client().Get(r.srv.URL + PathEnroll)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != 405 {
		t.Errorf("GET got status %d, want 405", get.StatusCode)
	}
}

// exposition renders reg as a scraper sees it.
func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func wantLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("exposition missing %q:\n%s", l, out)
		}
	}
}

func TestCoordinatorFleetTelemetry(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{})
	reg := telemetry.NewRegistry()
	r.coord.RegisterMetrics(reg)
	// Registered families are present from the first scrape.
	wantLines(t, exposition(t, reg), "dcat_fleet_agents_alive 0", "dcat_fleet_category_Reclaim 0",
		"dcat_fleet_reports_total 0")
	id := r.enroll(t, "host-a")
	for tick := 1; tick <= 3; tick++ {
		rep := validReport()
		rep.AgentID = id
		rep.Tick = tick
		if _, err := r.cli.Report(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	wantLines(t, exposition(t, reg),
		"dcat_fleet_agents_alive 1",
		"dcat_fleet_ways_allocated 5",
		"dcat_fleet_category_Receiver 1",
		"dcat_fleet_category_Keeper 0",
		"dcat_fleet_reports_total 3",
		"dcat_cluster_reports_total 3",
		`dcat_cluster_agent_tick{agent="host-a",alive="true"} 3`,
		`dcat_tenant_ways{agent="host-a",workload="web",socket="0",category="Receiver",policy=""} 5`)
}

// TestFleetGaugesAtScrapeTime: the dcat_fleet_* gauges read the fleet
// as of the scrape — a category a workload left reads 0, and a fleet
// silent past the heartbeat expiry has no agents alive.
func TestFleetGaugesAtScrapeTime(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{HeartbeatExpiry: 5 * time.Second})
	reg := telemetry.NewRegistry()
	r.coord.RegisterMetrics(reg)
	id := r.enroll(t, "host-a")
	for _, cat := range []string{"Streaming", "Keeper"} {
		rep := validReport()
		rep.AgentID = id
		rep.Workloads[0].Category = cat
		if _, err := r.cli.Report(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	wantLines(t, exposition(t, reg),
		"dcat_fleet_category_Streaming 0", "dcat_fleet_category_Keeper 1", "dcat_fleet_agents_alive 1")
	r.clock.Advance(6 * time.Second)
	wantLines(t, exposition(t, reg),
		"dcat_fleet_agents_alive 0", "dcat_fleet_ways_allocated 0", "dcat_fleet_category_Keeper 0")
}

// TestReportPathHeapFlat: an accepted report leaves nothing behind but
// its bounded tenant-ring slot, so the heap after 10⁵ reports matches
// the heap after 10⁴.
func TestReportPathHeapFlat(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{})
	h := coord.Handler()
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	var enrolled EnrollResponse
	if err := json.Unmarshal(serve(PathEnroll, mustJSON(t, validEnroll())).Body.Bytes(), &enrolled); err != nil {
		t.Fatal(err)
	}
	rep := validReport()
	rep.AgentID = enrolled.AgentID
	rep.Workloads = append(rep.Workloads, WorkloadReport{Name: "batch", Category: "Keeper", Ways: 2, BaselineWays: 2})
	body := mustJSON(t, rep)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const first, total = 10_000, 100_000
	for i := 0; i < first; i++ {
		serve(PathReport, body)
	}
	before := heap()
	for i := first; i < total; i++ {
		serve(PathReport, body)
	}
	after := heap()
	runtime.KeepAlive(coord) // what it holds must count at the second mark
	if after > before+512<<10 {
		t.Fatalf("heap grew %d KiB over %d reports (%d -> %d bytes)", (after-before)>>10, total-first, before, after)
	}
}

func TestCoordinatorTopologyAwareHints(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{StreamingQuorum: 2})
	ids := []string{r.enroll(t, "host-a"), r.enroll(t, "host-b"), r.enroll(t, "host-c")}

	// "batch" is Streaming on socket 1 of two hosts; socket 0 replicas
	// are quiet.
	for _, id := range ids[:2] {
		rep := &ReportRequest{
			Version: ProtocolVersion, AgentID: id, Tick: 1,
			Workloads: []WorkloadReport{
				{Name: "batch", Category: "Streaming", Ways: 1, BaselineWays: 2, MissRate: 0.9, Socket: 1},
			},
		}
		if _, err := r.cli.Report(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	// The third host runs one "batch" replica per socket. Only the
	// socket-1 replica shares an LLC domain with the streaming quorum
	// ... but replicas on one host share a name, so model it as two
	// hosts' worth: report socket 1 first, expect a cap; then socket 0,
	// expect none.
	rep := &ReportRequest{
		Version: ProtocolVersion, AgentID: ids[2], Tick: 1,
		Workloads: []WorkloadReport{
			{Name: "batch", Category: "Unknown", Ways: 5, BaselineWays: 2, MissRate: 0.8, Socket: 1},
		},
	}
	resp, err := r.cli.Report(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hints) != 1 || resp.Hints[0].MaxWays != 2 {
		t.Fatalf("socket-1 replica should be capped at baseline: %+v", resp.Hints)
	}
	if !strings.Contains(resp.Hints[0].Reason, "socket 1") {
		t.Errorf("hint reason should name the socket: %q", resp.Hints[0].Reason)
	}

	// Same workload name on a quiet socket: no cap — the coordinator is
	// no longer topology-blind.
	rep.Tick = 2
	rep.Workloads[0].Socket = 0
	resp, err = r.cli.Report(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hints) != 1 || resp.Hints[0].MaxWays != 0 {
		t.Fatalf("socket-0 replica should be uncapped: %+v", resp.Hints)
	}
}

func TestCoordinatorEventsIngest(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{})
	dir := t.TempDir()
	store, err := flightrec.Open(flightrec.Config{Dir: dir, Now: r.clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r.coord.SetRecorder(store)
	id := r.enroll(t, "host-a")

	evs := []obs.Event{
		{Tick: 1, Kind: obs.KindWayGrant, Workload: "web", NewWays: 4, Reason: "sensitive"},
		{Tick: 2, Kind: obs.KindWayReclaim, Workload: "web", NewWays: 3, Reason: "phase change"},
	}
	req := &EventsRequest{Version: ProtocolVersion, AgentID: id, Epoch: 1, FirstSeq: 0, Events: evs}
	resp, err := r.cli.Events(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NextSeq != 2 {
		t.Fatalf("ack NextSeq = %d, want 2", resp.NextSeq)
	}
	// A retried identical batch is deduplicated, not duplicated.
	if resp, err = r.cli.Events(context.Background(), req); err != nil || resp.NextSeq != 2 {
		t.Fatalf("retry: resp=%+v err=%v", resp, err)
	}
	recs, err := store.Select(flightrec.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("store holds %d records, want 2 (dedup)", len(recs))
	}
	// Records are keyed by the stable agent name, not the enrollment id.
	if recs[0].Agent != "host-a" {
		t.Errorf("record agent = %q, want host-a", recs[0].Agent)
	}
	if recs[1].Event.Kind != obs.KindWayReclaim {
		t.Errorf("second record kind = %v, want WayReclaim", recs[1].Event.Kind)
	}

	// Drop accounting surfaces in the cluster state.
	req2 := &EventsRequest{Version: ProtocolVersion, AgentID: id, Epoch: 1, FirstSeq: 7, Dropped: 5,
		Events: []obs.Event{{Tick: 9, Kind: obs.KindWayGrant, Workload: "web", Reason: "x"}}}
	if _, err := r.cli.Events(context.Background(), req2); err != nil {
		t.Fatal(err)
	}
	st := r.coord.ClusterState()
	if st.Agents[0].EventsDropped != 5 {
		t.Errorf("EventsDropped = %d, want 5", st.Agents[0].EventsDropped)
	}
	cur := store.Cursors()["host-a"]
	if cur.Lost != 5 || cur.ReportedDropped != 5 {
		t.Errorf("cursor = %+v, want Lost=5 ReportedDropped=5", cur)
	}

	// Unknown agent id maps to ErrUnknownAgent so streamers re-enroll.
	bad := &EventsRequest{Version: ProtocolVersion, AgentID: "agent-999", Epoch: 1, FirstSeq: 0}
	if _, err := r.cli.Events(context.Background(), bad); !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("unknown agent err = %v, want ErrUnknownAgent", err)
	}
}

func TestCoordinatorEventsWithoutRecorder(t *testing.T) {
	// No recorder installed: uploads are still acknowledged so agents
	// empty their buffers.
	r := newCoordRig(t, CoordinatorConfig{})
	id := r.enroll(t, "host-a")
	req := &EventsRequest{Version: ProtocolVersion, AgentID: id, Epoch: 1, FirstSeq: 3,
		Events: []obs.Event{{Tick: 1, Kind: obs.KindWayGrant, Workload: "w", Reason: "x"}}}
	resp, err := r.cli.Events(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NextSeq != 4 {
		t.Errorf("recorderless ack NextSeq = %d, want 4", resp.NextSeq)
	}
}
