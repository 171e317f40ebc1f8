package httpstatus

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// fakeCluster is a canned coordinator view.
type fakeCluster struct{ st cluster.State }

func (f *fakeCluster) ClusterState() cluster.State { return f.st }

func testClusterState() cluster.State {
	return cluster.State{
		Version:       cluster.ProtocolVersion,
		AgentsAlive:   1,
		AgentsTotal:   2,
		TotalWays:     20,
		AllocatedWays: 9,
		Reports:       12,
		Agents: []cluster.AgentState{
			{
				ID: "agent-1", Name: "host-a", Alive: true, Tick: 7, TotalWays: 20,
				LastSeen: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
				Workloads: []cluster.WorkloadReport{
					{Name: "web", Category: "Receiver", Ways: 6, BaselineWays: 3, NormIPC: 1.4, MissRate: 0.02},
					{Name: "batch", Category: "Streaming", Ways: 3, BaselineWays: 3, NormIPC: 1.0, MissRate: 0.9},
				},
			},
			{ID: "agent-2", Name: "host-b", Alive: false, Tick: 3, TotalWays: 20},
		},
	}
}

func TestClusterJSON(t *testing.T) {
	srv := httptest.NewServer(ClusterHandler(&fakeCluster{st: testClusterState()}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		cluster.State
		Time time.Time `json:"time"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.AgentsAlive != 1 || body.AgentsTotal != 2 || len(body.Agents) != 2 {
		t.Fatalf("cluster body: %+v", body.State)
	}
	if body.Agents[0].Workloads[0].Category != "Receiver" {
		t.Errorf("workload category lost: %+v", body.Agents[0].Workloads)
	}
	if body.Time.IsZero() {
		t.Error("time not stamped")
	}
}

// TestClusterMetrics: /cluster/metrics serves the registry the
// coordinator registered its families on; without a registry there is
// no metrics endpoint.
func TestClusterMetrics(t *testing.T) {
	coord, reg := scriptedCoordinator(t)
	out := scrape(t, ClusterHandlerOpts(coord, Options{Metrics: reg}), "/cluster/metrics")
	for _, want := range []string{
		`dcat_cluster_agents{alive="true"} 1`,
		`dcat_cluster_agents{alive="false"} 1`,
		"dcat_cluster_reports_total 5",
		"dcat_cluster_total_ways 20",
		"dcat_cluster_allocated_ways 7",
		`dcat_cluster_ways{agent="host-b",workload="web",category="Keeper"} 5`,
		`dcat_cluster_normalized_ipc{agent="host-a",workload="batch"} 1`,
		"dcat_fleet_agents_alive 1",
		`dcat_tenant_mpki{agent="host-b",workload="web",socket="0",category="Keeper",policy="reactive"} 125`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	rec := httptest.NewRecorder()
	ClusterHandler(coord).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/cluster/metrics without a registry: status %d, want 404", rec.Code)
	}
}

func TestClusterHealthz(t *testing.T) {
	st := testClusterState()
	src := &fakeCluster{st: st}
	srv := httptest.NewServer(ClusterHandler(src))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/cluster/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthy cluster: status %d", resp.StatusCode)
	}
	src.st.AgentsAlive = 0
	resp, err = srv.Client().Get(srv.URL + "/cluster/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("dead cluster: status %d, want 503", resp.StatusCode)
	}
}
