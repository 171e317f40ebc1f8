package httpstatus

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// nonConformant returns the first sample line that does not split as
// name{labels} value, or whose label values use a backslash escape the
// Prometheus text format lacks (it has only \\, \" and \n).
func nonConformant(text string) error {
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("no value: %q", line)
		}
		rest := line[sp:]
		if i := strings.IndexByte(line, '{'); i >= 0 && i < sp {
			rest = line[i+1:]
			for sep := byte(','); sep == ','; {
				eq := strings.Index(rest, `="`)
				if eq <= 0 {
					return fmt.Errorf("label without name=\"value\": %q", line)
				}
				rest = rest[eq+2:]
				for len(rest) > 0 && rest[0] != '"' {
					if rest[0] == '\\' {
						if len(rest) < 2 || !strings.ContainsRune(`\"n`, rune(rest[1])) {
							return fmt.Errorf("non-conformant escape: %q", line)
						}
						rest = rest[1:]
					}
					rest = rest[1:]
				}
				if len(rest) < 2 || (rest[1] != ',' && rest[1] != '}') {
					return fmt.Errorf("bad label list: %q", line)
				}
				sep, rest = rest[1], rest[2:]
			}
		}
		if !strings.HasPrefix(rest, " ") {
			return fmt.Errorf("no space before the value: %q", line)
		}
		if _, err := strconv.ParseFloat(rest[1:], 64); err != nil {
			return fmt.Errorf("value of %q: %v", line, err)
		}
	}
	return nil
}

// TestExpositionEscaping: names an agent may send — a no-break space in
// a workload, a quote and a backslash in an agent — reach both scrapes
// raw or with the format's own escapes, never Go's %q escapes.
func TestExpositionEscaping(t *testing.T) {
	const workload, agent = "a\u00a0b", `q"x\y`
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	reg := telemetry.NewRegistry()
	coord.RegisterMetrics(reg)
	proto := coord.Handler()
	id := enroll(t, proto, agent, workload)
	post(t, proto, cluster.PathReport, &cluster.ReportRequest{
		Version: cluster.ProtocolVersion, AgentID: id, Tick: 1,
		Workloads: []cluster.WorkloadReport{{Name: workload, Category: "Keeper", Ways: 2, BaselineWays: 2,
			IPC: 1, NormIPC: 1, Policy: "reactive"}},
		Events: &cluster.EventSummary{Transitions: map[string]uint64{"Unknown->Keeper": 1}},
	})
	out := scrape(t, ClusterHandlerOpts(coord, Options{Metrics: reg}), "/cluster/metrics")
	if err := nonConformant(out); err != nil {
		t.Fatalf("/cluster/metrics: %v", err)
	}
	if want := `dcat_cluster_ways{agent="q\"x\\y",workload="a` + "\u00a0" + `b",category="Keeper"} 2`; !strings.Contains(out, want) {
		t.Fatalf("/cluster/metrics missing %q:\n%s", want, out)
	}

	src := &fakeSource{
		ticks: 3,
		snap: []core.Status{
			{Name: workload, State: core.StateKeeper, Ways: 2, NormIPC: 1},
			{Name: agent, State: core.StateDonor, Ways: 1, NormIPC: 0.5},
		},
		occ:   map[string]uint64{workload: 4096},
		hasOc: true,
	}
	out = scrape(t, Handler(src), "/metrics")
	if err := nonConformant(out); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if want := "dcat_llc_occupancy_bytes{workload=\"a\u00a0b\"} 4096"; !strings.Contains(out, want) {
		t.Fatalf("/metrics missing %q:\n%s", want, out)
	}
}

// TestClusterScrapesDuringReports: four reporters and four scrapers of
// /cluster/metrics and /fleet/metrics share the coordinator for a
// second. Run with -race: collectors take the coordinator's lock only
// after the registry has released its own, so the interleaving is
// race- and deadlock-free.
func TestClusterScrapesDuringReports(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	reg := telemetry.NewRegistry()
	coord.RegisterMetrics(reg)
	coord.RegisterSelfMetrics(reg)
	proto := coord.Handler()
	status := ClusterHandlerOpts(coord, Options{Metrics: reg, Tenants: coord})

	// serve runs one request off the test goroutine, where t.Fatal is
	// not allowed.
	serve := func(h http.Handler, req *http.Request) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	deadline := time.Now().Add(time.Second)
	states := []string{"Keeper", "Donor", "Receiver", "Streaming", "Unknown", "Reclaim"}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sent int
	)
	for g := 0; g < 4; g++ {
		id := enroll(t, proto, fmt.Sprintf("host-%d", g), "web", "batch")
		wg.Add(2)
		go func() {
			defer wg.Done()
			n := 0
			for ; time.Now().Before(deadline); n++ {
				from, to := states[n%len(states)], states[(n+1)%len(states)]
				body := fmt.Sprintf(`{"version":%d,"agent_id":%q,"tick":%d,"workloads":[`+
					`{"name":"web","category":%q,"ways":%d,"baseline_ways":2,"ipc":1},`+
					`{"name":"batch","category":%q,"ways":2,"baseline_ways":2,"ipc":0.5}],`+
					`"events":{"transitions":{"%s->%s":1}}}`,
					cluster.ProtocolVersion, id, n, to, 1+n%5, from, from, to)
				if code, resp := serve(proto, httptest.NewRequest(http.MethodPost, cluster.PathReport, strings.NewReader(body))); code != http.StatusOK {
					t.Errorf("report: status %d: %s", code, resp)
					return
				}
			}
			mu.Lock()
			sent += n
			mu.Unlock()
		}()
		go func(path string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				code, body := serve(status, httptest.NewRequest(http.MethodGet, path, nil))
				if code != http.StatusOK {
					t.Errorf("GET %s: status %d", path, code)
					return
				}
				if path == "/cluster/metrics" {
					if err := nonConformant(body); err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
				}
			}
		}([]string{"/cluster/metrics", "/fleet/metrics"}[g%2])
	}
	wg.Wait()
	out := scrape(t, status, "/cluster/metrics")
	for _, want := range []string{fmt.Sprintf("dcat_fleet_reports_total %d\n", sent), "dcat_fleet_agents_alive 4\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("after %d reports, /cluster/metrics lacks %q:\n%s", sent, want, out)
		}
	}
}
