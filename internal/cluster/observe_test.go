package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestEventForwarding walks a decision-event summary through the whole
// control plane: agent tally → report → coordinator record → fleet
// state, registered metrics, and the coordinator's own trace journal.
func TestEventForwarding(t *testing.T) {
	r := newCoordRig(t, CoordinatorConfig{StreamingQuorum: 1})
	reg := telemetry.NewRegistry()
	r.coord.RegisterMetrics(reg)
	journal := obs.NewJournal(64)
	r.coord.SetSink(journal)

	local := newFakeLocal(
		core.Status{Name: "batch", State: core.StateStreaming, Ways: 1, Baseline: 2, MissRate: 0.9},
	)
	a := newTestAgent(t, "host-a", r.srv.URL, local)
	ctx := context.Background()
	if err := a.Tick(ctx); err != nil { // enrolls
		t.Fatal(err)
	}

	// The daemon would wire the controller's sink chain to this; here
	// the test plays controller.
	sink := a.EventSink()
	sink.Emit(obs.Event{Kind: obs.KindStateTransition, From: "Keeper", To: "Unknown"})
	sink.Emit(obs.Event{Kind: obs.KindStateTransition, From: "Keeper", To: "Unknown"})
	sink.Emit(obs.Event{Kind: obs.KindStateTransition, From: "Unknown", To: "Streaming"})
	sink.Emit(obs.Event{Kind: obs.KindPhaseChange})
	if err := a.Tick(ctx); err != nil { // reports, carrying the summary
		t.Fatal(err)
	}

	st := r.coord.ClusterState()
	if st.Transitions["Keeper->Unknown"] != 2 || st.Transitions["Unknown->Streaming"] != 1 {
		t.Fatalf("fleet transitions = %v", st.Transitions)
	}
	if st.PhaseChanges != 1 {
		t.Fatalf("fleet phase changes = %d, want 1", st.PhaseChanges)
	}
	if len(st.Agents) != 1 || st.Agents[0].Transitions["Keeper->Unknown"] != 2 ||
		st.Agents[0].PhaseChanges != 1 {
		t.Fatalf("per-agent events not recorded: %+v", st.Agents)
	}

	// A drained tally does not re-send: the next report adds nothing.
	if err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if st := r.coord.ClusterState(); st.Transitions["Keeper->Unknown"] != 2 {
		t.Fatalf("summary double-counted: %v", st.Transitions)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dcat_fleet_state_transitions_total{from="Keeper",to="Unknown"} 2`,
		`dcat_fleet_state_transitions_total{from="Unknown",to="Streaming"} 1`,
		"dcat_fleet_phase_changes_total 1",
		"dcat_fleet_enrollments_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "dcat_fleet_reports_total") {
		t.Fatalf("reports counter missing:\n%s", out)
	}

	// The coordinator's own journal saw the enrollment and — with the
	// workload Streaming at quorum 1 — the issued cap hint.
	var enrolls, hints int
	for _, e := range journal.Tail(0) {
		switch e.Kind {
		case obs.KindAgentEnrolled:
			enrolls++
			if e.Workload != "host-a" {
				t.Fatalf("enroll event %+v", e)
			}
		case obs.KindHintIssued:
			hints++
			if e.Workload != "batch" || e.NewWays != 2 || e.Reason == "" {
				t.Fatalf("hint event %+v", e)
			}
		}
	}
	if enrolls != 1 || hints == 0 {
		t.Fatalf("journal saw %d enrollments and %d hints, want 1 and >0", enrolls, hints)
	}
}

// TestEventSummaryRestoredOnFailure: a report that never reaches the
// coordinator must put its drained summary back so the counts ride the
// next successful report.
func TestEventSummaryRestoredOnFailure(t *testing.T) {
	var failReports atomic.Bool
	coord := NewCoordinator(CoordinatorConfig{})
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failReports.Load() && r.URL.Path == PathReport {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(errorBody{Error: "injected"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	local := newFakeLocal(core.Status{Name: "web", Ways: 3, Baseline: 3})
	a := newTestAgent(t, "host-a", srv.URL, local)
	ctx := context.Background()
	if err := a.Tick(ctx); err != nil { // enrolls
		t.Fatal(err)
	}

	a.EventSink().Emit(obs.Event{Kind: obs.KindStateTransition, From: "Keeper", To: "Donor"})
	failReports.Store(true)
	if err := a.Tick(ctx); err != nil { // report fails; summary restored
		t.Fatal(err)
	}
	if a.LastErr() == nil {
		t.Fatal("failed report left no error")
	}
	failReports.Store(false)
	if err := a.Tick(ctx); err != nil { // retry carries the summary
		t.Fatal(err)
	}
	st := coord.ClusterState()
	if st.Transitions["Keeper->Donor"] != 1 {
		t.Fatalf("summary lost on failed report: %v", st.Transitions)
	}
}

// TestRPCMetrics locks in the client instrumentation: per-attempt
// latency observations, retry counts, and terminal failures.
func TestRPCMetrics(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	reg := telemetry.NewRegistry()
	m := NewRPCMetrics(reg)
	cli, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 2, Backoff: time.Millisecond,
		Metrics: m,
		sleep:   func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cli.Report(context.Background(), validReport())
	if err == nil {
		t.Fatal("report against a 500 server succeeded")
	}
	if got := m.Latency.Count(); got != 3 {
		t.Fatalf("latency observations = %d, want 3 (1 attempt + 2 retries)", got)
	}
	if m.Retries.Value() != 2 || m.Failures.Value() != 1 {
		t.Fatalf("retries %d failures %d, want 2 and 1", m.Retries.Value(), m.Failures.Value())
	}
}

// TestEventSummaryValidation: the strict decoder bounds and sanitizes
// forwarded summaries.
func TestEventSummaryValidation(t *testing.T) {
	base := func() *ReportRequest {
		return &ReportRequest{Version: ProtocolVersion, AgentID: "agent-1"}
	}

	ok := base()
	ok.Events = &EventSummary{Transitions: map[string]uint64{"Keeper->Donor": 3}, PhaseChanges: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}

	huge := base()
	huge.Events = &EventSummary{Transitions: make(map[string]uint64)}
	for i := 0; i < maxTransitionKinds+1; i++ {
		huge.Events.Transitions[strings.Repeat("x", i+1)] = 1
	}
	if err := huge.Validate(); err == nil {
		t.Fatal("oversized transition map accepted")
	}

	evil := base()
	evil.Events = &EventSummary{Transitions: map[string]uint64{"Keeper\x00->Donor": 1}}
	if err := evil.Validate(); err == nil {
		t.Fatal("control character in transition key accepted")
	}

	// Wire-level: a negative count must fail uint64 decoding.
	body := []byte(`{"version":1,"agent_id":"agent-1","tick":0,"workloads":[],` +
		`"events":{"transitions":{"Keeper->Donor":-1}}}`)
	if _, err := DecodeReportRequest(body); err == nil {
		t.Fatal("negative transition count decoded")
	}
}
