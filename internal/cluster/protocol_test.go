package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

func validEnroll() *EnrollRequest {
	return &EnrollRequest{
		Version:   ProtocolVersion,
		Agent:     "host-a",
		TotalWays: 20,
		Workloads: []WorkloadSpec{{Name: "web", BaselineWays: 3}, {Name: "batch", BaselineWays: 2}},
	}
}

func validReport() *ReportRequest {
	return &ReportRequest{
		Version: ProtocolVersion,
		AgentID: "agent-1",
		Tick:    7,
		Workloads: []WorkloadReport{
			{Name: "web", Category: "Receiver", Ways: 5, BaselineWays: 3, IPC: 1.2, NormIPC: 1.4, MissRate: 0.02},
		},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeEnrollRoundtrip(t *testing.T) {
	req, err := DecodeEnrollRequest(mustJSON(t, validEnroll()))
	if err != nil {
		t.Fatal(err)
	}
	if req.Agent != "host-a" || len(req.Workloads) != 2 || req.TotalWays != 20 {
		t.Errorf("roundtrip mangled the request: %+v", req)
	}
}

func TestDecodeEnrollRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*EnrollRequest)
	}{
		{"wrong version", func(r *EnrollRequest) { r.Version = 99 }},
		{"empty agent", func(r *EnrollRequest) { r.Agent = "" }},
		{"control chars in name", func(r *EnrollRequest) { r.Agent = "a\nb" }},
		{"oversized name", func(r *EnrollRequest) { r.Agent = strings.Repeat("x", 200) }},
		{"zero ways", func(r *EnrollRequest) { r.TotalWays = 0 }},
		{"no workloads", func(r *EnrollRequest) { r.Workloads = nil }},
		{"duplicate workloads", func(r *EnrollRequest) { r.Workloads[1].Name = r.Workloads[0].Name }},
		{"baseline above total", func(r *EnrollRequest) { r.Workloads[0].BaselineWays = 21 }},
		{"baseline zero", func(r *EnrollRequest) { r.Workloads[0].BaselineWays = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := validEnroll()
			tc.mutate(req)
			if _, err := DecodeEnrollRequest(mustJSON(t, req)); err == nil {
				t.Error("invalid enrollment accepted")
			}
		})
	}
}

func TestDecodeReportRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ReportRequest)
	}{
		{"wrong version", func(r *ReportRequest) { r.Version = 0 }},
		{"empty agent id", func(r *ReportRequest) { r.AgentID = "" }},
		{"negative tick", func(r *ReportRequest) { r.Tick = -1 }},
		{"negative ways", func(r *ReportRequest) { r.Workloads[0].Ways = -1 }},
		{"huge ways", func(r *ReportRequest) { r.Workloads[0].Ways = 5000 }},
		{"negative ipc", func(r *ReportRequest) { r.Workloads[0].IPC = -0.5 }},
		{"miss rate above 1", func(r *ReportRequest) { r.Workloads[0].MissRate = 1.5 }},
		{"unknown category", func(r *ReportRequest) { r.Workloads[0].Category = "Growing" }},
		{"empty category", func(r *ReportRequest) { r.Workloads[0].Category = "" }},
		{"lower-case category", func(r *ReportRequest) { r.Workloads[0].Category = "keeper" }},
		{"control chars in policy", func(r *ReportRequest) { r.Workloads[0].Policy = "re\x00active" }},
		{"oversized policy", func(r *ReportRequest) { r.Workloads[0].Policy = strings.Repeat("p", maxNameLen+1) }},
		{"transition key without arrow", func(r *ReportRequest) {
			r.Events = &EventSummary{Transitions: map[string]uint64{"KeeperDonor": 1}}
		}},
		{"transition to unknown state", func(r *ReportRequest) {
			r.Events = &EventSummary{Transitions: map[string]uint64{"Keeper->Growing": 1}}
		}},
		{"transition from unknown state", func(r *ReportRequest) {
			r.Events = &EventSummary{Transitions: map[string]uint64{"Stable->Keeper": 1}}
		}},
		{"transition with two arrows", func(r *ReportRequest) {
			r.Events = &EventSummary{Transitions: map[string]uint64{"Keeper->Donor->Keeper": 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := validReport()
			tc.mutate(req)
			if _, err := DecodeReportRequest(mustJSON(t, req)); err == nil {
				t.Error("invalid report accepted")
			}
		})
	}
}

func validEvents() *EventsRequest {
	return &EventsRequest{
		Version:  ProtocolVersion,
		AgentID:  "agent-1",
		Epoch:    42,
		FirstSeq: 7,
		Events: []obs.Event{
			{Tick: 3, Kind: obs.KindWayGrant, Workload: "web", OldWays: 3, NewWays: 4, Reason: "sensitive"},
			{Tick: 4, Kind: obs.KindStateTransition, Workload: "web", From: "Growing", To: "Stable"},
		},
	}
}

func TestDecodeEventsRoundtrip(t *testing.T) {
	req, err := DecodeEventsRequest(mustJSON(t, validEvents()))
	if err != nil {
		t.Fatal(err)
	}
	if req.AgentID != "agent-1" || req.Epoch != 42 || req.FirstSeq != 7 || len(req.Events) != 2 {
		t.Errorf("roundtrip mangled the request: %+v", req)
	}
	if req.Events[0].Kind != obs.KindWayGrant || req.Events[1].To != "Stable" {
		t.Errorf("roundtrip mangled the events: %+v", req.Events)
	}
	// An empty batch (drop-report ping) is valid.
	empty := &EventsRequest{Version: ProtocolVersion, AgentID: "a", Epoch: 1, FirstSeq: 100, Dropped: 100}
	if _, err := DecodeEventsRequest(mustJSON(t, empty)); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
}

func TestDecodeEventsRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*EventsRequest)
	}{
		{"wrong version", func(r *EventsRequest) { r.Version = 2 }},
		{"empty agent id", func(r *EventsRequest) { r.AgentID = "" }},
		{"zero epoch", func(r *EventsRequest) { r.Epoch = 0 }},
		{"negative epoch", func(r *EventsRequest) { r.Epoch = -5 }},
		{"oversized batch", func(r *EventsRequest) { r.Events = make([]obs.Event, maxEventBatch+1) }},
		{"seq overflow", func(r *EventsRequest) { r.FirstSeq = ^uint64(0) }},
		{"negative tick", func(r *EventsRequest) { r.Events[0].Tick = -1 }},
		{"bad workload name", func(r *EventsRequest) { r.Events[0].Workload = "a\x00b" }},
		{"socket out of range", func(r *EventsRequest) { r.Events[0].Socket = maxSocket }},
		{"oversized reason", func(r *EventsRequest) { r.Events[0].Reason = strings.Repeat("x", maxReasonLen+1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := validEvents()
			tc.mutate(req)
			if _, err := DecodeEventsRequest(mustJSON(t, req)); err == nil {
				t.Error("invalid events upload accepted")
			}
		})
	}
	// Kind names are checked at decode time: an unknown kind string
	// must be rejected, not mapped to a zero value.
	bad := []byte(`{"version":1,"agent_id":"a","epoch":1,"first_seq":0,"events":[{"tick":0,"kind":"NotAKind","reason":""}]}`)
	if _, err := DecodeEventsRequest(bad); err == nil {
		t.Error("unknown event kind accepted")
	}
}

func TestSocketValidationOnReports(t *testing.T) {
	req := validReport()
	req.Workloads[0].Socket = 1
	if _, err := DecodeReportRequest(mustJSON(t, req)); err != nil {
		t.Errorf("valid socket rejected: %v", err)
	}
	req.Workloads[0].Socket = -1
	if _, err := DecodeReportRequest(mustJSON(t, req)); err == nil {
		t.Error("negative socket accepted")
	}
	enr := validEnroll()
	enr.Workloads[0].Socket = maxSocket
	if _, err := DecodeEnrollRequest(mustJSON(t, enr)); err == nil {
		t.Error("out-of-range socket accepted on enrollment")
	}
}

func TestDecodeRejectsMalformedFraming(t *testing.T) {
	good := mustJSON(t, validReport())
	for name, data := range map[string][]byte{
		"empty":          []byte(""),
		"junk":           []byte("not json at all"),
		"truncated":      good[:len(good)/2],
		"trailing data":  append(append([]byte{}, good...), []byte(`{"version":1}`)...),
		"unknown fields": []byte(`{"version":1,"agent_id":"a","tick":0,"workloads":[],"extra":true}`),
		"wrong type":     []byte(`{"version":"one","agent_id":"a","tick":0}`),
		"nan miss rate":  []byte(`{"version":1,"agent_id":"a","tick":0,"workloads":[{"name":"w","miss_rate":NaN}]}`),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeReportRequest(data); err == nil {
				t.Errorf("malformed body accepted: %q", data)
			}
		})
	}
}
