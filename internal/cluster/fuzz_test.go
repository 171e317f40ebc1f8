package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeProtocol locks in the protocol decoder's contract:
// arbitrary bytes either decode into a message that re-validates and
// re-encodes cleanly, or return an error — never a panic. The
// coordinator feeds network input straight into these functions.
func FuzzDecodeProtocol(f *testing.F) {
	f.Add([]byte(`{"version":1,"agent":"host-a","total_ways":20,"workloads":[{"name":"web","baseline_ways":3}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","tick":7,"workloads":[{"name":"web","category":"Receiver","ways":5,"baseline_ways":3,"ipc":1.2,"normalized_ipc":1.4,"miss_rate":0.02}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","tick":3}`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[{"version":1}]`))
	f.Add([]byte(`{"version":1,"agent":"a","total_ways":1e300,"workloads":[]}`))
	f.Add([]byte(`{"version":1,"agent":"\u0000","total_ways":2,"workloads":[{"name":"w","baseline_ways":1}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"a","tick":0,"workloads":[{"name":"w","miss_rate":-1}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","epoch":42,"first_seq":7,"events":[{"tick":3,"kind":"WayGrant","workload":"web","old_ways":3,"new_ways":4,"reason":"sensitive"}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"a","epoch":1,"first_seq":18446744073709551615,"events":[{"tick":0,"kind":"WayGrant","reason":""}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"a","epoch":1,"first_seq":0,"events":[{"tick":0,"kind":"NotAKind","reason":""}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","acks":[{"id":3,"ok":true},{"id":4,"ok":false,"detail":"out of cores"}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","acks":[{"id":0,"ok":true}]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","acks":[]}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","tick":2,"workloads":[{"name":"web","category":"Keeper","ways":2,"policy":"lfoc"}],"events":{"transitions":{"Keeper->Donor":1,"Reclaim->Unknown":2}}}`))
	f.Add([]byte(`{"version":1,"agent_id":"agent-1","tick":2,"workloads":[{"name":"web","category":"Growing","ways":2}],"events":{"transitions":{"Keeper->Donor":1,"Donor->Stable":2}}}`))
	states := map[string]bool{}
	for s := core.State(0); int(s) < core.NumStates; s++ {
		states[s.String()] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeEnrollRequest(data); err == nil {
			if err := req.Validate(); err != nil {
				t.Fatalf("decoded enrollment fails revalidation: %v", err)
			}
			if _, err := json.Marshal(req); err != nil {
				t.Fatalf("decoded enrollment fails re-encoding: %v", err)
			}
		}
		if req, err := DecodeReportRequest(data); err == nil {
			if err := req.Validate(); err != nil {
				t.Fatalf("decoded report fails revalidation: %v", err)
			}
			if _, err := json.Marshal(req); err != nil {
				t.Fatalf("decoded report fails re-encoding: %v", err)
			}
			// Categories and transition keys become metric names and
			// labels: only the closed set of states may get through.
			for _, w := range req.Workloads {
				if !states[w.Category] {
					t.Fatalf("decoded report carries category %q", w.Category)
				}
			}
			if req.Events != nil {
				for k := range req.Events.Transitions {
					from, to, ok := strings.Cut(k, "->")
					if !ok || !states[from] || !states[to] {
						t.Fatalf("decoded report carries transition key %q", k)
					}
				}
			}
		}
		if req, err := DecodePlacementRequest(data); err == nil {
			if err := req.Validate(); err != nil {
				t.Fatalf("decoded placement poll fails revalidation: %v", err)
			}
			if _, err := json.Marshal(req); err != nil {
				t.Fatalf("decoded placement poll fails re-encoding: %v", err)
			}
		}
		if req, err := DecodeEventsRequest(data); err == nil {
			if err := req.Validate(); err != nil {
				t.Fatalf("decoded events upload fails revalidation: %v", err)
			}
			if _, err := json.Marshal(req); err != nil {
				t.Fatalf("decoded events upload fails re-encoding: %v", err)
			}
		}
	})
}
