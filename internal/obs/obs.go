// Package obs is the observability layer of the dCat reproduction:
// structured decision-trace events emitted by the controller (and the
// cluster control plane), a bounded in-memory ring journal with an
// Explain query, and sinks that tee events to files or tallies.
//
// The paper's whole contribution is a per-tick decision loop (baseline
// → counters → phase detect → categorize → allocate, Fig 4), so every
// consequential decision — a phase change, a category transition, a
// way grant or reclaim, a performance-table hit — is recorded as one
// Event with the tick, the workload, the old and new values, and a
// human-readable reason. The Fig 8/9-style timelines of the evaluation
// become derivable from the journal instead of ad-hoc experiment code.
//
// Emission is designed for the controller's hot path: events are plain
// value structs whose string fields are constants (category names,
// fixed reason strings), so appending to the ring journal performs no
// heap allocation. Rendering (JSONL export, HTTP queries) pays the
// formatting cost at read time instead.
package obs

import (
	"encoding/json"
	"fmt"
)

// Kind classifies a decision-trace event.
type Kind int

const (
	// KindPhaseChange: the phase detector fired; the workload returns
	// to its contracted baseline (§3.3/§3.4 Reclaim).
	KindPhaseChange Kind = iota
	// KindStateTransition: the workload's §3.4 category changed.
	KindStateTransition
	// KindWayGrant: the allocator raised the workload's allocation.
	KindWayGrant
	// KindWayReclaim: the allocator lowered the workload's allocation.
	KindWayReclaim
	// KindTableHit: a recurring phase matched a saved performance
	// table; the controller jumps to the remembered allocation (§3.5,
	// Fig 12).
	KindTableHit
	// KindBaselineSet: the baseline IPC of the current phase was
	// (re)measured at the contracted allocation.
	KindBaselineSet
	// KindAgentEnrolled: the cluster coordinator registered (or
	// re-registered) an agent.
	KindAgentEnrolled
	// KindHintIssued: the coordinator pushed a fleet-level allocation
	// cap to an agent.
	KindHintIssued
	// KindPlacementIssued: the placement engine issued a cross-socket
	// move directive for a workload.
	KindPlacementIssued
	// KindPlacementExecuted: an agent live-migrated a workload to
	// another socket, carrying its controller state along.
	KindPlacementExecuted
	// KindPlacementVerified: the engine found the execution evidence in
	// the flight recorder and settled the move.
	KindPlacementVerified
	// KindPlacementRolledBack: verification failed or timed out; the
	// engine issued the reverse move.
	KindPlacementRolledBack
	// KindPlacementPressure: the placement engine observed socket
	// pressure that justified evaluating a move — the root span of a
	// placement causality trace.
	KindPlacementPressure
	// KindPolicyPreGrant: the allocation policy granted ways ahead of a
	// predicted phase (predictive policy).
	KindPolicyPreGrant
	// KindPolicyAdopt: a sustained phase change adopted its remembered
	// baseline IPC instead of reclaiming to re-measure it.
	KindPolicyAdopt
	// KindPolicyPredictHit: a phase transition landed on the sequence
	// model's confident prediction.
	KindPolicyPredictHit
	// KindPolicyPredictMiss: a confident prediction was contradicted by
	// the actual transition.
	KindPolicyPredictMiss
	// KindPolicyCluster: an LFOC-style policy reassigned a workload's
	// cluster.
	KindPolicyCluster
)

var kindNames = [...]string{
	KindPhaseChange:         "PhaseChange",
	KindStateTransition:     "StateTransition",
	KindWayGrant:            "WayGrant",
	KindWayReclaim:          "WayReclaim",
	KindTableHit:            "TableHit",
	KindBaselineSet:         "BaselineSet",
	KindAgentEnrolled:       "AgentEnrolled",
	KindHintIssued:          "HintIssued",
	KindPlacementIssued:     "PlacementIssued",
	KindPlacementExecuted:   "PlacementExecuted",
	KindPlacementVerified:   "PlacementVerified",
	KindPlacementRolledBack: "PlacementRolledBack",
	KindPlacementPressure:   "PlacementPressure",
	KindPolicyPreGrant:      "PolicyPreGrant",
	KindPolicyAdopt:         "PolicyAdopt",
	KindPolicyPredictHit:    "PolicyPredictHit",
	KindPolicyPredictMiss:   "PolicyPredictMiss",
	KindPolicyCluster:       "PolicyCluster",
}

// String names the kind as it appears in JSONL output.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether the kind is one of the defined values —
// protocol validators use it to reject forged events.
func (k Kind) Valid() bool {
	return k >= 0 && int(k) < len(kindNames)
}

// ParseKind resolves a kind name (as produced by String) back to its
// value; query surfaces use it to turn ?kind= parameters into filters.
func ParseKind(s string) (Kind, bool) {
	for i, name := range kindNames {
		if name == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a kind name (for journal round-trips in tests
// and tooling).
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	kk, ok := ParseKind(s)
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", s)
	}
	*k = kk
	return nil
}

// Event is one decision-trace record. Which fields are meaningful
// depends on Kind:
//
//   - StateTransition: From/To are category names.
//   - WayGrant/WayReclaim: OldWays/NewWays; From is the category that
//     justified the change.
//   - PhaseChange: OldVal/NewVal are the memory-accesses-per-
//     instruction before and after the shift.
//   - BaselineSet: NewWays is the contracted allocation, NewVal the
//     measured baseline IPC.
//   - TableHit: NewWays is the remembered jump target.
//   - AgentEnrolled/HintIssued (cluster): Workload is the agent or
//     workload name; NewWays is the hinted cap.
//
// Reason is always a human-readable explanation of why the controller
// acted.
type Event struct {
	Tick     int    `json:"tick"`
	Kind     Kind   `json:"kind"`
	Workload string `json:"workload,omitempty"`
	// Socket is the LLC domain whose decision loop emitted the event
	// (0 on a single-socket host).
	Socket  int     `json:"socket,omitempty"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	OldWays int     `json:"old_ways,omitempty"`
	NewWays int     `json:"new_ways,omitempty"`
	OldVal  float64 `json:"old_val,omitempty"`
	NewVal  float64 `json:"new_val,omitempty"`
	Reason  string  `json:"reason"`
	// Policy is the allocation policy that made the decision, stamped
	// on way grants/reclaims and policy_* events ("" on events that
	// predate the policy layer or don't involve it).
	Policy string `json:"policy,omitempty"`
	// Causality fields (all optional; zero means "untraced"). A trace
	// groups every event downstream of one decision — a controller rule
	// firing or a placement evaluation — across processes. SpanID is
	// this event's own node in the trace tree; ParentID is the SpanID
	// of the event that caused it (0 for the root). The fields are
	// plain integers so stamping them stays a stack write: tracing is
	// pay-as-you-go and the untraced hot path is unchanged.
	TraceID  uint64 `json:"trace_id,omitempty"`
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
}

// Sink consumes decision-trace events. Emit is called synchronously
// from the controller loop, so implementations must be cheap and must
// not block; they must also be safe for use from one emitting
// goroutine concurrent with readers.
type Sink interface {
	Emit(Event)
}

// multiSink fans one event out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi combines sinks into one; nil sinks are skipped. It returns nil
// when nothing remains (tracing disabled), and the sink itself when
// only one remains.
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
