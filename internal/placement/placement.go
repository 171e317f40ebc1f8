// Package placement turns the cluster coordinator into a fleet
// rebalancer: the other half of the paper's resource-management story.
// dCat decides how much LLC each workload gets on the socket it runs
// on; the placement engine decides which socket that should be.
//
// The engine periodically evaluates per-agent, per-socket pressure
// signals that already flow through the cluster plane — pool
// exhaustion from reports (allocated vs. total ways), WayReclaim rates
// from the flight recorder — and when one LLC is exhausted while a
// sibling has headroom, it issues a versioned move directive for the
// hungriest movable workload. Agents poll directives over
// /v1/placement, execute them with a live cross-socket migration
// (host.MigrateVM + core.Controller.Migrate, which carries the
// learned controller state along), emit a PlacementExecuted decision
// event, and ack. The engine treats the ack as a claim, not a fact: a
// move settles only once the execution event shows up in the flight
// recorder. Verification failure (or timeout) triggers the reverse
// directive, and every finished move puts its workload on a cooldown
// so the fleet never ping-pongs.
//
// The engine is transport-agnostic: the coordinator feeds it report-
// derived views and serves its directives over HTTP, while experiments
// and tests drive Evaluate/Directives/Ack directly.
package placement

// MoveDirective is one versioned cross-socket move command. IDs are
// engine-unique and strictly increasing; an agent executes a directive
// at most once and acks it by ID.
type MoveDirective struct {
	ID         uint64 `json:"id"`
	Agent      string `json:"agent"`
	Workload   string `json:"workload"`
	FromSocket int    `json:"from_socket"`
	ToSocket   int    `json:"to_socket"`
	Reason     string `json:"reason,omitempty"`
	// TraceID/SpanID tie the directive into the causality trace born
	// when the engine observed the pressure (see Config.Trace): TraceID
	// names the whole decision tree, SpanID the PlacementIssued span.
	// The executing agent stamps both onto its PlacementExecuted event
	// (as TraceID/ParentID), which is how one trace follows the move
	// across the process boundary. Zero when tracing is off.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// DirectiveAck is an agent's execution verdict for one directive.
type DirectiveAck struct {
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Detail carries the migration error when OK is false.
	Detail string `json:"detail,omitempty"`
}

// WorkloadView is one workload's controller state as the coordinator
// sees it in reports.
type WorkloadView struct {
	Name     string
	Socket   int
	Category string
	Ways     int
	Baseline int
}

// AgentView is the per-agent slice of the fleet the engine scores: the
// agent's LLC associativity (per socket — sockets are identical on the
// modeled hosts) and every reported workload. Sockets are inferred
// from the workloads; a socket with no workloads has no controller and
// is not a placement destination.
type AgentView struct {
	Agent     string
	TotalWays int
	Workloads []WorkloadView
}

// State is the engine's externally visible status, served on
// /fleet/placement and by dcat-trace placement.
type State struct {
	Evaluations uint64 `json:"evaluations"`
	Issued      uint64 `json:"issued"`
	Executed    uint64 `json:"executed"`
	Settled     uint64 `json:"settled"`
	RolledBack  uint64 `json:"rolled_back"`
	Failed      uint64 `json:"failed"`
	// Inflight lists directives not yet settled or abandoned, oldest
	// first.
	Inflight []DirectiveStatus `json:"inflight,omitempty"`
	// Cooldowns lists workloads currently barred from moving again, as
	// "agent/workload" → evaluations remaining.
	Cooldowns map[string]int `json:"cooldowns,omitempty"`
}

// DirectiveStatus is one inflight directive plus its lifecycle phase.
type DirectiveStatus struct {
	MoveDirective
	// Phase is "issued" (awaiting the agent's poll/ack) or "verifying"
	// (acked, awaiting recorder evidence).
	Phase string `json:"phase"`
	// Age is evaluations since issue.
	Age int `json:"age"`
	// Rollback marks a directive that reverses a failed move.
	Rollback bool `json:"rollback,omitempty"`
}
