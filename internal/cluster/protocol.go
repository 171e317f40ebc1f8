// Package cluster is the fleet control plane above per-host dCat
// controllers: a coordinator that enrolls many agents (each wrapping a
// core.Controller over a real or simulated CAT backend), collects one
// statistics report per controller period from each, tracks liveness
// from those reports, and pushes fleet-level allocation hints back.
//
// The wire protocol is versioned HTTP/JSON. Agents POST to the
// coordinator:
//
//	POST /v1/enroll     — register (or re-register) a host
//	POST /v1/report     — per-workload stats; response carries hints
//	POST /v1/events     — decision-trace upload to the flight recorder
//	POST /v1/placement  — ack executed moves, poll for pending ones
//
// The protocol is strictly one-directional (agent dials coordinator),
// so agents behind NAT or firewalls work, and a coordinator outage
// degrades gracefully: the agent's local dCat loop never depends on a
// round trip.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
)

// ProtocolVersion is the wire version both sides must speak. Version
// mismatches are rejected at decode time; incompatible revisions bump
// this and the /v1/ path prefix together.
const ProtocolVersion = 1

// Versioned endpoint paths.
const (
	PathEnroll    = "/v1/enroll"
	PathReport    = "/v1/report"
	PathEvents    = "/v1/events"
	PathPlacement = "/v1/placement"
)

// TraceHeader is the HTTP header that carries an obs.TraceContext
// (rendered by TraceContext.String) across cluster RPCs: the agent
// sends it on the placement poll that acks an executed directive, and
// the coordinator feeds it to the placement engine so the settlement
// span parents under the agent's execution span. An absent or
// malformed header degrades to "no context" — causality is
// best-effort metadata, never a protocol error.
const TraceHeader = "X-Dcat-Trace"

// MaxBodyBytes bounds any protocol message body; bigger payloads are
// rejected before decoding.
const MaxBodyBytes = 1 << 20

// Limits on message contents, enforced by Validate.
const (
	maxNameLen  = 128
	maxWorkload = 256
	maxWays     = 1024
	// maxTransitionKinds bounds an event summary's transition map: keys
	// are From->To pairs over the state machine's closed set, so no more
	// can exist.
	maxTransitionKinds = core.NumStates * core.NumStates
	// maxEventBatch bounds one flight-recorder upload; the streamer
	// splits bigger backlogs into multiple batches.
	maxEventBatch = 1024
	// maxSocket bounds a report's LLC domain id — far above any real
	// machine, but finite.
	maxSocket = 4096
	// maxReasonLen bounds an event's free-text reason.
	maxReasonLen = 512
	// maxDirectiveBatch bounds one placement poll's ack list; the engine
	// caps inflight moves far below this.
	maxDirectiveBatch = 64
)

// WorkloadSpec announces one managed workload at enrollment.
type WorkloadSpec struct {
	Name         string `json:"name"`
	BaselineWays int    `json:"baseline_ways"`
	// Socket is the LLC domain the workload runs on (0 on
	// single-socket hosts).
	Socket int `json:"socket,omitempty"`
}

// EnrollRequest registers an agent with the coordinator.
type EnrollRequest struct {
	Version int    `json:"version"`
	Agent   string `json:"agent"`
	// StatusAddr, when set, advertises the agent's local httpstatus
	// endpoint so operators can drill down from /cluster.
	StatusAddr string         `json:"status_addr,omitempty"`
	TotalWays  int            `json:"total_ways"`
	Workloads  []WorkloadSpec `json:"workloads"`
}

// EnrollResponse acknowledges enrollment with the agent's id. Agents
// report every controller period; the client decodes responses
// leniently, so fields an older coordinator still sends are ignored.
type EnrollResponse struct {
	Version int    `json:"version"`
	AgentID string `json:"agent_id"`
}

// WorkloadReport is one workload's per-interval statistics, the fleet
// counterpart of core.Status.
type WorkloadReport struct {
	Name         string  `json:"name"`
	Category     string  `json:"category"` // core.State string
	Ways         int     `json:"ways"`
	BaselineWays int     `json:"baseline_ways"`
	IPC          float64 `json:"ipc"`
	NormIPC      float64 `json:"normalized_ipc"`
	MissRate     float64 `json:"miss_rate"`
	// MAPI is memory accesses (LLC references) per retired instruction —
	// the phase-detection signal. With MissRate it yields MPKI
	// (MAPI x MissRate x 1000) for the coordinator's per-tenant
	// time-series. Optional: absent from older agents' reports.
	MAPI float64 `json:"mapi,omitempty"`
	// Socket is the LLC domain the workload runs on; the coordinator
	// keys contention hints by (workload, socket) so one hot LLC does
	// not throttle the whole host.
	Socket int `json:"socket,omitempty"`
	// Policy is the allocation policy driving the reporting controller
	// ("reactive", "predictive", ...). Optional: absent from older
	// agents' reports.
	Policy string `json:"policy,omitempty"`
}

// EventSummary aggregates a host's decision-trace events since its
// last accepted report — counts only, so /cluster can show fleet-wide
// transition rates without shipping whole journals over the wire.
type EventSummary struct {
	// Transitions counts category transitions keyed "From->To"
	// (obs.TransitionKey).
	Transitions map[string]uint64 `json:"transitions,omitempty"`
	// PhaseChanges counts detected phase changes.
	PhaseChanges uint64 `json:"phase_changes,omitempty"`
}

// ReportRequest carries one controller period's statistics.
type ReportRequest struct {
	Version   int              `json:"version"`
	AgentID   string           `json:"agent_id"`
	Tick      int              `json:"tick"`
	Workloads []WorkloadReport `json:"workloads"`
	// Events is the decision-event summary since the last accepted
	// report. Optional (a pointer with omitempty) so agents that do not
	// trace — and reports from older agents — stay valid against the
	// strict decoder.
	Events *EventSummary `json:"events,omitempty"`
}

// AllocationHint is coordinator advice for one workload. MaxWays caps
// the workload's allocation (never below its contracted baseline —
// core.SetWayCap enforces that); 0 clears a previously pushed cap.
type AllocationHint struct {
	Workload string `json:"workload"`
	MaxWays  int    `json:"max_ways"`
	Reason   string `json:"reason,omitempty"`
}

// ReportResponse acknowledges a report and returns current hints for
// the reporting agent's workloads.
type ReportResponse struct {
	Version int              `json:"version"`
	Hints   []AllocationHint `json:"hints,omitempty"`
}

// EventsRequest uploads a contiguous run of decision-trace events to
// the fleet flight recorder. Seq numbers start at 0 within each Epoch
// (a streamer process incarnation), so the batch covers sequences
// [FirstSeq, FirstSeq+len(Events)). Retried batches are idempotent:
// the coordinator dedups by (agent, epoch, seq).
type EventsRequest struct {
	Version int    `json:"version"`
	AgentID string `json:"agent_id"`
	// Epoch identifies the streamer incarnation; a restarted agent
	// starts a new epoch and its sequences restart at 0.
	Epoch int64 `json:"epoch"`
	// FirstSeq is the sequence number of Events[0]. An empty batch with
	// FirstSeq beyond the coordinator's cursor reports buffer drops
	// without carrying events.
	FirstSeq uint64 `json:"first_seq"`
	// Dropped is the agent's cumulative count of events its bounded
	// buffer discarded before upload — drop accounting, never silent.
	Dropped uint64      `json:"dropped,omitempty"`
	Events  []obs.Event `json:"events,omitempty"`
}

// EventsResponse acknowledges an upload. NextSeq is the coordinator's
// cursor after ingest: the agent may discard every buffered event with
// seq < NextSeq.
type EventsResponse struct {
	Version int    `json:"version"`
	NextSeq uint64 `json:"next_seq"`
}

// PlacementRequest is an agent's placement poll: it acknowledges
// directives executed (or failed) since the last poll and asks for any
// pending ones. Like every other leg, the agent dials the coordinator,
// so migration commands ride on the same one-directional transport.
type PlacementRequest struct {
	Version int    `json:"version"`
	AgentID string `json:"agent_id"`
	// Acks reports the outcome of previously polled directives.
	Acks []placement.DirectiveAck `json:"acks,omitempty"`
}

// PlacementResponse returns the directives currently pending for the
// polling agent. Directives are re-sent until acked; agents dedup by
// directive ID.
type PlacementResponse struct {
	Version    int                       `json:"version"`
	Directives []placement.MoveDirective `json:"directives,omitempty"`
}

// errorBody is the JSON error envelope every endpoint returns on
// failure.
type errorBody struct {
	Error string `json:"error"`
}

// validName rejects empty, oversized, and control-character names —
// they end up in URLs, metrics labels, and log lines.
func validName(kind, s string) error {
	if s == "" {
		return fmt.Errorf("cluster: empty %s name", kind)
	}
	if len(s) > maxNameLen {
		return fmt.Errorf("cluster: %s name longer than %d bytes", kind, maxNameLen)
	}
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("cluster: %s name contains control character %q", kind, r)
		}
	}
	return nil
}

// validSocket bounds an LLC domain id.
func validSocket(workload string, socket int) error {
	if socket < 0 || socket >= maxSocket {
		return fmt.Errorf("cluster: workload %q socket %d out of [0,%d)", workload, socket, maxSocket)
	}
	return nil
}

func validVersion(v int) error {
	if v != ProtocolVersion {
		return fmt.Errorf("cluster: protocol version %d, want %d", v, ProtocolVersion)
	}
	return nil
}

// Validate checks an enrollment for protocol sanity.
func (r *EnrollRequest) Validate() error {
	if err := validVersion(r.Version); err != nil {
		return err
	}
	if err := validName("agent", r.Agent); err != nil {
		return err
	}
	if r.TotalWays < 1 || r.TotalWays > maxWays {
		return fmt.Errorf("cluster: total ways %d out of [1,%d]", r.TotalWays, maxWays)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("cluster: enrollment with no workloads")
	}
	if len(r.Workloads) > maxWorkload {
		return fmt.Errorf("cluster: %d workloads exceeds the %d limit", len(r.Workloads), maxWorkload)
	}
	seen := make(map[string]bool, len(r.Workloads))
	for _, w := range r.Workloads {
		if err := validName("workload", w.Name); err != nil {
			return err
		}
		if seen[w.Name] {
			return fmt.Errorf("cluster: duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if w.BaselineWays < 1 || w.BaselineWays > r.TotalWays {
			return fmt.Errorf("cluster: workload %q baseline %d out of [1,%d]",
				w.Name, w.BaselineWays, r.TotalWays)
		}
		if err := validSocket(w.Name, w.Socket); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks a stats report.
func (r *ReportRequest) Validate() error {
	if err := validVersion(r.Version); err != nil {
		return err
	}
	if err := validName("agent id", r.AgentID); err != nil {
		return err
	}
	if r.Tick < 0 {
		return fmt.Errorf("cluster: negative tick %d", r.Tick)
	}
	if len(r.Workloads) > maxWorkload {
		return fmt.Errorf("cluster: %d workloads exceeds the %d limit", len(r.Workloads), maxWorkload)
	}
	seen := make(map[string]bool, len(r.Workloads))
	for _, w := range r.Workloads {
		if err := validName("workload", w.Name); err != nil {
			return err
		}
		if seen[w.Name] {
			return fmt.Errorf("cluster: duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if w.Ways < 0 || w.Ways > maxWays {
			return fmt.Errorf("cluster: workload %q ways %d out of [0,%d]", w.Name, w.Ways, maxWays)
		}
		if w.BaselineWays < 0 || w.BaselineWays > maxWays {
			return fmt.Errorf("cluster: workload %q baseline %d out of [0,%d]",
				w.Name, w.BaselineWays, maxWays)
		}
		for _, v := range []struct {
			name string
			val  float64
		}{{"ipc", w.IPC}, {"normalized_ipc", w.NormIPC}, {"miss_rate", w.MissRate}, {"mapi", w.MAPI}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("cluster: workload %q %s %f not a finite non-negative number",
					w.Name, v.name, v.val)
			}
		}
		if w.MissRate > 1 {
			return fmt.Errorf("cluster: workload %q miss rate %f above 1", w.Name, w.MissRate)
		}
		if err := validSocket(w.Name, w.Socket); err != nil {
			return err
		}
		// Categories and transition keys become metric names and label
		// values: the closed set of states bounds their cardinality.
		if _, ok := core.ParseState(w.Category); !ok {
			return fmt.Errorf("cluster: workload %q category %q is not a dCat state", w.Name, w.Category)
		}
		if err := validName("policy", w.Policy); w.Policy != "" && err != nil {
			return err
		}
	}
	if r.Events != nil {
		if len(r.Events.Transitions) > maxTransitionKinds {
			return fmt.Errorf("cluster: %d transition kinds exceeds the %d limit",
				len(r.Events.Transitions), maxTransitionKinds)
		}
		for k := range r.Events.Transitions {
			from, to, _ := strings.Cut(k, "->")
			_, okFrom := core.ParseState(from)
			if _, okTo := core.ParseState(to); !okFrom || !okTo {
				return fmt.Errorf("cluster: transition key %q is not From->To over dCat states", k)
			}
		}
	}
	return nil
}

// Validate checks a flight-recorder upload.
func (r *EventsRequest) Validate() error {
	if err := validVersion(r.Version); err != nil {
		return err
	}
	if err := validName("agent id", r.AgentID); err != nil {
		return err
	}
	if r.Epoch <= 0 {
		return fmt.Errorf("cluster: event epoch %d not positive", r.Epoch)
	}
	if len(r.Events) > maxEventBatch {
		return fmt.Errorf("cluster: %d events exceeds the %d batch limit", len(r.Events), maxEventBatch)
	}
	if r.FirstSeq > math.MaxUint64-uint64(len(r.Events)) {
		return fmt.Errorf("cluster: event batch sequence range overflows")
	}
	for i := range r.Events {
		ev := &r.Events[i]
		if !ev.Kind.Valid() {
			return fmt.Errorf("cluster: event %d has unknown kind %d", i, int(ev.Kind))
		}
		if ev.Tick < 0 {
			return fmt.Errorf("cluster: event %d has negative tick %d", i, ev.Tick)
		}
		if ev.Workload != "" {
			if err := validName("workload", ev.Workload); err != nil {
				return err
			}
		}
		if err := validSocket(ev.Workload, ev.Socket); err != nil {
			return err
		}
		for _, s := range []string{ev.From, ev.To, ev.Reason} {
			if len(s) > maxReasonLen {
				return fmt.Errorf("cluster: event %d text field longer than %d bytes", i, maxReasonLen)
			}
		}
		for _, v := range []float64{ev.OldVal, ev.NewVal} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cluster: event %d value not finite", i)
			}
		}
	}
	return nil
}

// Validate checks a placement poll.
func (r *PlacementRequest) Validate() error {
	if err := validVersion(r.Version); err != nil {
		return err
	}
	if err := validName("agent id", r.AgentID); err != nil {
		return err
	}
	if len(r.Acks) > maxDirectiveBatch {
		return fmt.Errorf("cluster: %d acks exceeds the %d batch limit", len(r.Acks), maxDirectiveBatch)
	}
	for i, a := range r.Acks {
		if a.ID == 0 {
			return fmt.Errorf("cluster: ack %d has zero directive id", i)
		}
		if len(a.Detail) > maxReasonLen {
			return fmt.Errorf("cluster: ack %d detail longer than %d bytes", i, maxReasonLen)
		}
	}
	return nil
}

// decodeStrict unmarshals one JSON message, rejecting unknown fields
// and trailing garbage. Malformed input returns an error — never a
// panic — which the fuzz tests lock in.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("cluster: decoding message: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("cluster: trailing data after message")
	}
	return nil
}

// DecodeEnrollRequest parses and validates an enrollment body.
func DecodeEnrollRequest(data []byte) (*EnrollRequest, error) {
	var r EnrollRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeReportRequest parses and validates a stats-report body.
func DecodeReportRequest(data []byte) (*ReportRequest, error) {
	var r ReportRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeEventsRequest parses and validates a flight-recorder upload
// body.
func DecodeEventsRequest(data []byte) (*EventsRequest, error) {
	var r EventsRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodePlacementRequest parses and validates a placement-poll body.
func DecodePlacementRequest(data []byte) (*PlacementRequest, error) {
	var r PlacementRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
