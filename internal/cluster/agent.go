package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
)

// Local is the per-host control surface the agent drives — a
// core.Controller (which implements it directly), or a wrapper that
// advances a simulation before each controller tick.
type Local interface {
	Tick() error
	Ticks() int
	Snapshot() []core.Status
	TotalWays() int
	// SetWayCap applies a coordinator hint (0 clears); it reports
	// whether the workload exists.
	SetWayCap(name string, ways int) bool
}

// AgentConfig tunes a cluster agent.
type AgentConfig struct {
	// Name uniquely identifies this host to the coordinator.
	Name string
	// StatusAddr, when set, is advertised so operators can drill down
	// from /cluster to this host's /status.
	StatusAddr string
	// Client talks to the coordinator. Nil means standalone: the agent
	// is just the local loop (the degraded mode, permanently).
	Client *Client
	// Streamer, when set, uploads the host's decision events to the
	// fleet flight recorder after each tick's cluster duties. Wire its
	// Emit into the controller's sink chain alongside EventSink.
	Streamer *Streamer
	// Mover, when set, lets the agent execute coordinator placement
	// directives: each tick it polls /v1/placement, runs pending moves
	// through the Mover, and acks the outcomes. Nil disables polling.
	Mover Mover
	// Trace issues span IDs for the agent's own events (today: the
	// execution span of PlacementExecuted). Nil gets a process-unique
	// generator; tests inject a fixed-seed one. Span IDs are only drawn
	// for directives that already carry a trace, so untraced fleets see
	// zero change.
	Trace *obs.IDGen
}

// Mover executes a live cross-socket migration on the local host —
// dcat.Simulation.MigrateVM wrapped in whatever locking the embedder
// needs. It is called under the agent's lock, mutually excluded with
// local ticks.
type Mover interface {
	MigrateVM(name string, toSocket int) error
}

// Agent wraps a host's local dCat loop with cluster duties: enroll,
// report every period, and hint application. The local loop never
// waits on the coordinator — a network failure is recorded and
// retried, and local allocation continues unchanged (graceful
// degradation).
type Agent struct {
	cfg   AgentConfig
	local Local

	// mu guards the local controller and the agent's cluster state. It
	// is the lock the httpstatus.Locked adapter must use — Do exposes
	// it.
	mu       sync.Mutex
	id       string
	enrolled bool
	failures int
	lastErr  error
	caps     map[string]int // workload -> applied cap, to clear stale ones

	// tally accumulates the local controller's decision events between
	// reports (see EventSink); each accepted report drains it into the
	// request's EventSummary.
	tally *obs.TransitionTally

	// pendingAcks are directive outcomes awaiting delivery on the next
	// placement poll; maxDirective is the highest directive ID already
	// executed (the engine re-serves directives until acked, so the
	// agent dedups by ID).
	pendingAcks  []placement.DirectiveAck
	maxDirective uint64
	// pendingTrace is the causality context (trace + execution span) of
	// the most recent traced execution, carried as the X-Dcat-Trace
	// header on the poll that delivers its ack and cleared once that
	// delivery succeeds.
	pendingTrace obs.TraceContext

	// sink receives the agent's own decision events (today:
	// PlacementExecuted) — see SetSink.
	sink obs.Sink
}

// NewAgent wires an agent around a local control loop.
func NewAgent(cfg AgentConfig, local Local) (*Agent, error) {
	if local == nil {
		return nil, fmt.Errorf("cluster: agent needs a local controller")
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: agent needs a name")
	}
	if err := validName("agent", cfg.Name); err != nil {
		return nil, err
	}
	if cfg.Trace == nil {
		cfg.Trace = obs.NewIDGen(0)
	}
	return &Agent{
		cfg:   cfg,
		local: local,
		caps:  make(map[string]int),
		tally: obs.NewTransitionTally(),
	}, nil
}

// SetSink installs the sink receiving the agent's own decision events
// (today: PlacementExecuted after a successful migration). Wire the
// same chain the controller uses — journal plus Streamer.Emit — so
// placement executions reach the fleet flight recorder, where the
// engine looks for its verification evidence. Nil disables emission.
func (a *Agent) SetSink(s obs.Sink) {
	a.mu.Lock()
	a.sink = s
	a.mu.Unlock()
}

// EventSink returns the sink that accumulates this host's decision
// events for coordinator forwarding. Wire it into the controller's
// sink chain (obs.Multi) alongside any journal or trace file; without
// that wiring the agent simply reports no event summaries.
func (a *Agent) EventSink() obs.Sink { return a.tally }

// Do runs fn under the agent's lock — the mutual-exclusion contract
// httpstatus.Locked needs for concurrent /status scrapes.
func (a *Agent) Do(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fn()
}

// Enrolled reports whether the agent currently holds a coordinator
// registration.
func (a *Agent) Enrolled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.enrolled
}

// LastErr returns the most recent cluster-communication error (nil
// after a successful exchange). Local loop errors are returned by Tick
// itself, not stored here.
func (a *Agent) LastErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// ID returns the coordinator-assigned agent id ("" while unenrolled).
func (a *Agent) ID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

// Tick runs one agent period: the local controller tick first (its
// error is the loop's error), then cluster duties. Coordinator
// failures never propagate — they set LastErr and the agent keeps
// running its local dCat loop unchanged.
func (a *Agent) Tick(ctx context.Context) error {
	a.mu.Lock()
	err := a.local.Tick()
	ticks := a.local.Ticks()
	var snap []core.Status
	var totalWays int
	if err == nil && a.cfg.Client != nil {
		snap = a.local.Snapshot()
		totalWays = a.local.TotalWays()
	}
	a.mu.Unlock()
	if err != nil || a.cfg.Client == nil {
		return err
	}
	a.clusterDuties(ctx, ticks, snap, totalWays)
	return nil
}

// clusterDuties runs the network half of a tick, outside the lock.
func (a *Agent) clusterDuties(ctx context.Context, ticks int, snap []core.Status, totalWays int) {
	a.mu.Lock()
	enrolled := a.enrolled
	id := a.id
	a.mu.Unlock()

	if !enrolled {
		if !a.enroll(ctx, snap, totalWays) {
			return
		}
		a.mu.Lock()
		id = a.id
		a.mu.Unlock()
	}

	// One full report per period: it is also the coordinator's liveness
	// signal.
	a.report(ctx, id, ticks, snap)

	if a.cfg.Mover != nil {
		// Placement poll before the streamer flush, so an execution
		// event emitted this tick reaches the recorder this tick too.
		a.placementPoll(ctx, id, ticks)
	}

	if a.cfg.Streamer != nil {
		// Flight-recorder upload; failures stay inside the streamer
		// (its own backoff) except a 404, which means the coordinator
		// restarted and no longer knows this id — re-enroll next tick.
		if err := a.cfg.Streamer.Flush(ctx, id); errors.Is(err, ErrUnknownAgent) {
			a.noteFailure(err)
		}
	}
}

// placementPoll delivers queued directive acks, fetches pending
// directives, and executes new ones through the Mover. Execution runs
// under the agent's lock — a migration mutates the same host and
// controller state the local tick does.
func (a *Agent) placementPoll(ctx context.Context, id string, ticks int) {
	a.mu.Lock()
	acks := a.pendingAcks
	a.pendingAcks = nil
	trace := a.pendingTrace
	a.mu.Unlock()

	resp, err := a.cfg.Client.PlacementTraced(ctx, &PlacementRequest{
		Version: ProtocolVersion, AgentID: id, Acks: acks,
	}, trace)
	if err != nil {
		// The acks never arrived; requeue them ahead of anything a
		// concurrent execution added meanwhile. pendingTrace is
		// untouched, so the context rides the retry too.
		a.mu.Lock()
		a.pendingAcks = append(acks, a.pendingAcks...)
		a.mu.Unlock()
		a.noteFailure(err)
		return
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastErr = nil
	a.failures = 0
	if a.pendingTrace == trace {
		a.pendingTrace = obs.TraceContext{} // delivered with its acks
	}
	for _, d := range resp.Directives {
		if d.ID <= a.maxDirective {
			continue // already executed; the ack is queued or in flight
		}
		a.maxDirective = d.ID
		ack := placement.DirectiveAck{ID: d.ID, OK: true}
		if err := a.cfg.Mover.MigrateVM(d.Workload, d.ToSocket); err != nil {
			ack.OK = false
			ack.Detail = err.Error()
		} else {
			// The execution joins the directive's causality trace: a
			// fresh span under the engine's issue span, carried on the
			// event into the recorder and on the acking poll's
			// X-Dcat-Trace header back to the engine.
			var span uint64
			if d.TraceID != 0 {
				span = a.cfg.Trace.Next()
				a.pendingTrace = obs.TraceContext{TraceID: d.TraceID, SpanID: span}
			}
			if a.sink != nil {
				a.sink.Emit(obs.Event{
					Tick:     ticks,
					Kind:     obs.KindPlacementExecuted,
					Workload: d.Workload,
					Socket:   d.ToSocket,
					From:     fmt.Sprintf("socket %d", d.FromSocket),
					To:       fmt.Sprintf("socket %d", d.ToSocket),
					Reason:   d.Reason,
					TraceID:  d.TraceID,
					SpanID:   span,
					ParentID: d.SpanID,
				})
			}
		}
		a.pendingAcks = append(a.pendingAcks, ack)
	}
}

// enroll registers with the coordinator; it reports success.
func (a *Agent) enroll(ctx context.Context, snap []core.Status, totalWays int) bool {
	req := &EnrollRequest{
		Version:    ProtocolVersion,
		Agent:      a.cfg.Name,
		StatusAddr: a.cfg.StatusAddr,
		TotalWays:  totalWays,
	}
	for _, st := range snap {
		req.Workloads = append(req.Workloads, WorkloadSpec{
			Name: st.Name, BaselineWays: st.Baseline, Socket: st.Socket,
		})
	}
	resp, err := a.cfg.Client.Enroll(ctx, req)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.lastErr = err
		a.failures++
		return false
	}
	a.id = resp.AgentID
	a.enrolled = true
	a.lastErr = nil
	a.failures = 0
	return true
}

// report sends one period's statistics and applies returned hints.
func (a *Agent) report(ctx context.Context, id string, ticks int, snap []core.Status) {
	req := &ReportRequest{Version: ProtocolVersion, AgentID: id, Tick: ticks}
	for _, st := range snap {
		req.Workloads = append(req.Workloads, WorkloadReport{
			Name:         st.Name,
			Category:     st.State.String(),
			Ways:         st.Ways,
			BaselineWays: st.Baseline,
			IPC:          st.IPC,
			NormIPC:      st.NormIPC,
			MissRate:     st.MissRate,
			MAPI:         st.MAPI,
			Socket:       st.Socket,
			Policy:       st.Policy,
		})
	}
	transitions, phases := a.tally.Drain()
	if len(transitions) > 0 || phases > 0 {
		req.Events = &EventSummary{Transitions: transitions, PhaseChanges: phases}
	}
	resp, err := a.cfg.Client.Report(ctx, req)
	if err != nil {
		// The summary never made it: merge it back so the counts ride
		// the next successful report instead of vanishing.
		a.tally.Add(transitions, phases)
		a.noteFailure(err)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastErr = nil
	a.failures = 0
	a.applyHintsLocked(resp.Hints)
}

// noteFailure records a coordinator error. ErrUnknownAgent drops the
// enrollment so the next tick re-enrolls (the coordinator restarted);
// anything else just counts — the existing registration may still be
// good once the network heals.
func (a *Agent) noteFailure(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastErr = err
	a.failures++
	if errors.Is(err, ErrUnknownAgent) {
		a.enrolled = false
		a.id = ""
	}
}

// applyHintsLocked reconciles coordinator caps with the controller:
// new caps are installed, hints with MaxWays 0 (and workloads missing
// from the hint set) clear previously applied caps.
func (a *Agent) applyHintsLocked(hints []AllocationHint) {
	desired := make(map[string]int, len(hints))
	for _, h := range hints {
		if h.MaxWays > 0 {
			desired[h.Workload] = h.MaxWays
		}
	}
	for name := range a.caps {
		if _, keep := desired[name]; !keep {
			a.local.SetWayCap(name, 0)
			delete(a.caps, name)
		}
	}
	for name, ways := range desired {
		if a.caps[name] != ways && a.local.SetWayCap(name, ways) {
			a.caps[name] = ways
		}
	}
}
