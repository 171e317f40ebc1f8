package placement

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/obs"
)

// Reasons attached to placement decision-trace events. Constants, like
// the controller's, so emission allocates only when a directive is
// actually born (rare by construction).
const (
	reasonPressure = "source LLC pool exhausted while a sibling socket has headroom: moving the hungriest workload"

	reasonPressureEvidence = "pressure evidence: source free ways at or below threshold, destination has headroom"

	reasonVerified = "execution evidence found in the flight recorder: move settled"

	reasonRollback = "no execution evidence within the verification window: issuing the reverse move"

	reasonAckFailed = "agent reported the migration failed: move abandoned, workload cooling down"
)

// Config tunes the engine. The zero value takes every default.
type Config struct {
	// PressureFreeWays: a socket whose free pool is at or below this
	// many ways counts as exhausted (default 1).
	PressureFreeWays int
	// MinHeadroom: the destination must have the candidate's contracted
	// baseline plus this many ways free (default 2), so the arrival can
	// be installed without squeezing the destination's tenants and
	// still has room to grow.
	MinHeadroom int
	// Cooldown is how many evaluations a workload sits out after any
	// finished move — settled, failed, or rolled back (default 5).
	Cooldown int
	// VerifyTimeout is how many evaluations an unsettled directive may
	// age before the engine gives up and rolls it back (default 5).
	VerifyTimeout int
	// MaxInflight bounds unsettled directives across the fleet
	// (default 1): one move at a time keeps cause and effect legible in
	// the recorder.
	MaxInflight int
	// Recorder, when set, is where the engine looks for
	// PlacementExecuted evidence before settling a move. Without it an
	// OK ack settles directly (experiments driving the engine in
	// process have no recorder between them and the truth).
	Recorder *flightrec.Store
	// Trace, when set, births one causality trace per proposed move:
	// a PlacementPressure root span, a PlacementIssued child carried on
	// the directive, and Verified/RolledBack spans parented under the
	// agent's execution evidence. Nil keeps the engine byte-identical
	// to the untraced build (directives and events carry zero IDs).
	Trace *obs.IDGen
}

func (c Config) fill() Config {
	if c.PressureFreeWays == 0 {
		c.PressureFreeWays = 1
	}
	if c.MinHeadroom == 0 {
		c.MinHeadroom = 2
	}
	if c.Cooldown == 0 {
		c.Cooldown = 5
	}
	if c.VerifyTimeout == 0 {
		c.VerifyTimeout = 5
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 1
	}
	return c
}

// movePhase is an inflight directive's lifecycle position.
type movePhase int

const (
	phaseIssued movePhase = iota
	phaseVerifying
)

func (p movePhase) String() string {
	if p == phaseVerifying {
		return "verifying"
	}
	return "issued"
}

// move is one directive's engine-side record.
type move struct {
	d        MoveDirective
	phase    movePhase
	issuedAt uint64 // evaluation counter at issue
	rollback bool
	// execSpan is the SpanID of the agent's PlacementExecuted event,
	// learned from the X-Dcat-Trace header on the acking poll or from
	// the recorder evidence — the parent of the settlement span.
	execSpan uint64
}

// Engine scores fleet views and owns the directive lifecycle. All
// methods are safe for concurrent use (the coordinator calls them from
// request handlers).
type Engine struct {
	cfg Config

	mu       sync.Mutex
	sink     obs.Sink
	evals    uint64
	nextID   uint64
	inflight []*move
	// cooldown maps "agent/workload" to the evaluation at which it may
	// move again.
	cooldown map[string]uint64
	// reclaims accumulates WayReclaim events per "agent/socket" seen in
	// the recorder since start — the hotness tiebreak.
	reclaims  map[string]uint64
	recCursor uint64 // last recorder record ID scanned

	issued, executed, settled, rolledBack, failed uint64
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	return &Engine{
		cfg:      cfg.fill(),
		nextID:   1,
		cooldown: make(map[string]uint64),
		reclaims: make(map[string]uint64),
	}
}

// SetSink installs the decision-trace sink placement_* events go to
// (nil disables them). The coordinator points it at the same journal
// and recorder chain its own events use.
func (e *Engine) SetSink(s obs.Sink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sink = s
}

func key(agent, workload string) string { return agent + "/" + workload }

// spanLocked draws a fresh span ID, or 0 when tracing is off.
func (e *Engine) spanLocked() uint64 {
	if e.cfg.Trace == nil {
		return 0
	}
	return e.cfg.Trace.Next()
}

// parentSpan is the span a move's terminal event (Verified/RolledBack)
// hangs under: the agent's execution span when known, else the issue
// span.
func (m *move) parentSpan() uint64 {
	if m.execSpan != 0 {
		return m.execSpan
	}
	return m.d.SpanID
}

// Evaluate runs one engine pass over the fleet: scan the recorder for
// execution evidence and reclaim pressure, settle or roll back
// inflight directives, then score the views and issue new directives
// up to MaxInflight. It returns the directives issued by this pass
// (already queued for their agents' polls; direct drivers may execute
// them instead). Agents are evaluated in name order and sockets in ID
// order, so equal inputs always produce equal decisions.
func (e *Engine) Evaluate(views []AgentView) []MoveDirective {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evals++
	e.scanRecorderLocked()
	e.expireLocked()

	issued := make([]MoveDirective, 0, 1)
	sorted := append([]AgentView(nil), views...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Agent < sorted[j].Agent })
	for _, v := range sorted {
		if len(e.inflight) >= e.cfg.MaxInflight {
			break
		}
		if d, ok := e.scoreLocked(v); ok {
			e.inflight = append(e.inflight, &move{d: d, issuedAt: e.evals})
			e.issued++
			// The issue span hangs under the trace's pressure root span
			// (whose SpanID is the TraceID itself).
			e.emitLocked(obs.KindPlacementIssued, d, d.Reason, d.SpanID, d.TraceID)
			issued = append(issued, d)
		}
	}
	return issued
}

// scanRecorderLocked pulls new records once per pass: WayReclaim
// counts feed the hotness tiebreak, PlacementExecuted records settle
// acked directives.
func (e *Engine) scanRecorderLocked() {
	if e.cfg.Recorder == nil {
		return
	}
	recs, err := e.cfg.Recorder.Select(flightrec.Query{AfterID: e.recCursor})
	if err != nil || len(recs) == 0 {
		return
	}
	for _, r := range recs {
		if r.ID > e.recCursor {
			e.recCursor = r.ID
		}
		switch r.Event.Kind {
		case obs.KindWayReclaim:
			e.reclaims[fmt.Sprintf("%s/%d", r.Agent, r.Event.Socket)]++
		case obs.KindPlacementExecuted:
			for i, m := range e.inflight {
				if m.d.Agent == r.Agent && m.d.Workload == r.Event.Workload && m.d.ToSocket == r.Event.Socket {
					// Evidence can outrun the ack: the agent streams the
					// execution event on the tick it moves the workload,
					// but the ack rides the next poll. The record is proof
					// either way — settle now; the late ack for a directive
					// no longer inflight is ignored.
					if r.Event.TraceID == m.d.TraceID && r.Event.SpanID != 0 {
						m.execSpan = r.Event.SpanID
					}
					if m.phase == phaseIssued {
						e.executed++
					}
					e.settleLocked(i)
					break
				}
			}
		}
	}
}

// settleLocked finishes inflight[i] successfully.
func (e *Engine) settleLocked(i int) {
	m := e.inflight[i]
	e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
	e.settled++
	e.cooldown[key(m.d.Agent, m.d.Workload)] = e.evals + uint64(e.cfg.Cooldown)
	e.emitLocked(obs.KindPlacementVerified, m.d, reasonVerified, e.spanLocked(), m.parentSpan())
}

// expireLocked rolls back directives that aged past the verification
// window without settling. A rollback directive that itself expires is
// abandoned (never rolled back again), leaving only the cooldown.
func (e *Engine) expireLocked() {
	kept := e.inflight[:0]
	for _, m := range e.inflight {
		if e.evals-m.issuedAt <= uint64(e.cfg.VerifyTimeout) {
			kept = append(kept, m)
			continue
		}
		e.rolledBack++
		e.cooldown[key(m.d.Agent, m.d.Workload)] = e.evals + uint64(e.cfg.Cooldown)
		rbSpan := e.spanLocked()
		e.emitLocked(obs.KindPlacementRolledBack, m.d, reasonRollback, rbSpan, m.parentSpan())
		if m.rollback {
			continue
		}
		// The reverse directive stays inside the original trace: its
		// issue span hangs under the rollback decision.
		rev := MoveDirective{
			ID:         e.nextID,
			Agent:      m.d.Agent,
			Workload:   m.d.Workload,
			FromSocket: m.d.ToSocket,
			ToSocket:   m.d.FromSocket,
			Reason:     reasonRollback,
			TraceID:    m.d.TraceID,
			SpanID:     e.spanLocked(),
		}
		e.nextID++
		kept = append(kept, &move{d: rev, issuedAt: e.evals, rollback: true})
		e.issued++
		e.emitLocked(obs.KindPlacementIssued, rev, reasonRollback, rev.SpanID, rbSpan)
	}
	e.inflight = kept
}

// socketLoad aggregates one socket's view.
type socketLoad struct {
	socket    int
	allocated int
	workloads []WorkloadView
}

// scoreLocked scores one agent's sockets and proposes at most one
// move: from the most exhausted socket (least free ways; recent
// WayReclaim rate breaks ties) to the one with the most headroom. A
// single-socket agent — or any agent whose pressure spread does not
// clear the thresholds — produces nothing, which is what keeps the
// engine inert on the hosts the paper's single-LLC experiments run on.
func (e *Engine) scoreLocked(v AgentView) (MoveDirective, bool) {
	bySocket := make(map[int]*socketLoad)
	var sockets []int
	for _, w := range v.Workloads {
		sl := bySocket[w.Socket]
		if sl == nil {
			sl = &socketLoad{socket: w.Socket}
			bySocket[w.Socket] = sl
			sockets = append(sockets, w.Socket)
		}
		sl.allocated += w.Ways
		sl.workloads = append(sl.workloads, w)
	}
	if len(sockets) < 2 {
		return MoveDirective{}, false
	}
	sort.Ints(sockets)
	free := func(sl *socketLoad) int { return v.TotalWays - sl.allocated }
	heat := func(sl *socketLoad) uint64 {
		return e.reclaims[fmt.Sprintf("%s/%d", v.Agent, sl.socket)]
	}

	// src: least free ways, recent WayReclaim pressure breaking ties,
	// lowest socket ID after that. dst: most free ways among the rest,
	// lowest socket ID on ties.
	var src *socketLoad
	for _, s := range sockets {
		sl := bySocket[s]
		if src == nil || free(sl) < free(src) ||
			(free(sl) == free(src) && heat(sl) > heat(src)) {
			src = sl
		}
	}
	var dst *socketLoad
	for _, s := range sockets {
		sl := bySocket[s]
		if sl == src {
			continue
		}
		if dst == nil || free(sl) > free(dst) {
			dst = sl
		}
	}
	if src == nil || dst == nil {
		return MoveDirective{}, false
	}
	if free(src) > e.cfg.PressureFreeWays {
		return MoveDirective{}, false
	}
	if len(src.workloads) < 2 {
		// The controller must keep at least one target per socket.
		return MoveDirective{}, false
	}
	// The hungriest movable workload: actively cache-hungry categories
	// only (a settled Keeper or Donor is happy where it is; Streaming
	// gains nothing from a bigger LLC), largest allocation first, name
	// order breaking ties.
	var cand *WorkloadView
	for i := range src.workloads {
		w := &src.workloads[i]
		if w.Category != "Receiver" && w.Category != "Unknown" {
			continue
		}
		if until, cooling := e.cooldown[key(v.Agent, w.Name)]; cooling && e.evals < until {
			continue
		}
		if e.inflightFor(v.Agent, w.Name) {
			continue
		}
		if cand == nil || w.Ways > cand.Ways || (w.Ways == cand.Ways && w.Name < cand.Name) {
			cand = w
		}
	}
	if cand == nil {
		return MoveDirective{}, false
	}
	if free(dst) < cand.Baseline+e.cfg.MinHeadroom || free(dst) <= free(src) {
		return MoveDirective{}, false
	}
	d := MoveDirective{
		ID:         e.nextID,
		Agent:      v.Agent,
		Workload:   cand.Name,
		FromSocket: src.socket,
		ToSocket:   dst.socket,
		Reason:     reasonPressure,
	}
	e.nextID++
	if e.cfg.Trace != nil {
		// A trace is born here: the pressure observation is the root
		// span (SpanID == TraceID), the directive carries the issue
		// span. Emitting the evidence before the Issued event keeps the
		// recorder's per-hop timestamps in causal order.
		d.TraceID = e.cfg.Trace.Next()
		d.SpanID = e.cfg.Trace.Next()
		if e.sink != nil {
			e.sink.Emit(obs.Event{
				Tick:     int(e.evals),
				Kind:     obs.KindPlacementPressure,
				Workload: cand.Name,
				Socket:   src.socket,
				From:     fmt.Sprintf("socket %d", src.socket),
				To:       fmt.Sprintf("socket %d", dst.socket),
				OldWays:  free(src),
				NewWays:  free(dst),
				Reason:   reasonPressureEvidence,
				TraceID:  d.TraceID,
				SpanID:   d.TraceID,
			})
		}
	}
	return d, true
}

func (e *Engine) inflightFor(agent, workload string) bool {
	for _, m := range e.inflight {
		if m.d.Agent == agent && m.d.Workload == workload {
			return true
		}
	}
	return false
}

// Directives returns the directives currently awaiting execution by an
// agent — the payload of its /v1/placement poll. Returning a directive
// does not consume it: it stays inflight (and keeps being served)
// until acked or expired, so a poll lost on the wire costs nothing.
func (e *Engine) Directives(agent string) []MoveDirective {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []MoveDirective
	for _, m := range e.inflight {
		if m.phase == phaseIssued && m.d.Agent == agent {
			out = append(out, m.d)
		}
	}
	return out
}

// Ack records an agent's execution verdicts. An OK ack advances the
// directive to verification (or settles it outright when no recorder
// is wired); a failed ack abandons the move and cools the workload
// down. Unknown IDs are ignored — re-acks after an engine restart or a
// duplicate poll are harmless. trace is the X-Dcat-Trace context the
// agent sent with the poll (zero when absent): it names the execution
// span of the acked move, so settlement parents correctly even before
// — or without — the recorder evidence arriving.
func (e *Engine) Ack(agent string, acks []DirectiveAck, trace obs.TraceContext) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !trace.Zero() {
		for _, m := range e.inflight {
			if m.d.Agent == agent && m.d.TraceID == trace.TraceID && m.execSpan == 0 {
				m.execSpan = trace.SpanID
			}
		}
	}
	for _, a := range acks {
		for i, m := range e.inflight {
			if m.d.ID != a.ID || m.d.Agent != agent || m.phase != phaseIssued {
				continue
			}
			if !a.OK {
				e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
				e.failed++
				e.cooldown[key(agent, m.d.Workload)] = e.evals + uint64(e.cfg.Cooldown)
				e.emitLocked(obs.KindPlacementRolledBack, m.d, reasonAckFailed, e.spanLocked(), m.d.SpanID)
				break
			}
			e.executed++
			if e.cfg.Recorder == nil {
				e.settleLocked(i)
			} else {
				m.phase = phaseVerifying
			}
			break
		}
	}
}

// RunLocal drives one placement round for a host in this process,
// exactly as the coordinator and an agent drive it over the protocol,
// minus the HTTP leg: m's snapshot becomes the agent's view, the
// engine evaluates it, each pending directive runs through migrate,
// and every outcome is acked. It returns the workloads that moved, in
// directive order.
func (e *Engine) RunLocal(agent string, m *core.Controller, migrate func(workload string, toSocket int) error) []string {
	view := AgentView{Agent: agent, TotalWays: m.TotalWays()}
	for _, st := range m.Snapshot() {
		view.Workloads = append(view.Workloads, WorkloadView{
			Name:     st.Name,
			Socket:   st.Socket,
			Category: st.State.String(),
			Ways:     st.Ways,
			Baseline: st.Baseline,
		})
	}
	e.Evaluate([]AgentView{view})
	var moved []string
	for _, d := range e.Directives(agent) {
		ack := DirectiveAck{ID: d.ID, OK: true}
		if err := migrate(d.Workload, d.ToSocket); err != nil {
			ack.OK = false
			ack.Detail = err.Error()
		} else {
			moved = append(moved, d.Workload)
		}
		e.Ack(agent, []DirectiveAck{ack}, obs.TraceContext{})
	}
	return moved
}

// State reports the engine's counters, inflight directives, and active
// cooldowns.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := State{
		Evaluations: e.evals,
		Issued:      e.issued,
		Executed:    e.executed,
		Settled:     e.settled,
		RolledBack:  e.rolledBack,
		Failed:      e.failed,
	}
	for _, m := range e.inflight {
		st.Inflight = append(st.Inflight, DirectiveStatus{
			MoveDirective: m.d,
			Phase:         m.phase.String(),
			Age:           int(e.evals - m.issuedAt),
			Rollback:      m.rollback,
		})
	}
	for k, until := range e.cooldown {
		if until > e.evals {
			if st.Cooldowns == nil {
				st.Cooldowns = make(map[string]int)
			}
			st.Cooldowns[k] = int(until - e.evals)
		}
	}
	return st
}

// emitLocked sends one placement event: Workload is the moved
// workload, Socket the source, From/To the socket pair as strings, and
// Tick the engine's evaluation counter (the engine has no controller
// tick of its own). span/parent place the event in the directive's
// causality trace (both 0 when tracing is off).
func (e *Engine) emitLocked(kind obs.Kind, d MoveDirective, reason string, span, parent uint64) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(obs.Event{
		Tick:     int(e.evals),
		Kind:     kind,
		Workload: d.Workload,
		Socket:   d.FromSocket,
		From:     fmt.Sprintf("socket %d", d.FromSocket),
		To:       fmt.Sprintf("socket %d", d.ToSocket),
		NewWays:  d.ToSocket,
		Reason:   reason,
		TraceID:  d.TraceID,
		SpanID:   span,
		ParentID: parent,
	})
}
