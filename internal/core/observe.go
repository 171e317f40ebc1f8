package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// This file is the controller's observability surface: a decision-
// trace sink (obs.Sink) that receives one structured event per
// consequential decision, and a metrics registration hook that keeps
// Prometheus-style aggregates (tick latency, transition counts, pool
// size, churn) current every tick.
//
// Both are strictly optional and strictly additive: with no sink and
// no registry the controller behaves exactly as before, and with them
// the hot path performs no heap allocations — events are value structs
// whose strings are the constants below, and metric updates are
// atomics resolved outside the loop.

// Reasons attached to decision-trace events. Each is a constant so the
// emitting path allocates nothing; the structured fields of the event
// (old/new state, ways, values) carry the variable parts.
const (
	reasonIdle = "references below l1_ref_thr or llc_ref_thr: idle or not using the LLC, donate down to the minimum"

	reasonGuarantee = "IPC fell below the contracted baseline performance: taking donated ways back (§2.1 conflict-miss pathology)"

	reasonSettledHold = "settled for this phase: holding the proven allocation"

	reasonFits = "miss rate under llc_miss_rate_thr after growth: working set fits, preferred state reached"

	reasonMinimalDonor = "at the minimum allocation with a trivial miss rate: plain Donor"

	reasonShrinking = "trivial miss rate: returning one way per round until misses become non-trivial"

	reasonUncovered = "shrinking uncovered the working set: settling at the current allocation"

	reasonProbe = "non-trivial misses with untested headroom: probing with more cache (Unknown outranks Receiver)"

	reasonImproved = "the granted way improved IPC beyond ipc_imp_thr: confirmed Receiver"

	reasonStreamingProbe = "reached streaming_mult x baseline (or drained the pool) with no IPC improvement: cyclic access pattern"

	reasonStreamingDenied = "growth denied at the streaming threshold with no improvement: cyclic access pattern"

	reasonNoGain = "the last granted way added no measurable IPC: preferred allocation reached"

	reasonPhaseChange = "memory accesses per instruction shifted beyond the phase threshold: reclaiming the contracted baseline"

	reasonBaselineMeasured = "clean interval at the contracted allocation: phase baseline IPC measured"

	reasonTableHit = "recurring phase matched a saved performance table: jumping to the remembered allocation"

	reasonWayGrant = "allocator granted growth from the free pool"

	reasonWayReclaim = "allocator lowered the allocation"

	reasonPolicyAdopt = "sustained phase change matched a remembered baseline: adopting it without the reclaim dip"

	reasonPolicyPreGrant = "sequence model predicts the next phase wants more cache: pre-granting from the free pool"

	reasonPolicyPredictHit = "phase transition landed on the sequence model's prediction"

	reasonPolicyPredictMiss = "phase transition contradicted the sequence model's confident prediction"

	reasonPolicyCluster = "curve-shape clustering reassigned the workload's cluster"
)

// coreMetrics holds the controller's registered metrics. Transition
// counters are resolved per from/to pair on first use and cached in
// the matrix, so steady-state updates touch only an atomic.
type coreMetrics struct {
	tickSeconds  *telemetry.Histogram
	transVec     *telemetry.LabeledCounter
	transitions  [NumStates][NumStates]*telemetry.Counter
	phaseChanges *telemetry.Counter
	poolFree     *telemetry.Gauge
	churn        *telemetry.Counter
}

// SetSink installs the decision-trace sink (nil disables tracing).
// Install it before the first Tick; the controller emits events
// synchronously from its loop goroutine, each stamped with the socket
// of the loop that decided it.
func (c *Controller) SetSink(s obs.Sink) { c.sink = s }

// RegisterMetrics registers every loop's metrics on reg and keeps
// them updated from every subsequent Tick:
//
//	dcat_tick_seconds                  histogram — full tick latency
//	dcat_state_transitions_total       counter{from,to}
//	dcat_phase_changes_total           counter
//	dcat_pool_free_ways                gauge — unallocated ways
//	dcat_allocation_churn_ways_total   counter — |Δways| summed
//
// On a multi-socket host every family carries a socket="N" constant
// label, so the loops of every LLC sit side by side on one registry; a
// set of one loop has nothing to tell apart and exports unlabelled.
// Call it once per controller per registry (metric names collide on a
// second registration, by design).
func (c *Controller) RegisterMetrics(reg *telemetry.Registry) {
	for _, l := range c.loops {
		var constLabels []string
		if len(c.loops) > 1 {
			constLabels = []string{"socket", strconv.Itoa(l.socket)}
		}
		l.metrics = newCoreMetrics(reg, constLabels)
	}
}

// newCoreMetrics registers one loop's metric families, optionally under
// a set of constant labels.
func newCoreMetrics(reg *telemetry.Registry, constLabels []string) *coreMetrics {
	return &coreMetrics{
		tickSeconds: reg.Histogram("dcat_tick_seconds",
			"Controller tick latency: sample, detect, categorize, allocate, apply.", nil, constLabels...),
		transVec: reg.LabeledCounterConst("dcat_state_transitions_total",
			"Workload category transitions (§3.4 state machine).", constLabels, "from", "to"),
		phaseChanges: reg.Counter("dcat_phase_changes_total",
			"Phase changes detected across all workloads.", constLabels...),
		poolFree: reg.Gauge("dcat_pool_free_ways",
			"LLC ways left unallocated after the last tick.", constLabels...),
		churn: reg.Counter("dcat_allocation_churn_ways_total",
			"Total ways moved between workloads (sum of |delta| per tick).", constLabels...),
	}
}

// emit stamps an event with the tick, this loop's socket and the
// workload, and hands it to the sink; without a sink it does nothing.
func (l *loop) emit(w *wstate, e obs.Event) {
	if l.c.sink == nil {
		return
	}
	e.Tick, e.Socket, e.Workload = l.c.ticks, l.socket, w.name
	l.c.sink.Emit(e)
}

// setState performs a category transition, emitting a trace event and
// counting it; same-state calls are no-ops.
func (l *loop) setState(w *wstate, s State, reason string) {
	if w.state == s {
		return
	}
	l.emit(w, obs.Event{
		Kind:    obs.KindStateTransition,
		From:    w.state.String(),
		To:      s.String(),
		OldWays: w.ways,
		NewWays: w.ways,
		Reason:  reason,
	})
	if m := l.metrics; m != nil {
		ctr := m.transitions[w.state][s]
		if ctr == nil {
			ctr = m.transVec.With(w.state.String(), s.String())
			m.transitions[w.state][s] = ctr
		}
		ctr.Inc()
	}
	w.state = s
}

// emitWayChange records the allocator's verdict for one workload when
// it differs from the current allocation. From carries the category
// that earned the change, Policy the engine that decided it.
func (l *loop) emitWayChange(w *wstate, newWays int) {
	if newWays == w.ways {
		return
	}
	kind, reason := obs.KindWayGrant, reasonWayGrant
	if newWays < w.ways {
		kind, reason = obs.KindWayReclaim, reasonWayReclaim
	}
	l.emit(w, obs.Event{
		Kind:    kind,
		From:    w.state.String(),
		OldWays: w.ways,
		NewWays: newWays,
		Reason:  reason,
		Policy:  l.policy.Name(),
	})
}

// emitNotes translates the policy's side-decisions for this round into
// decision-trace events.
func (l *loop) emitNotes() {
	for _, n := range l.grants.Notes {
		if n.Workload < 0 || n.Workload >= len(l.order) {
			continue
		}
		w := l.order[n.Workload]
		var kind obs.Kind
		var reason string
		switch n.Kind {
		case policy.NotePreGrant:
			kind, reason = obs.KindPolicyPreGrant, reasonPolicyPreGrant
		case policy.NotePredictHit:
			kind, reason = obs.KindPolicyPredictHit, reasonPolicyPredictHit
		case policy.NotePredictMiss:
			kind, reason = obs.KindPolicyPredictMiss, reasonPolicyPredictMiss
		case policy.NoteCluster:
			kind, reason = obs.KindPolicyCluster, reasonPolicyCluster
		default:
			continue
		}
		l.emit(w, obs.Event{
			Kind:    kind,
			To:      n.Label,
			OldWays: w.ways,
			NewWays: n.Ways,
			NewVal:  n.Value,
			Reason:  reason,
			Policy:  l.policy.Name(),
		})
	}
}
