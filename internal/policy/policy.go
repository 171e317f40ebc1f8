// Package policy holds the pluggable allocation policies of the dCat
// reproduction: the engines that turn one tick's categorized workload
// view into a way allocation (the paper's step 5, §3.5).
//
// The controller owns steps 1–4 of the loop — statistics, phase
// detection, categorization, and the baseline guarantee — and hands a
// read-only View of the round to an AllocationPolicy, which fills a
// Grants with the proposed per-workload way counts, Reclaim sustains
// and decision notes. The controller then enforces the non-negotiable
// invariants (every workload ≥ 1 way, the sum within the socket's
// associativity, Reclaim pinned to its contracted baseline unless the
// policy explicitly sustains it) before applying the allocation to CAT,
// and derives from those guarded grants the two facts the next round's
// categorizer reads (growth denied, pool empty): no policy reports
// them.
//
// Three engines ship here:
//
//   - Reactive: the paper's §3.5 allocator, preserved decision-for-
//     decision from the historical built-in (the default).
//   - Predictive: Reactive plus a per-workload phase-transition
//     sequence model (bounded n-gram) that recognizes recurring phase
//     transitions and sustains-or-pre-grants the remembered preferred
//     allocation instead of paying the reclaim dip (cf. learning-based
//     dynamic cache management, Choi et al.).
//   - LFOC: clusters tenants by the shape of their learned miss/IPC
//     curves into streaming / cache-sensitive / squashed buckets and
//     partitions ways per cluster (cf. LFOC's fairness-oriented
//     clustering).
//
// The heracles and ucp packages implement the same interface for the
// two comparison baselines, so every engine runs under one harness.
package policy

import (
	"fmt"
	"sort"
)

// Category is a workload's §3.4 state as the policy layer sees it. The
// values mirror core.State one for one (core asserts the mapping).
type Category int

const (
	Keeper Category = iota
	Donor
	Receiver
	Streaming
	Unknown
	Reclaim
)

// String names the category as the paper does.
func (c Category) String() string {
	switch c {
	case Keeper:
		return "Keeper"
	case Donor:
		return "Donor"
	case Receiver:
		return "Receiver"
	case Streaming:
		return "Streaming"
	case Unknown:
		return "Unknown"
	case Reclaim:
		return "Reclaim"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// WorkloadView is one workload's read-only slice of the controller's
// state for this round. Curve points at the controller's live table —
// policies must not mutate it. Desire is scratch: policies may clamp it
// in place while resolving the round.
type WorkloadView struct {
	Name     string
	Category Category
	// Ways is the allocation active during the just-measured interval.
	Ways     int
	Baseline int
	// Desire is the way count categorization asked for this round.
	Desire int
	// CapWays, when > 0, is the advisory external cap (never cuts into
	// the baseline). The controller has already clamped Desire by it.
	CapWays int
	// Settled marks a terminal category for this phase.
	Settled bool
	// JumpTo, when > 0, is a pending performance-table reuse target.
	JumpTo int
	// Graced reports an active post-arrival classification grace:
	// policies must not base decisions (pre-grants, streaming-style
	// demotions) on behaviour observed during the cold-cache refill.
	Graced bool
	// BaselineIPC is the measured IPC at the contracted allocation for
	// the current phase (0 until measured).
	BaselineIPC float64
	// IPC is this interval's measured IPC.
	IPC float64
	// PhaseKey identifies the current phase (an opaque bucket of the
	// memory-accesses-per-instruction level). Recurring phases map to
	// recurring keys — the signal sequence models learn from.
	PhaseKey int64
	// Curve is the live ways → normalized-IPC performance table of the
	// current phase (read-only; may be sparse or empty).
	Curve *Curve
}

// View is the controller's read-only round state handed to Propose.
type View struct {
	// Tick is the controller period being resolved.
	Tick int
	// TotalWays is the socket's LLC associativity.
	TotalWays int
	// MaxPerformance reports the §3.5 table-driven redistribution mode
	// (core.MaxPerformance); MaxFairness otherwise.
	MaxPerformance bool
	// GrowthStep and IPCImpThr are the controller thresholds policies
	// need for table-driven planning.
	GrowthStep int
	IPCImpThr  float64
	// Workloads is the per-workload state, in the controller's stable
	// target order.
	Workloads []WorkloadView
}

// NoteKind classifies a policy side-decision surfaced through Grants.
type NoteKind int

const (
	// NotePreGrant: the policy granted ways ahead of a predicted phase.
	NotePreGrant NoteKind = iota
	// NotePredictHit: a phase transition landed on the model's
	// prediction; the allocation was sustained instead of reclaimed.
	NotePredictHit
	// NotePredictMiss: the model made a confident prediction and the
	// workload transitioned elsewhere.
	NotePredictMiss
	// NoteCluster: a workload's LFOC cluster assignment changed.
	NoteCluster
)

// Note is one policy side-decision, translated by the controller into
// a policy_* decision-trace event.
type Note struct {
	// Workload indexes View.Workloads.
	Workload int
	Kind     NoteKind
	// Ways is the target allocation where relevant.
	Ways int
	// Value carries the prediction confidence (or other scalar).
	Value float64
	// Label carries the predicted phase or cluster name.
	Label string
}

// Grants is a policy's resolved allocation for one round. The slices
// are parallel to View.Workloads; the controller reuses one Grants
// across ticks, so Propose must start from Reset.
type Grants struct {
	// Ways is the proposed allocation per workload.
	Ways []int
	// Sustain marks Reclaim workloads the policy deliberately holds
	// away from their baseline (predictive sustain-and-adopt). Without
	// it the controller pins every Reclaim to its contracted baseline.
	Sustain []bool
	// Notes carries policy side-decisions for the decision trace.
	Notes []Note
}

// Reset prepares the Grants for n workloads, reusing capacity.
func (g *Grants) Reset(n int) {
	if cap(g.Ways) < n {
		g.Ways = make([]int, n)
		g.Sustain = make([]bool, n)
	}
	g.Ways = g.Ways[:n]
	g.Sustain = g.Sustain[:n]
	for i := 0; i < n; i++ {
		g.Ways[i] = 0
		g.Sustain[i] = false
	}
	g.Notes = g.Notes[:0]
}

// EvenSplit fills ways with an even division of total, earlier entries
// taking the remainder and every entry getting at least one way — the
// fallback of the engines that own the whole allocation.
func EvenSplit(ways []int, total int) {
	n := len(ways)
	if n == 0 {
		return
	}
	each, extra := total/n, total%n
	for i := range ways {
		w := each
		if extra > 0 {
			w++
			extra--
		}
		if w < 1 {
			w = 1
		}
		ways[i] = w
	}
}

// AllocationPolicy resolves one round's desires into way grants.
// Propose is called once per controller tick, synchronously, with a
// View built in target order; implementations fill g and may keep
// internal per-workload state keyed by name.
type AllocationPolicy interface {
	// Name is the policy's stable identifier ("reactive", ...); it
	// labels telemetry and selects the policy in configs and studies.
	Name() string
	Propose(v *View, g *Grants)
}

// Stateful is implemented by policies with per-workload learned state
// that should travel with live migrations. ExportModel may return nil
// (nothing learned); ImportModel with nil is a no-op; DropModel
// releases a departed workload's state.
type Stateful interface {
	ExportModel(workload string) *ModelState
	ImportModel(workload string, st *ModelState)
	DropModel(workload string)
}

// Independent is implemented by policies that own the whole allocation
// (the heracles/ucp comparison engines): the controller skips the
// Reclaim-to-baseline pinning for them, since their allocations do not
// follow the §3.4 category contract. The sum and ≥1-way invariants are
// still enforced.
type Independent interface {
	IndependentAllocator() bool
}

// ModelState is a workload's portable sequence-model state: the phase
// transition counts and the per-phase settled preferred ways. It is
// exported by RemoveTarget and re-imported by AddTarget so a predictive
// policy survives live migration.
type ModelState struct {
	// Prev is the last phase key observed (meaningful when PrevOK).
	Prev   int64
	PrevOK bool
	// Transitions counts observed from→to phase transitions.
	Transitions map[int64]map[int64]int
	// Pref is the settled preferred way count last seen per phase.
	Pref map[int64]int
}

// Clone deep-copies the model state.
func (m *ModelState) Clone() *ModelState {
	if m == nil {
		return nil
	}
	c := &ModelState{Prev: m.Prev, PrevOK: m.PrevOK}
	if m.Transitions != nil {
		c.Transitions = make(map[int64]map[int64]int, len(m.Transitions))
		for from, tos := range m.Transitions {
			inner := make(map[int64]int, len(tos))
			for to, n := range tos {
				inner[to] = n
			}
			c.Transitions[from] = inner
		}
	}
	if m.Pref != nil {
		c.Pref = make(map[int64]int, len(m.Pref))
		for k, v := range m.Pref {
			c.Pref[k] = v
		}
	}
	return c
}

// New resolves a policy name to a factory. The empty name selects
// reactive — the paper's allocator and the default everywhere.
func New(name string) (func() AllocationPolicy, error) {
	switch name {
	case "", "reactive":
		return func() AllocationPolicy { return NewReactive() }, nil
	case "predictive":
		return func() AllocationPolicy { return NewPredictive(DefaultPredictiveConfig()) }, nil
	case "lfoc":
		return func() AllocationPolicy { return NewLFOC() }, nil
	default:
		return nil, fmt.Errorf("policy: unknown allocation policy %q (known: %v)", name, Names())
	}
}

// Known reports whether name resolves to a built-in policy.
func Known(name string) bool {
	_, err := New(name)
	return err == nil
}

// Names lists the built-in policy names, sorted.
func Names() []string {
	n := []string{"reactive", "predictive", "lfoc"}
	sort.Strings(n)
	return n
}
