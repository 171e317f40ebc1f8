package core

import (
	"fmt"

	"repro/internal/policy"
)

// This file is the controller's state-transfer API: the piece of the
// placement story that makes live migration cheap. A dCat loop learns a
// workload's behaviour over many intervals — its phase baseline IPC,
// its per-phase ways → normalized-IPC tables, its §3.4 category — and
// losing that on a cross-socket move would force the destination loop
// to re-learn from scratch, exactly the dip the §3.5 performance tables
// exist to avoid. RemoveTarget exports the learned state, AddTarget
// imports it, and MultiController.Migrate composes the two so a
// workload steps from one socket's loop to another's carrying its
// history along.

// WorkloadState is one workload's portable controller state, exported
// by RemoveTarget and consumed by AddTarget on the destination loop.
// The phase-history tables travel in unexported fields (they are keyed
// by the controller's internal phase buckets); a zero WorkloadState
// imports as a fresh workload.
type WorkloadState struct {
	Name string
	// Cores the workload held when exported — what a rollback needs to
	// restore it on the source controller.
	Cores        []int
	BaselineWays int
	// Ways is the allocation held at export time.
	Ways        int
	State       State
	Settled     bool
	BaselineIPC float64
	// PhaseMAPI is the memory-accesses-per-instruction level of the
	// phase running at export; the destination's detector resets to it.
	PhaseMAPI float64
	// Table is the live ways → normalized-IPC table of that phase.
	Table PerfTable
	// PolicyModel is the allocation policy's learned per-workload state
	// (nil when the policy keeps none, or has learned nothing yet). It
	// travels independently of the settledness gate below: transition
	// counts are facts about the workload's phase behaviour, valid on
	// any socket.
	PolicyModel *policy.ModelState

	phaseInit bool
	history   map[phaseKey]PerfTable
	histIPC   map[phaseKey]float64
}

// RemoveTarget stops managing a workload: its learned state is exported
// and returned, its CLOS group is removed, and its ways return to the
// free pool (flushed by the manager). The controller must keep at least
// one target. Host-side teardown (cores, the interval loop) is the
// caller's: see host.RemoveVM.
func (c *Controller) RemoveTarget(name string) (WorkloadState, error) {
	w, ok := c.ws[name]
	if !ok {
		return WorkloadState{}, fmt.Errorf("core: no target %q", name)
	}
	if len(c.order) == 1 {
		return WorkloadState{}, fmt.Errorf("core: cannot remove the last target %q", name)
	}
	c.saveTable(w)
	hist := make(map[phaseKey]PerfTable, len(w.history))
	for k, t := range w.history {
		hist[k] = t.Clone()
	}
	histIPC := make(map[phaseKey]float64, len(w.histIPC))
	for k, v := range w.histIPC {
		histIPC[k] = v
	}
	st := WorkloadState{
		Name:         w.name,
		Cores:        append([]int(nil), w.cores...),
		BaselineWays: w.baseline,
		Ways:         w.ways,
		State:        w.state,
		Settled:      w.settled,
		BaselineIPC:  w.baselineIPC,
		PhaseMAPI:    w.phaseMAPI,
		Table:        w.table.Clone(),
		phaseInit:    w.phaseInit,
		history:      hist,
		histIPC:      histIPC,
	}
	if sp, ok := c.policy.(policy.Stateful); ok {
		st.PolicyModel = sp.ExportModel(name)
		sp.DropModel(name)
	}
	if err := c.mgr.RemoveGroup(name); err != nil {
		return WorkloadState{}, fmt.Errorf("core: %w", err)
	}
	delete(c.ws, name)
	delete(c.alloc, name)
	for i, ww := range c.order {
		if ww == w {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for _, ww := range c.order {
		c.alloc[ww.name] = ww.ways
	}
	if err := c.mgr.SetAllocation(c.alloc); err != nil {
		return WorkloadState{}, fmt.Errorf("core: removing %q: %w", name, err)
	}
	return st, nil
}

// AddTarget starts managing a new workload mid-run, optionally seeded
// with state exported from another controller. The workload arrives at
// its contracted baseline (reclaimed from the largest above-baseline
// holders if the pool is short — the same priority the allocator uses),
// its cores are primed so the first sample covers only its own history,
// and, when the carried table already knows this phase's preferred
// allocation, the loop jumps straight to it on the next tick instead of
// re-growing one way per round (§3.5 table reuse, across sockets).
func (c *Controller) AddTarget(t Target, st *WorkloadState) error {
	if _, dup := c.ws[t.Name]; dup {
		return fmt.Errorf("core: target %q already exists", t.Name)
	}
	if t.BaselineWays < 1 {
		return fmt.Errorf("core: target %q baseline %d below the 1-way minimum",
			t.Name, t.BaselineWays)
	}
	sumBase := t.BaselineWays
	for _, ww := range c.order {
		sumBase += ww.baseline
	}
	if sumBase > c.mgr.TotalWays() {
		return fmt.Errorf("core: baselines would total %d ways, socket has %d",
			sumBase, c.mgr.TotalWays())
	}
	if _, err := c.mgr.CreateGroup(t.Name, t.Cores); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The new cores' counters carry their whole past (a previous tenant,
	// or nothing the sampler has seen): prime them so the first sample
	// is a clean delta.
	c.sampler.Prime(t.Cores)
	w := &wstate{
		name:     t.Name,
		cores:    append([]int(nil), t.Cores...),
		baseline: t.BaselineWays,
		state:    StateKeeper,
		ways:     t.BaselineWays,
		prevWays: t.BaselineWays,
		table:    make(PerfTable),
		history:  make(map[phaseKey]PerfTable),
		histIPC:  make(map[phaseKey]float64),
		det:      c.cfg.detector(),
		// The arrival refills a cold LLC; suspend Streaming verdicts
		// until the refill storm passes (Config.ArrivalGraceTicks).
		graceLeft: c.cfg.ArrivalGraceTicks,
	}
	// The policy's learned model travels regardless of settledness:
	// phase-transition history is socket-independent.
	if st != nil && st.PolicyModel != nil {
		if sp, ok := c.policy.(policy.Stateful); ok {
			sp.ImportModel(t.Name, st.PolicyModel)
		}
	}
	// Only a settled export is worth carrying. A settled workload's
	// table and category are converged facts the destination can act
	// on; an unsettled one was exported mid-climb — typically because
	// the source pool was exhausted, the very situation that triggers a
	// placement move — so its table edge is a starvation artefact and
	// its baseline IPC belongs to the socket it just left (a remote-
	// homed arrival runs in a different performance frame). Importing
	// that state would settle the arrival on a censored optimum; a
	// fresh start re-measures the baseline where the workload now lives
	// and grows from there.
	if st != nil && st.phaseInit && st.BaselineIPC > 0 && st.Settled {
		w.phaseInit = true
		w.phaseMAPI = st.PhaseMAPI
		w.phase = phaseKeyOf(st.PhaseMAPI)
		w.det.Reset(st.PhaseMAPI)
		w.baselineIPC = st.BaselineIPC
		w.state = st.State
		w.settled = st.Settled
		if st.Table != nil {
			w.table = st.Table.Clone()
		}
		for k, tb := range st.history {
			w.history[k] = tb.Clone()
		}
		for k, v := range st.histIPC {
			w.histIPC[k] = v
		}
		// Cross-socket table reuse: the carried table already knows how
		// this phase pays off with ways, so jump to its preferred
		// allocation as a settled Keeper instead of re-learning. Donors
		// and Streamings keep their terminal categories — neither wants
		// the pool.
		if w.state != StateDonor && w.state != StateStreaming {
			if pref, ok := w.table.Preferred(c.cfg.IPCImpThr / 2); ok && pref > w.baseline {
				w.state = StateKeeper
				w.settled = true
				w.jumpTo = pref
				c.emitTableHit(w, pref)
			}
		}
	}
	c.ws[t.Name] = w
	c.order = append(c.order, w)

	// Install the arrival allocation: everyone keeps their ways, the
	// newcomer gets its baseline. If the pool cannot cover it, reclaim
	// one way at a time from the largest above-baseline holder (the
	// allocator's own over-commit priority); the baseline-sum check
	// above guarantees this terminates with every group >= 1 way.
	alloc := c.alloc
	allocated := 0
	for _, ww := range c.order {
		alloc[ww.name] = ww.ways
		allocated += ww.ways
	}
	for allocated > c.mgr.TotalWays() {
		best, bestSurplus := "", 0
		for _, ww := range c.order {
			if ww == w {
				continue
			}
			if s := alloc[ww.name] - ww.baseline; s > bestSurplus {
				best, bestSurplus = ww.name, s
			}
		}
		if best == "" {
			for _, ww := range c.order {
				if ww != w && alloc[ww.name] > 1 {
					best = ww.name
					break
				}
			}
		}
		if best == "" {
			return fmt.Errorf("core: no ways reclaimable for arriving target %q", t.Name)
		}
		alloc[best]--
		allocated--
	}
	if err := c.mgr.SetAllocation(alloc); err != nil {
		return fmt.Errorf("core: adding %q: %w", t.Name, err)
	}
	for _, ww := range c.order {
		if nw := alloc[ww.name]; nw != ww.ways {
			c.emitWayChange(ww, nw)
			ww.ways = nw
		}
	}
	return nil
}
