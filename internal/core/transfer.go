package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/policy"
)

// This file is the controller's state-transfer API: the piece of the
// placement story that makes live migration cheap. A dCat loop learns a
// workload's behaviour over many intervals — its phase baseline IPC,
// its per-phase ways → normalized-IPC tables, its §3.4 category — and
// losing that on a cross-socket move would force the destination loop
// to re-learn from scratch, exactly the dip the §3.5 performance tables
// exist to avoid. RemoveTarget exports the learned state, AddTarget
// imports it, and Migrate composes the two so a workload steps from
// one socket's loop to another's carrying its history along.

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
	Table policy.Curve
	// PolicyModel is the allocation policy's learned per-workload state
	// (nil when the policy keeps none, or has learned nothing yet). It
	// travels independently of the settledness gate below: transition
	// counts are facts about the workload's phase behaviour, valid on
	// any socket.
	PolicyModel *policy.ModelState

	phaseInit bool
	history   map[phaseKey]phaseRecord
	// capWays is the advisory cap (SetWayCap) in force at export. It
	// travels regardless of settledness: the authority that pushed it
	// caches what it pushed and does not re-send it after a move.
	capWays int
}

// RemoveTarget stops managing a workload wherever it lives — tenant
// churn's departure path. Its learned state is exported and returned
// (callers that re-admit the tenant later can carry it back in), its
// CLOS group is removed, and its ways return to its socket's free pool
// (flushed by the manager). Each socket's loop must keep at least one
// target. Host-side teardown (cores, the interval loop) is the
// caller's: see host.RemoveVM.
func (c *Controller) RemoveTarget(name string) (WorkloadState, error) {
	w, ok := c.ws[name]
	if !ok {
		return WorkloadState{}, fmt.Errorf("core: no workload %q", name)
	}
	return w.l.remove(w)
}

// remove exports w's state and drops it from this loop and from the
// controller's name index.
func (l *loop) remove(w *wstate) (WorkloadState, error) {
	name := w.name
	if len(l.order) == 1 {
		return WorkloadState{}, fmt.Errorf("core: cannot remove the last target %q", name)
	}
	l.saveTable(w)
	st := WorkloadState{
		Name:         w.name,
		Cores:        append([]int(nil), w.cores...),
		BaselineWays: w.baseline,
		Ways:         w.ways,
		State:        w.state,
		Settled:      w.settled,
		BaselineIPC:  w.baselineIPC,
		PhaseMAPI:    w.phaseMAPI,
		Table:        w.table,
		phaseInit:    w.phaseInit,
		history:      maps.Clone(w.history),
		capWays:      w.capWays,
	}
	if sp, ok := l.policy.(policy.Stateful); ok {
		st.PolicyModel = sp.ExportModel(name)
		sp.DropModel(name)
	}
	if err := l.mgr.RemoveGroup(name); err != nil {
		return WorkloadState{}, fmt.Errorf("core: %w", err)
	}
	delete(l.c.ws, name)
	l.order = slices.DeleteFunc(l.order, func(ww *wstate) bool { return ww == w })
	if err := l.mgr.SetAllocation(l.held()); err != nil {
		return WorkloadState{}, fmt.Errorf("core: removing %q: %w", name, err)
	}
	return st, nil
}

// AddTarget starts managing a new workload on the given socket's loop
// mid-run — tenant churn's hot-plug path — optionally seeded with state
// exported by RemoveTarget. The workload arrives at its contracted
// baseline (reclaimed from the largest above-baseline holders if the
// pool is short — the same priority the allocator uses), its cores are
// primed so the first sample covers only its own history, and, when the
// carried table already knows this phase's preferred allocation, the
// loop jumps straight to it on the next tick instead of re-growing one
// way per round (§3.5 table reuse, across sockets). The arrival grace
// (Config.ArrivalGraceTicks) arms for every arrival, since a hot-plugged
// tenant refills a cold LLC just like a migrated one.
func (c *Controller) AddTarget(socket int, t Target, st *WorkloadState) error {
	l := c.loopOn(socket)
	if l == nil {
		return fmt.Errorf("core: no controller on socket %d", socket)
	}
	if w, dup := c.ws[t.Name]; dup {
		return fmt.Errorf("core: workload %q already managed on socket %d", t.Name, w.l.socket)
	}
	return l.add(t, st)
}

// add installs t on this loop and in the controller's name index.
func (l *loop) add(t Target, st *WorkloadState) error {
	if err := l.checkBaselines(t); err != nil {
		return err
	}
	if _, err := l.mgr.CreateGroup(t.Name, t.Cores); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The new cores' counters carry their whole past (a previous tenant,
	// or nothing the sampler has seen): prime them so the first sample
	// is a clean delta.
	l.sampler.Prime(t.Cores)
	w := l.newWorkload(t)
	// The arrival refills a cold LLC; suspend Streaming verdicts until
	// the refill storm passes (Config.ArrivalGraceTicks).
	w.graceLeft = l.c.cfg.ArrivalGraceTicks
	if st != nil {
		// The advisory cap and the policy's learned model travel
		// regardless of settledness: the cap's authority will not
		// re-send it, and phase-transition history is socket-independent.
		w.capWays = st.capWays
		if sp, ok := l.policy.(policy.Stateful); ok && st.PolicyModel != nil {
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
		w.table = st.Table
		w.history = maps.Clone(st.history)
		// Cross-socket table reuse: the carried table already knows how
		// this phase pays off with ways, so jump to its preferred
		// allocation as a settled Keeper instead of re-learning. Donors
		// and Streamings keep their terminal categories — neither wants
		// the pool.
		if w.state != StateDonor && w.state != StateStreaming && l.reuseTable(w, w.baseline) {
			w.state = StateKeeper
			w.settled = true
		}
	}
	l.c.ws[t.Name] = w
	l.order = append(l.order, w)

	// Install the arrival allocation: everyone keeps their ways, the
	// newcomer gets its baseline. If the pool cannot cover it, shave the
	// others with the allocator's own over-commit priority; the
	// baseline-sum check above guarantees this succeeds with every
	// group >= 1 way.
	ways := l.held()
	if !l.shave(ways, len(l.order)-1) {
		return fmt.Errorf("core: no ways reclaimable for arriving target %q", t.Name)
	}
	if err := l.mgr.SetAllocation(ways); err != nil {
		return fmt.Errorf("core: adding %q: %w", t.Name, err)
	}
	for i, ww := range l.order {
		if nw := ways[i]; nw != ww.ways {
			l.emitWayChange(ww, nw)
			ww.ways = nw
		}
	}
	return nil
}

// Migrate moves a workload's decision-loop state from its current
// socket's loop to another's: the source exports and drops it, the
// destination imports it on the given cores (the ones the host
// assigned there — see host.MigrateVM) at its contracted baseline, with
// the learned phase baseline, performance tables and advisory cap
// carried over so the destination loop resumes instead of re-learning.
// If the destination rejects the workload it is restored on the source,
// so it is never left unmanaged.
func (c *Controller) Migrate(name string, toSocket int, cores []int) error {
	w, ok := c.ws[name]
	if !ok {
		return fmt.Errorf("core: no workload %q", name)
	}
	from := w.l.socket
	if from == toSocket {
		return fmt.Errorf("core: workload %q is already on socket %d", name, toSocket)
	}
	if c.loopOn(toSocket) == nil {
		return fmt.Errorf("core: no controller on socket %d", toSocket)
	}
	st, err := c.RemoveTarget(name)
	if err != nil {
		return err
	}
	if err := c.AddTarget(toSocket, Target{Name: name, Cores: cores, BaselineWays: st.BaselineWays}, &st); err != nil {
		restoreErr := c.AddTarget(from, Target{Name: name, Cores: st.Cores, BaselineWays: st.BaselineWays}, &st)
		if restoreErr != nil {
			return fmt.Errorf("core: migrate %q to socket %d: %v (restore on socket %d failed: %v)",
				name, toSocket, err, from, restoreErr)
		}
		return fmt.Errorf("core: migrate %q to socket %d: %w", name, toSocket, err)
	}
	return nil
}
