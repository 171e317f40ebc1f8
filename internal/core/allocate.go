package core

import "repro/internal/policy"

// This file is the controller side of the step-5 Allocate stage. The
// §3.5 decision logic itself lives behind policy.AllocationPolicy
// (internal/policy, default Reactive); the controller's job is to
// build the read-only round view the policy plans over, and to enforce
// the invariants no policy may break before the grants reach CAT:
// every workload holds at least one way, the sum stays within the
// socket's associativity, and a Reclaim returns to its contracted
// baseline unless the policy explicitly sustains it (or owns the whole
// allocation, like the heracles/ucp comparison engines).

// allocate resolves this round's desires into a full way allocation by
// delegating to the configured allocation policy. The result is indexed
// like c.order and valid until the next round.
func (c *Controller) allocate(samples []observation) []int {
	total := c.mgr.TotalWays()

	// Advisory caps (SetWayCap): clamp desires before any policy sees
	// them — caps bound what a workload may ask for, not what one
	// particular policy grants. Reclaims are exempt — restoring the
	// baseline guarantee outranks any external hint — and a cap below
	// baseline acts as baseline.
	for _, w := range c.order {
		if w.capWays <= 0 || w.state == StateReclaim {
			continue
		}
		if limit := max(w.capWays, w.baseline); w.desire > limit {
			w.desire = limit
		}
	}

	c.buildView(samples)
	c.policy.Propose(&c.view, &c.grants)
	c.applyGuards(total)
	c.emitNotes()

	for i, w := range c.order {
		w.denied = c.grants.Denied[i]
		w.sustained = w.state == StateReclaim && c.grants.Sustain[i]
	}
	c.poolEmpty = c.grants.PoolEmpty
	return c.grants.Ways
}

// buildView refreshes the reusable policy view from the per-workload
// records, in target order.
func (c *Controller) buildView(samples []observation) {
	v := &c.view
	v.Tick = c.ticks
	v.TotalWays = c.mgr.TotalWays()
	v.MaxPerformance = c.cfg.Policy == MaxPerformance
	v.GrowthStep = c.cfg.GrowthStep
	v.IPCImpThr = c.cfg.IPCImpThr
	if cap(v.Workloads) < len(c.order) {
		v.Workloads = make([]policy.WorkloadView, len(c.order))
	}
	v.Workloads = v.Workloads[:len(c.order)]
	for i, w := range c.order {
		v.Workloads[i] = policy.WorkloadView{
			Name:        w.name,
			Category:    policy.Category(w.state),
			Ways:        w.ways,
			Baseline:    w.baseline,
			Desire:      w.desire,
			CapWays:     w.capWays,
			Settled:     w.settled,
			JumpTo:      w.jumpTo,
			Graced:      w.graceLeft > 0,
			BaselineIPC: w.baselineIPC,
			IPC:         samples[i].ipc,
			PhaseKey:    int64(w.phase),
			Curve:       w.table,
		}
	}
}

// applyGuards enforces the allocation invariants on the policy's
// grants. For the built-in policies every guard is a no-op by
// construction; they exist so a buggy or independent policy can never
// starve a workload or over-commit the socket.
func (c *Controller) applyGuards(total int) {
	g := &c.grants
	independent := false
	if ind, ok := c.policy.(policy.Independent); ok && ind.IndependentAllocator() {
		independent = true
	}
	sum := 0
	for i, w := range c.order {
		if g.Ways[i] < 1 {
			g.Ways[i] = 1
		}
		// The baseline guarantee: a Reclaim returns to its contracted
		// allocation so the phase baseline can be re-measured, unless
		// the policy deliberately sustains it through the change.
		if !independent && w.state == StateReclaim && !g.Sustain[i] {
			g.Ways[i] = w.baseline
		}
		sum += g.Ways[i]
	}
	for sum > total {
		victim, surplus := -1, 0
		for i, w := range c.order {
			if s := g.Ways[i] - w.baseline; s > surplus && g.Ways[i] > 1 {
				surplus, victim = s, i
			}
		}
		if victim < 0 {
			for i := range c.order {
				if g.Ways[i] > 1 {
					victim = i
					break
				}
			}
			if victim < 0 {
				break // cannot happen: every workload at 1 way fits
			}
		}
		g.Ways[victim]--
		sum--
	}
}

// Snapshot reports the controller's view of every workload, in target
// order, based on the most recent tick.
func (c *Controller) Snapshot() []Status {
	pol := c.policy.Name()
	out := make([]Status, 0, len(c.order))
	for _, w := range c.order {
		norm := 0.0
		if w.baselineIPC > 0 {
			norm = w.lastIPC / w.baselineIPC
		}
		out = append(out, Status{
			Name:     w.name,
			State:    w.state,
			Ways:     w.ways,
			Baseline: w.baseline,
			IPC:      w.lastIPC,
			NormIPC:  norm,
			MissRate: w.lastMiss,
			MAPI:     w.phaseMAPI,
			LLCRef:   w.lastLLCRef,
			Graced:   w.graceLeft > 0,
			Policy:   pol,
		})
	}
	return out
}

// Occupancy reports each workload's measured LLC footprint in bytes
// when the CAT backend supports CMT-style monitoring (ok=false
// otherwise).
func (c *Controller) Occupancy() (map[string]uint64, bool) {
	return c.mgr.Occupancy()
}

// Ways returns a workload's current allocation (0 if unknown).
func (c *Controller) Ways(name string) int {
	if w, ok := c.ws[name]; ok {
		return w.ways
	}
	return 0
}

// StateOf returns a workload's current category.
func (c *Controller) StateOf(name string) (State, bool) {
	w, ok := c.ws[name]
	if !ok {
		return 0, false
	}
	return w.state, true
}

// Table returns a copy of a workload's live performance table.
func (c *Controller) Table(name string) (PerfTable, bool) {
	w, ok := c.ws[name]
	if !ok {
		return nil, false
	}
	return w.table.Clone(), true
}

// PolicyName returns the active allocation policy's identifier.
func (c *Controller) PolicyName() string { return c.policy.Name() }
