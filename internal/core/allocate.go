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
// allocation, like the heracles/ucp comparison engines). It then
// derives the two facts Fig. 6 reads from the round (growth denied,
// pool empty) from those guarded grants; no policy reports them.

// allocate resolves this round's desires into a full way allocation by
// delegating to the configured allocation policy. The result is indexed
// like l.order and valid until the next round.
func (l *loop) allocate(samples []observation) []int {
	// Advisory caps (SetWayCap): clamp desires before any policy sees
	// them — caps bound what a workload may ask for, not what one
	// particular policy grants. Reclaims are exempt — restoring the
	// baseline guarantee outranks any external hint — and a cap below
	// baseline acts as baseline.
	for _, w := range l.order {
		if w.capWays <= 0 || w.state == StateReclaim {
			continue
		}
		if limit := max(w.capWays, w.baseline); w.desire > limit {
			w.desire = limit
		}
	}

	l.buildView(samples)
	l.policy.Propose(&l.view, &l.grants)
	l.applyGuards()
	l.emitNotes()

	// Fig. 6's two inputs from this round, read off the ways CAT gets:
	// growth denied (DESIGN §6 row A3) and pool empty (row A4).
	sum := 0
	for i, w := range l.order {
		n := l.grants.Ways[i]
		sum += n
		w.denied = w.state != StateReclaim && n < w.desire
		w.sustained = w.state == StateReclaim && l.grants.Sustain[i]
	}
	l.poolEmpty = sum == l.mgr.TotalWays()
	return l.grants.Ways
}

// buildView refreshes the reusable policy view from the per-workload
// records, in target order.
func (l *loop) buildView(samples []observation) {
	v := &l.view
	v.Tick = l.c.ticks
	v.TotalWays = l.mgr.TotalWays()
	v.MaxPerformance = l.c.cfg.Policy == MaxPerformance
	v.GrowthStep = l.c.cfg.GrowthStep
	v.IPCImpThr = l.c.cfg.IPCImpThr
	if cap(v.Workloads) < len(l.order) {
		v.Workloads = make([]policy.WorkloadView, len(l.order))
	}
	v.Workloads = v.Workloads[:len(l.order)]
	for i, w := range l.order {
		wv := &v.Workloads[i]
		wv.Name = w.name
		wv.Category = policy.Category(w.state)
		wv.Ways = w.ways
		wv.Baseline = w.baseline
		wv.Desire = w.desire
		wv.CapWays = w.capWays
		wv.Settled = w.settled
		wv.JumpTo = w.jumpTo
		wv.Graced = w.graceLeft > 0
		wv.BaselineIPC = w.baselineIPC
		wv.IPC = samples[i].ipc
		wv.PhaseKey = int64(w.phase)
		wv.Curve = &w.table
	}
}

// applyGuards enforces the allocation invariants on the policy's
// grants. For the built-in policies every guard is a no-op by
// construction; they exist so a buggy or independent policy can never
// starve a workload or over-commit the socket.
func (l *loop) applyGuards() {
	g := &l.grants
	independent := false
	if ind, ok := l.policy.(policy.Independent); ok && ind.IndependentAllocator() {
		independent = true
	}
	for i, w := range l.order {
		if g.Ways[i] < 1 {
			g.Ways[i] = 1
		}
		// The baseline guarantee: a Reclaim returns to its contracted
		// allocation so the phase baseline can be re-measured, unless
		// the policy deliberately sustains it through the change.
		if !independent && w.state == StateReclaim && !g.Sustain[i] {
			g.Ways[i] = w.baseline
		}
	}
	// A false return cannot happen (every workload at its baseline
	// fits); were it to, SetAllocation rejects the sum.
	l.shave(g.Ways, -1)
}

// shave takes ways back one at a time until ways (indexed like l.order)
// fits the socket: from the largest above-baseline holder, else from
// the first holder with more than one way. The exempt index (-1 for
// none) is never shaved. It reports whether the sum fits.
func (l *loop) shave(ways []int, exempt int) bool {
	sum := 0
	for _, n := range ways {
		sum += n
	}
	for total := l.mgr.TotalWays(); sum > total; sum-- {
		victim, surplus := -1, 0
		for i, w := range l.order {
			if s := ways[i] - w.baseline; i != exempt && s > surplus {
				surplus, victim = s, i
			}
		}
		if victim < 0 {
			for i := range l.order {
				if i != exempt && ways[i] > 1 {
					victim = i
					break
				}
			}
			if victim < 0 {
				return false // cannot happen: every workload at 1 way fits
			}
		}
		ways[victim]--
	}
	return true
}
