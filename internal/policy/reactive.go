package policy

// Reactive is the paper's §3.5 allocator, extracted decision-for-
// decision from the controller's historical built-in Allocate step and
// guarded by core's golden-trace test. Priorities: Reclaim is absolute
// (the baseline guarantee); shrinks and holds are taken as-is; growth
// is granted from the free pool with Unknown ahead of Receiver; the
// max-performance mode then redistributes among workloads with usable
// performance tables.
//
// The advisory-cap clamp (the historical stage 0) stays in the
// controller: caps bound the *desire* every policy sees, not just this
// one's grants.
type Reactive struct {
	// classes holds the growth classes (jumps, unknowns, receivers) as
	// workload indices, reused across ticks to keep the hot path free
	// of per-tick allocations.
	classes [3][]int
	cands   []SplitCand
	split   splitScratch
	optIdx  []int
}

// NewReactive returns the default §3.5 allocation policy.
func NewReactive() *Reactive { return &Reactive{} }

// Name implements AllocationPolicy.
func (r *Reactive) Name() string { return "reactive" }

// Propose implements AllocationPolicy.
func (r *Reactive) Propose(v *View, g *Grants) {
	g.Reset(len(v.Workloads))
	total := v.TotalWays

	// 1. Fixed assignments: reclaims at baseline, everyone else at
	// min(desire, current) — growth is granted separately so a tight
	// pool never lets a grower displace someone else's guarantee.
	sum := 0
	for i := range v.Workloads {
		w := &v.Workloads[i]
		a := w.Desire
		if w.Category != Reclaim && a > w.Ways {
			a = w.Ways
		}
		if a < 1 {
			a = 1
		}
		g.Ways[i] = a
		sum += a
	}

	// 2. Over-commit can only come from reclaims (Σ baselines fits by
	// construction): take ways back from workloads holding more than
	// their baseline, largest surplus first (§3.5: "dCat has to
	// reclaim cache from those whose current cache size is larger
	// than their baseline").
	for sum > total {
		victim := -1
		surplus := 0
		for i := range v.Workloads {
			w := &v.Workloads[i]
			if w.Category == Reclaim {
				continue
			}
			if s := g.Ways[i] - w.Baseline; s > surplus {
				surplus = s
				victim = i
			}
		}
		if victim < 0 {
			// Nothing above baseline left; trim any allocation above
			// one way (donors below baseline are already minimal).
			for i := range v.Workloads {
				if v.Workloads[i].Category != Reclaim && g.Ways[i] > 1 {
					victim = i
					break
				}
			}
			if victim < 0 {
				break // cannot happen: Σ baselines <= total
			}
		}
		g.Ways[victim]--
		sum--
	}

	// 3. Growth grants from the pool. Unknown workloads outrank
	// Receivers (§3.5: resolve possible streamers quickly); pending
	// table-reuse jumps are restorations of known-good allocations and
	// go first. Within a class, ways are granted one at a time round-
	// robin, which is also what makes the fairness policy even.
	pool := total - sum
	for k := range r.classes {
		r.classes[k] = r.classes[k][:0]
	}
	for i := range v.Workloads {
		w := &v.Workloads[i]
		if w.Desire <= g.Ways[i] || w.Category == Reclaim {
			continue
		}
		switch {
		case w.JumpTo > 0:
			r.classes[0] = append(r.classes[0], i)
		case w.Category == Unknown:
			r.classes[1] = append(r.classes[1], i)
		case w.Category == Receiver:
			r.classes[2] = append(r.classes[2], i)
		default:
			r.classes[0] = append(r.classes[0], i)
		}
	}
	for _, class := range r.classes {
		for pool > 0 {
			granted := false
			for _, i := range class {
				if pool == 0 {
					break
				}
				if g.Ways[i] < v.Workloads[i].Desire {
					g.Ways[i]++
					pool--
					granted = true
				}
			}
			if !granted {
				break
			}
		}
	}

	// 4. Max-performance redistribution (§3.5): when tables exist,
	// choose the split of the cache-sensitive workloads' capacity that
	// maximizes summed normalized IPC.
	if v.MaxPerformance {
		r.optimize(v, g, pool)
	}
}

// optimize reassigns ways among workloads with informative performance
// tables, keeping everyone else fixed. budget starts at the free pool.
func (r *Reactive) optimize(v *View, g *Grants, budget int) {
	r.optIdx = r.optIdx[:0]
	for i := range v.Workloads {
		w := &v.Workloads[i]
		switch w.Category {
		case Receiver, Keeper:
		default:
			continue
		}
		if w.BaselineIPC <= 0 || w.Curve.Len() < 3 {
			continue
		}
		r.optIdx = append(r.optIdx, i)
	}
	if len(r.optIdx) < 2 {
		return
	}
	if cap(r.cands) < len(r.optIdx) {
		r.cands = make([]SplitCand, len(r.optIdx))
	}
	cands := r.cands[:len(r.optIdx)]
	for k, i := range r.optIdx {
		budget += g.Ways[i]
		cands[k] = v.splitCand(i, g.Ways[i])
	}
	res, ok := r.split.optimize(cands, budget)
	if !ok {
		return
	}
	for k, i := range r.optIdx {
		g.Ways[i] = res[k]
	}
}
