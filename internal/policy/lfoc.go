package policy

// LFOC clusters tenants by the shape of their learned performance
// curves — the signal LFOC derives from miss curves — and partitions
// ways per cluster (cf. LFOC: a lightweight fairness-oriented cache
// clustering policy for commodity multicores):
//
//   - streaming: the controller's §3.4 Streaming verdict; already
//     squashed to minimal ways by the reactive pass, labeled only.
//   - squashed: a flat curve (no IPC gain over baseline worth
//     IPCImpThr): trimmed to the curve's preferred point once settled,
//     freeing the surplus.
//   - sensitive: a rising curve: the freed surplus plus the free pool
//     is split across the cluster by the same DP the max-performance
//     mode uses, regardless of the fairness/performance config.
//
// Workloads without an informative curve (Unknown, Reclaim, graced
// arrivals, sparse tables) stay on the reactive decision untouched.
type LFOC struct {
	base     Reactive
	clusters map[string]string
	idx      []int
	cands    []SplitCand
	split    splitScratch
}

// NewLFOC returns a curve-shape clustering allocation policy.
func NewLFOC() *LFOC {
	return &LFOC{clusters: make(map[string]string)}
}

// Name implements AllocationPolicy.
func (l *LFOC) Name() string { return "lfoc" }

// Cluster reports a workload's current cluster assignment ("" when the
// workload has not been classified yet).
func (l *LFOC) Cluster(workload string) string { return l.clusters[workload] }

// Propose implements AllocationPolicy.
func (l *LFOC) Propose(v *View, g *Grants) {
	l.base.Propose(v, g)

	free := v.TotalWays
	for _, w := range g.Ways {
		free -= w
	}

	l.idx = l.idx[:0]
	for i := range v.Workloads {
		w := &v.Workloads[i]
		cluster := "unknown"
		switch {
		case w.Graced || w.Category == Reclaim || w.Category == Unknown:
			// No trustworthy curve yet: reactive decision stands.
		case w.Category == Streaming:
			cluster = "streaming"
		case w.BaselineIPC <= 0 || w.Curve.Len() < 3:
			// Curve too sparse to classify a shape.
		default:
			if base, ok := w.Curve.At(w.Baseline); ok && w.Curve.peak()-base >= v.IPCImpThr {
				cluster = "sensitive"
				l.idx = append(l.idx, i)
			} else {
				cluster = "squashed"
				// A settled flat-curve tenant holds its preferred
				// point; the surplus feeds the sensitive cluster.
				if w.Settled {
					if pref, ok := w.Curve.Preferred(v.IPCImpThr / 2); ok {
						if pref < 1 {
							pref = 1
						}
						if pref < g.Ways[i] {
							free += g.Ways[i] - pref
							g.Ways[i] = pref
						}
					}
				}
			}
		}
		if l.clusters[w.Name] != cluster {
			l.clusters[w.Name] = cluster
			g.Notes = append(g.Notes, Note{
				Workload: i, Kind: NoteCluster,
				Ways: g.Ways[i], Label: cluster,
			})
		}
	}

	// Partition the sensitive cluster's capacity (its current grants
	// plus everything freed) by summed normalized IPC.
	if len(l.idx) > 0 {
		budget := free
		if cap(l.cands) < len(l.idx) {
			l.cands = make([]SplitCand, len(l.idx))
		}
		cands := l.cands[:len(l.idx)]
		for k, i := range l.idx {
			budget += g.Ways[i]
			cands[k] = v.splitCand(i, g.Ways[i])
		}
		if res, ok := l.split.optimize(cands, budget); ok {
			for k, i := range l.idx {
				g.Ways[i] = res[k]
			}
		}
	}
}

// DropModel releases a departed workload's cluster assignment. LFOC
// keeps no migratable learned state (the curves travel with the
// controller's own tables), so Export/Import are nil/no-op.
func (l *LFOC) DropModel(workload string) { delete(l.clusters, workload) }

// ExportModel implements Stateful.
func (l *LFOC) ExportModel(workload string) *ModelState { return nil }

// ImportModel implements Stateful.
func (l *LFOC) ImportModel(workload string, st *ModelState) {}
