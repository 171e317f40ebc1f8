package experiments

import (
	"fmt"
	"strings"
)

// Runner is one reproducible experiment, addressable by ID.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (string, error)
}

// newRunner wraps an experiment whose result renders itself.
func newRunner[R interface{ Render(*strings.Builder) }](id, title string, fn func(Options) (R, error)) Runner {
	return Runner{ID: id, Title: title, Run: func(o Options) (string, error) {
		r, err := fn(o)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		r.Render(&sb)
		return sb.String(), nil
	}}
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		newRunner("fig1", "Impact of cache interference for MLR", Fig1CacheInterference),
		newRunner("fig2", "Impact of CAT-limited cache size", Fig2ConflictLatency),
		newRunner("fig3", "Cache set conflicts on Broadwell processors", Fig3SetConflicts),
		newRunner("fig5", "Phase detector stability", Fig5PhaseDetector),
		newRunner("table1", "Performance table for a workload phase", Table1PerformanceTable),
		newRunner("fig8", "Impact of cache miss threshold", Fig8MissThreshold),
		newRunner("fig9", "Impact of IPC improvement threshold", Fig9IPCThreshold),
		newRunner("fig10", "Dynamic allocation for MLR working sets", Fig10DynamicAllocation),
		newRunner("fig11", "Normalized latency for MLR", Fig11NormalizedLatency),
		newRunner("fig12", "Performance-table reuse", Fig12TableReuse),
		newRunner("fig13", "Streaming workload demotion", Fig13Streaming),
		newRunner("fig14", "Two receivers under max-performance", Fig14TwoReceivers),
		newRunner("fig15", "MLR + MLOAD timeline", Fig15MixedTimeline),
		newRunner("fig16", "MLR + MLOAD normalized latency", Fig16MixedLatency),
		newRunner("fig17", "SPEC CPU2006 sweep (incl. Table 3)", Fig17SPEC),
		newRunner("table4", "Redis", Table4Redis),
		newRunner("table5", "PostgreSQL", Table5Postgres),
		newRunner("table6", "Elasticsearch", Table6Elasticsearch),
		newRunner("comparison-ucp", "dCat vs utility-based cache partitioning", ComparisonUCP),
		newRunner("comparison-heracles", "dCat vs a two-class Heracles controller", ComparisonHeracles),
		newRunner("ablation-phase", "Phase-threshold ablation", AblationPhaseThreshold),
		newRunner("ablation-step", "Growth-step ablation", AblationGrowthStep),
		newRunner("ablation-streaming", "Streaming-multiplier ablation", AblationStreamingMult),
		newRunner("ablation-policy", "Policy ablation", AblationPolicy),
		newRunner("ablation-detector", "Phase-detector ablation", AblationDetector),
		newRunner("ablation-replacement", "LLC replacement-policy ablation", AblationReplacement),
		newRunner("numa-placement", "Local vs remote memory placement on a 2-socket host", NUMAPlacement),
		newRunner("placement", "Fleet placement: live rebalancing of an exhausted socket", FleetPlacement),
		newRunner("policy-comparison", "Allocation policies on a recurring-phase tenant", PolicyComparison),
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
