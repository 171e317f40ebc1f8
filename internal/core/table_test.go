package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/policy"
)

// tableOf builds a performance table from way → value pairs.
func tableOf(m map[int]float64) *policy.Curve {
	tab := new(policy.Curve)
	for w, v := range m {
		tab.Set(w, v)
	}
	return tab
}

func TestPerfTableSetAt(t *testing.T) {
	var tab policy.Curve
	tab.Set(3, 1.0)
	tab.Set(5, 1.25)
	if v, ok := tab.At(3); !ok || v != 1.0 {
		t.Errorf("At(3)=%v,%v", v, ok)
	}
	// Fallback to nearest lower entry.
	if v, ok := tab.At(4); !ok || v != 1.0 {
		t.Errorf("At(4)=%v,%v want 1.0 (fallback to 3)", v, ok)
	}
	if v, ok := tab.At(9); !ok || v != 1.25 {
		t.Errorf("At(9)=%v,%v want 1.25", v, ok)
	}
	if _, ok := tab.At(2); ok {
		t.Error("At(2) should have no data")
	}
}

func TestPerfTablePreferredMatchesPaperTable1(t *testing.T) {
	// Paper Table 1: baseline 3 ways, preferred 6 ways (7 and 8 add
	// nothing).
	tab := tableOf(map[int]float64{2: 0.9, 3: 1.0, 4: 1.15, 5: 1.25, 6: 1.3, 7: 1.3, 8: 1.3})
	pref, ok := tab.Preferred(0.001)
	if !ok || pref != 6 {
		t.Errorf("Preferred=%d,%v want 6", pref, ok)
	}
}

func TestPerfTablePreferredEmpty(t *testing.T) {
	if _, ok := new(policy.Curve).Preferred(0.01); ok {
		t.Error("empty table should have no preferred entry")
	}
}

func TestPerfTableMaxClone(t *testing.T) {
	tab := tableOf(map[int]float64{2: 1.0, 7: 1.2})
	if tab.Max() != 7 {
		t.Errorf("Max=%d", tab.Max())
	}
	c := *tab
	c.Set(9, 1.3)
	if tab.Max() != 7 {
		t.Error("a copied table should not alias")
	}
}

func TestOptimizeSplitPaperExample(t *testing.T) {
	// §3.5 worked example: A (2:1, 3:1.05, 4:1.08, 5:1.12),
	// B (2:1, 3:1.1, 4:1.2, 5:1.25). After C reclaims 2 ways, A and B
	// share 8 ways; the best combination is A=3, B=5 with total
	// normalized IPC 2.3.
	a := tableOf(map[int]float64{2: 1.0, 3: 1.05, 4: 1.08, 5: 1.12})
	b := tableOf(map[int]float64{2: 1.0, 3: 1.1, 4: 1.2, 5: 1.25})
	res, ok := policy.OptimizeSplit([]policy.SplitCand{
		{Table: a, Min: 2, Max: 5},
		{Table: b, Min: 2, Max: 5},
	}, 8)
	if !ok {
		t.Fatal("split should be feasible")
	}
	if res[0] != 3 || res[1] != 5 {
		t.Errorf("split=%v want [3 5]", res)
	}
	va, _ := a.At(res[0])
	vb, _ := b.At(res[1])
	if math.Abs(va+vb-2.3) > 1e-9 {
		t.Errorf("total normalized IPC %f want 2.3", va+vb)
	}
}

func TestOptimizeSplitInfeasible(t *testing.T) {
	tab := tableOf(map[int]float64{2: 1.0})
	if _, ok := policy.OptimizeSplit([]policy.SplitCand{
		{Table: tab, Min: 5, Max: 6},
		{Table: tab, Min: 5, Max: 6},
	}, 8); ok {
		t.Error("mins exceeding budget should be infeasible")
	}
}

func TestOptimizeSplitEmpty(t *testing.T) {
	res, ok := policy.OptimizeSplit(nil, 10)
	if !ok || len(res) != 0 {
		t.Error("no candidates should be trivially ok")
	}
}

func TestOptimizeSplitMissingDataTreatedAsBaseline(t *testing.T) {
	// Candidate with no entry at or below min: planner assumes 1.0.
	a := tableOf(map[int]float64{5: 1.5})
	b := tableOf(map[int]float64{2: 1.0, 3: 1.4})
	res, ok := policy.OptimizeSplit([]policy.SplitCand{
		{Table: a, Min: 2, Max: 5},
		{Table: b, Min: 2, Max: 3},
	}, 8)
	if !ok {
		t.Fatal("feasible split rejected")
	}
	if res[0] != 5 || res[1] != 3 {
		t.Errorf("split=%v want [5 3]", res)
	}
}

// Property: OptimizeSplit never exceeds the budget and respects bounds.
func TestOptimizeSplitRespectsBounds(t *testing.T) {
	f := func(b1, b2, budget uint8) bool {
		min1, min2 := int(b1%3)+1, int(b2%3)+1
		bud := int(budget%16) + 2
		tab := tableOf(map[int]float64{1: 1.0, 2: 1.1, 4: 1.3, 8: 1.35})
		res, ok := policy.OptimizeSplit([]policy.SplitCand{
			{Table: tab, Min: min1, Max: 10},
			{Table: tab, Min: min2, Max: 10},
		}, bud)
		if !ok {
			return min1+min2 > bud
		}
		return res[0] >= min1 && res[1] >= min2 && res[0]+res[1] <= bud &&
			res[0] <= 10 && res[1] <= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseKeyStability(t *testing.T) {
	// Values within a few percent usually share a bucket; order-of-
	// magnitude changes never do.
	if phaseKeyOf(0.50) != phaseKeyOf(0.51) {
		t.Error("0.50 and 0.51 should share a phase bucket")
	}
	if phaseKeyOf(0.5) == phaseKeyOf(0.05) {
		t.Error("10x MAPI change must change the phase key")
	}
	if phaseKeyOf(0) != idlePhase || phaseKeyOf(1e-12) != idlePhase {
		t.Error("zero MAPI should map to the idle phase")
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(1.1, 1.0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("relDiff(1.1,1)=%f", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0,0)=%f", got)
	}
	if got := relDiff(0.5, 0); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0.5,0)=%f want +Inf", got)
	}
}

func TestStateAndPolicyStrings(t *testing.T) {
	wantStates := map[State]string{
		StateKeeper: "Keeper", StateDonor: "Donor", StateReceiver: "Receiver",
		StateStreaming: "Streaming", StateUnknown: "Unknown", StateReclaim: "Reclaim",
	}
	for s, want := range wantStates {
		if s.String() != want {
			t.Errorf("State %d String()=%q want %q", s, s.String(), want)
		}
	}
	if MaxFairness.String() != "max-fairness" || MaxPerformance.String() != "max-performance" {
		t.Error("policy names wrong")
	}
	if State(99).String() == "" || Policy(99).String() == "" {
		t.Error("out-of-range strings should not be empty")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.LLCMissRateThr = 0 },
		func(c *Config) { c.LLCMissRateThr = 1 },
		func(c *Config) { c.IPCImpThr = 0 },
		func(c *Config) { c.PhaseThr = 1.5 },
		func(c *Config) { c.StreamingMult = 1 },
		func(c *Config) { c.GrowthStep = 0 },
		func(c *Config) { c.Policy = Policy(9) },
	}
	for i, m := range mut {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}
