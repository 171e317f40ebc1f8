package core

import (
	"fmt"
	"testing"

	"repro/internal/cat"
	"repro/internal/perf"
	"repro/internal/policy"
)

// TestReactiveTickAllocBudget guards the tick hot path's allocation
// count under every built-in engine and both §3.5 modes: sampling,
// phase bookkeeping, the policy's Propose (the max-performance and LFOC
// split DP included) and the CAT apply all run on buffers reused across
// ticks. The budgets are the measured steady-state costs on a 6-tenant
// fleet; counts, unlike the clock, do not move with the machine, so any
// regression here means a per-tick buffer started escaping to the heap.
func TestReactiveTickAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		policy string
		mode   Policy
		budget float64
	}{
		{"reactive", MaxFairness, 0},
		{"reactive", MaxPerformance, 0},
		{"predictive", MaxFairness, 0},
		{"predictive", MaxPerformance, 0},
		{"lfoc", MaxFairness, 0},
		{"lfoc", MaxPerformance, 0},
	} {
		name := fmt.Sprintf("%s/%s", tc.policy, tc.mode)
		t.Run(name, func(t *testing.T) {
			if got := tickAllocs(t, tc.policy, tc.mode); got > tc.budget {
				t.Errorf("%s tick allocates %.2f/tick, budget is %.0f", name, got, tc.budget)
			}
		})
	}
}

// tickAllocs measures a steady tick's heap allocations on a 6-tenant
// fleet that mixes every category: fitting, streaming, idle, rising and
// over-provisioned tenants.
func tickAllocs(t *testing.T, name string, mode Policy) float64 {
	t.Helper()
	factory, err := policy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Policy = mode
	cfg.NewPolicy = factory
	behaviors := []behavior{mlrBehavior(6), streamBehavior(), idleBehavior(),
		mlrBehavior(4), tableBehavior(10, 0.06), lowMissBehavior(2)}
	file := perf.NewFile(len(behaviors))
	mgr, err := cat.NewManager(&fakeBackend{ways: 20})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]Target, len(behaviors))
	for i := range targets {
		targets[i] = Target{Name: fmt.Sprintf("vm%d", i), Cores: []int{i}, BaselineWays: 2}
	}
	ctl, err := New(cfg, mgr, file, targets)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for k := 0; k < n; k++ {
			for i := range targets {
				s := behaviors[i](ctl.Ways(targets[i].Name))
				bank := file.Core(i)
				bank.Add(perf.L1Hits, s.L1Ref)
				bank.Add(perf.LLCReferences, s.LLCRef)
				bank.Add(perf.LLCMisses, s.LLCMiss)
				bank.Add(perf.RetiredInstructions, s.RetIns)
				bank.Add(perf.UnhaltedCycles, s.Cycles)
			}
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up past the learning transient so the measurement sees the
	// steady state (tables built, phases settled).
	run(30)
	return testing.AllocsPerRun(200, func() { run(1) })
}
