package core

import (
	"fmt"
	"testing"

	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// BenchmarkControllerTick measures one controller period end-to-end —
// sample → phase detection → categorization → allocation → backend
// apply — under each built-in allocation engine at several tenant
// counts. This is the hot loop both the daemon and the cluster agent
// drive every period.
func BenchmarkControllerTick(b *testing.B) {
	for _, pol := range policy.Names() {
		for _, n := range []int{2, 6, 12} {
			b.Run(fmt.Sprintf("policy=%s/workloads=%d", pol, n), func(b *testing.B) {
				benchTick(b, pol, n, false)
			})
		}
	}
}

// BenchmarkControllerTickTraced is the same loop with the full
// observability stack attached — journal sink and registered metrics —
// so the cost of tracing shows up as a diff against the plain variant
// (and the CI alloc budget in TestTickAllocationsWithTracing has a
// visible counterpart).
func BenchmarkControllerTickTraced(b *testing.B) {
	for _, n := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("workloads=%d", n), func(b *testing.B) {
			benchTick(b, "reactive", n, true)
		})
	}
}

func benchTick(b *testing.B, pol string, n int, traced bool) {
	factory, err := policy.New(pol)
	if err != nil {
		b.Fatal(err)
	}
	file := perf.NewFile(n)
	mgr, err := cat.NewManager(&fakeBackend{ways: 20})
	if err != nil {
		b.Fatal(err)
	}
	behaviors := make([]behavior, n)
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Name: fmt.Sprintf("vm%d", i), Cores: []int{i}, BaselineWays: 1}
		switch i % 3 {
		case 0:
			behaviors[i] = mlrBehavior(6)
		case 1:
			behaviors[i] = streamBehavior()
		default:
			behaviors[i] = idleBehavior()
		}
	}
	cfg := DefaultConfig()
	cfg.NewPolicy = factory
	ctl, err := New(cfg, mgr, file, targets)
	if err != nil {
		b.Fatal(err)
	}
	if traced {
		ctl.SetSink(obs.NewJournal(obs.DefaultJournalSize))
		ctl.RegisterMetrics(telemetry.NewRegistry())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, t := range targets {
			s := behaviors[j](ctl.Ways(t.Name))
			bank := file.Core(j)
			bank.Add(perf.L1Hits, s.L1Ref)
			bank.Add(perf.LLCReferences, s.LLCRef)
			bank.Add(perf.LLCMisses, s.LLCMiss)
			bank.Add(perf.RetiredInstructions, s.RetIns)
			bank.Add(perf.UnhaltedCycles, s.Cycles)
		}
		if err := ctl.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}
