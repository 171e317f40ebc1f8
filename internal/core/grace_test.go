package core

import (
	"testing"

	"repro/internal/cat"
	"repro/internal/perf"
)

// TestArrivalGraceAvoidsRefillMisclassification reproduces the fleet
// demo's (-demo -sockets 2) misclassification: a tenant migrated onto
// a socket refills its working set from a cold LLC, and the refill
// storm — high but falling miss rate, no IPC gain while the pool
// drains — satisfies the Streaming verdict before the refill is over.
// Streaming is terminal for the phase, so without the arrival grace
// the tenant is durably pinned to one way on its new home. With the
// grace armed by AddTarget the verdicts wait out the refill and the
// tenant settles as a Keeper at its fitted allocation.
func TestArrivalGraceAvoidsRefillMisclassification(t *testing.T) {
	const refillTicks = 4
	run := func(grace int) State {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ArrivalGraceTicks = grace
		file := perf.NewFile(2)
		mgr, err := cat.NewManager(&fakeBackend{ways: 6})
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := New(cfg, mgr, file, []Target{{Name: "base", Cores: []int{0}, BaselineWays: 1}})
		if err != nil {
			t.Fatal(err)
		}

		// base: LLC-heavy, essentially never missing — a shrinking Donor
		// that leaves the pool to the arrival.
		baseB := lowMissBehavior(0)
		// mig: four refill intervals (miss rate decaying 0.9 → 0.35,
		// IPC flat and low — the cache is still filling), then the real
		// pattern: fits, low miss, healthy IPC.
		refillMiss := []float64{0.9, 0.7, 0.5, 0.35}
		migTick := 0
		migB := func(ways int) perf.Sample {
			migTick++
			llcRef := uint64(400_000)
			if migTick <= refillTicks {
				miss := refillMiss[migTick-1]
				return perf.Sample{
					L1Ref: 500_000, LLCRef: llcRef,
					LLCMiss: uint64(miss * float64(llcRef)),
					RetIns:  1_000_000, Cycles: 5_000_000,
				}
			}
			return perf.Sample{
				L1Ref: 500_000, LLCRef: llcRef,
				LLCMiss: uint64(0.01 * float64(llcRef)),
				RetIns:  1_000_000, Cycles: 1_000_000,
			}
		}

		feed := func(core int, s perf.Sample) {
			bank := file.Core(core)
			bank.Add(perf.L1Hits, s.L1Ref)
			bank.Add(perf.LLCReferences, s.LLCRef)
			bank.Add(perf.LLCMisses, s.LLCMiss)
			bank.Add(perf.RetiredInstructions, s.RetIns)
			bank.Add(perf.UnhaltedCycles, s.Cycles)
		}
		tick := func(withMig bool) {
			t.Helper()
			feed(0, baseB(ctl.Ways("base")))
			if withMig {
				feed(1, migB(ctl.Ways("mig")))
			}
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
		}

		// Settle the incumbent, then the migration arrives.
		for i := 0; i < 3; i++ {
			tick(false)
		}
		if err := ctl.AddTarget(0, Target{Name: "mig", Cores: []int{1}, BaselineWays: 2}, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < refillTicks+6; i++ {
			tick(true)
		}
		st, ok := ctl.StateOf("mig")
		if !ok {
			t.Fatal("mig vanished")
		}
		return st
	}

	// Without the grace the refill storm earns the terminal Streaming
	// verdict — the bug this test pins down.
	if st := run(0); st != StateStreaming {
		t.Fatalf("without grace: state %v, want Streaming (the misclassification the grace exists for)", st)
	}
	// With the default grace the verdict waits; once the refill ends
	// the tenant's low miss rate settles it as a Keeper.
	if st := run(DefaultConfig().ArrivalGraceTicks); st != StateKeeper {
		t.Fatalf("with grace: state %v, want Keeper", st)
	}
}

// TestArrivalGraceEndsEarlyOnStableMissRate checks the grace's early
// exit: a genuinely streaming arrival shows a flat miss-rate curve
// (consecutive intervals within 10%), so the grace collapses and the
// Streaming verdict still lands promptly.
func TestArrivalGraceEndsEarlyOnStableMissRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrivalGraceTicks = 100 // absurdly long: only the early exit can end it
	file := perf.NewFile(2)
	mgr, err := cat.NewManager(&fakeBackend{ways: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(cfg, mgr, file, []Target{{Name: "base", Cores: []int{0}, BaselineWays: 1}})
	if err != nil {
		t.Fatal(err)
	}
	baseB := lowMissBehavior(0)
	streamB := streamBehavior()
	feed := func(core int, s perf.Sample) {
		bank := file.Core(core)
		bank.Add(perf.L1Hits, s.L1Ref)
		bank.Add(perf.LLCReferences, s.LLCRef)
		bank.Add(perf.LLCMisses, s.LLCMiss)
		bank.Add(perf.RetiredInstructions, s.RetIns)
		bank.Add(perf.UnhaltedCycles, s.Cycles)
	}
	for i := 0; i < 3; i++ {
		feed(0, baseB(ctl.Ways("base")))
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.AddTarget(0, Target{Name: "mig", Cores: []int{1}, BaselineWays: 2}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		feed(0, baseB(ctl.Ways("base")))
		feed(1, streamB(ctl.Ways("mig")))
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := ctl.StateOf("mig"); st != StateStreaming {
		t.Fatalf("flat-miss arrival: state %v, want Streaming (grace must end early)", st)
	}
}
