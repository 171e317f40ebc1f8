package study

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// TestChurnCyclesLeakNothing drives the full churn path the study
// runner uses — AddVMOn + AddTarget, mid-run MigrateVM + Migrate,
// RemoveTarget + RemoveVM — through repeated cycles and asserts the
// host returns to its exact baseline each time: per-socket allocated
// memory (the departed tenant's frames go back to the allocator), free
// cores, and each socket's CLOS groups and free ways. Run under
// -race in CI, it also shakes out data races on the churn path.
func TestChurnCyclesLeakNothing(t *testing.T) {
	cfg := host.DefaultConfig()
	cfg.Mem = memsys.XeonD()
	cfg.CyclesPerInterval = 300_000
	cfg.Sockets = 2
	cfg.MemBytes = 512 << 20
	h, err := host.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mgrs []*cat.Manager
	var specs []core.SocketSpec
	for s := 0; s < 2; s++ {
		gen, err := workload.NewLookbusy(h.AllocatorOn(s))
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.AddVMOn(s, fmt.Sprintf("anchor-s%d", s), 1, gen)
		if err != nil {
			t.Fatal(err)
		}
		backend, err := cat.NewNUMABackend(h.NUMA(), s)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := cat.NewManager(backend)
		if err != nil {
			t.Fatal(err)
		}
		mgrs = append(mgrs, mgr)
		specs = append(specs, core.SocketSpec{Socket: s, Mgr: mgr, Targets: []core.Target{
			{Name: vm.Name, Cores: vm.Cores, BaselineWays: 1},
		}})
	}
	multi, err := core.NewMulti(core.DefaultConfig(), h.Counters(), specs)
	if err != nil {
		t.Fatal(err)
	}

	type baseline struct {
		bytes    [2]uint64
		cores    [2]int
		ways     [2]int
		groups   [2]int
		snapshot int
	}
	capture := func() baseline {
		var b baseline
		for s := 0; s < 2; s++ {
			b.bytes[s] = h.AllocatedBytes(s)
			b.cores[s] = h.FreeCores(s)
			b.ways[s] = mgrs[s].TotalWays()
			for _, g := range mgrs[s].Groups() {
				b.ways[s] -= g.Ways
			}
			b.groups[s] = len(mgrs[s].Groups())
		}
		b.snapshot = len(multi.Snapshot())
		return b
	}
	want := capture()

	check := func(step string) {
		t.Helper()
		if err := multi.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	run := func(n int) {
		h.RunIntervals(n, func(int) {
			if err := multi.Tick(); err != nil {
				t.Fatal(err)
			}
			check("tick")
		})
	}
	run(2) // settle the anchors before the first capture comparison

	for cycle := 0; cycle < 6; cycle++ {
		gen, err := workload.NewMLR(4<<20, addr.PageSize4K, h.AllocatorOn(0), int64(cycle+1))
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.AddVMOn(0, "tmp", 1, gen)
		if err != nil {
			t.Fatal(err)
		}
		// AddTarget arms the arrival grace on every admission.
		if err := multi.AddTarget(0, core.Target{Name: "tmp", Cores: vm.Cores, BaselineWays: 2}, nil); err != nil {
			t.Fatal(err)
		}
		check("add tmp")
		run(3)
		moved, err := h.MigrateVM("tmp", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := multi.Migrate("tmp", 1, moved.Cores); err != nil {
			t.Fatal(err)
		}
		check("migrate tmp")
		run(3)
		if _, err := multi.RemoveTarget("tmp"); err != nil {
			t.Fatal(err)
		}
		check("remove tmp")
		if err := h.RemoveVM("tmp"); err != nil {
			t.Fatal(err)
		}

		got := capture()
		if got != want {
			t.Fatalf("cycle %d left state behind:\n got %+v\nwant %+v", cycle, got, want)
		}
	}
}
