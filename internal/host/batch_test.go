package host

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/perf"
	"repro/internal/workload"
)

// steadyHost is a paper socket with the benchmark's kinds of tenant:
// memory-bound, streaming, SPEC-like, a cloud app, compute-bound and
// idle.
func steadyHost(t *testing.T) *Host {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CyclesPerInterval = 400_000
	h := MustNew(cfg)
	add := func(name string, gen workload.Generator, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AddVM(name, 2, gen); err != nil {
			t.Fatal(err)
		}
	}
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
	add("mlr", mlr, err)
	mload, err := workload.NewMLOAD(60<<20, addr.PageSize4K, h.Allocator())
	add("mload", mload, err)
	redis, err := workload.NewRedis(h.Allocator(), 2)
	add("redis", redis, err)
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p.WSS = 64 << 20
	spec, err := workload.NewSpec(p, h.Allocator(), 3)
	add("mcf", spec, err)
	lb, err := workload.NewLookbusy(h.Allocator())
	add("lookbusy", lb, err)
	add("idle", workload.Idle{}, nil)
	return h
}

// TestRunIntervalAllocatesNothing pins the steady state: a warmed host
// reuses its interval state, its batch buffers and the replay's
// partition buffers, so an interval allocates nothing.
func TestRunIntervalAllocatesNothing(t *testing.T) {
	h := steadyHost(t)
	h.RunIntervals(3, nil)
	if n := testing.AllocsPerRun(5, h.RunInterval); n != 0 {
		t.Fatalf("RunInterval allocates %.1f times per interval, want 0", n)
	}
}

// TestPartitionInvarianceAcrossGOMAXPROCS runs the production path —
// the class count follows GOMAXPROCS, small batches stay on the caller,
// large ones go to the helper pool — at 1, 2 and 4 procs, and requires
// the same totals and counters from each.
func TestPartitionInvarianceAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		h := steadyHost(t)
		h.RunIntervals(3, nil)
		got := ""
		for _, vm := range h.VMs() {
			got += fmt.Sprintf("%s %+v\n", vm.Name, vm.Total())
		}
		for c := 0; c < h.System().Config().Cores; c++ {
			for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
				got += fmt.Sprintf("%d.%d=%d ", c, e, h.Counters().ReadCounter(c, e))
			}
		}
		got += fmt.Sprintf("\n%+v %v", h.System().LLC().Stats(), h.System().LLC().OccupancyByCore())
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS %d:\n%s\nwant\n%s", procs, got, want)
		}
	}
}
