package host

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkHostInterval measures one controller period of a loaded
// socket — the unit of work every experiment repeats tens of times, and
// the loop the set-partitioned memsys.Replay exists to speed up.
func BenchmarkHostInterval(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CyclesPerInterval = 4_000_000
	h := MustNew(cfg)
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.AddVM("mlr", 2, mlr); err != nil {
		b.Fatal(err)
	}
	stream, err := workload.NewMLOAD(60<<20, addr.PageSize4K, h.Allocator())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.AddVM("stream", 2, stream); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		lb, err := workload.NewLookbusy(h.Allocator())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.AddVM(fmt.Sprintf("lb%d", i), 2, lb); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.RunInterval()
	}
}

// BenchmarkNUMAInterval measures one simulated interval plus the
// per-socket controller round on a 2-socket host — the cross-socket
// counterpart of BenchmarkHostInterval.
func BenchmarkNUMAInterval(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CyclesPerInterval = 4_000_000
	cfg.Sockets = 2
	h := MustNew(cfg)
	mlr, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.AddVM("target", 2, mlr); err != nil {
		b.Fatal(err)
	}
	baselines := map[string]int{"target": 3}
	for socket := 0; socket < 2; socket++ {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("lb-s%d-%d", socket, i)
			lb, err := workload.NewLookbusy(h.AllocatorOn(socket))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddVMOn(socket, name, 2, lb); err != nil {
				b.Fatal(err)
			}
			baselines[name] = 3
		}
	}
	ctl, err := h.Controllers(core.DefaultConfig(), baselines)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.RunInterval()
		if err := ctl.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}
