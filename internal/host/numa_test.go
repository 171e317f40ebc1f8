package host

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/workload"
)

func numaConfig(sockets int, penalty uint64) Config {
	cfg := testConfig()
	cfg.Sockets = sockets
	cfg.RemotePenalty = penalty
	return cfg
}

func TestNUMAHostConstruction(t *testing.T) {
	h := MustNew(numaConfig(2, 130))
	if h.NUMA() == nil || h.NUMA().Sockets() != 2 {
		t.Fatal("2-socket config should build a NUMA hierarchy")
	}
	// 64 MB split across 2 sockets, 2 MB-aligned.
	if got := h.MemBytesPerSocket(); got != 32<<20 {
		t.Errorf("MemBytesPerSocket=%d want %d", got, 32<<20)
	}
	if h.System() != h.NUMA().Socket(0) {
		t.Error("System() should expose socket 0")
	}
	cfg := numaConfig(16, 0)
	if _, err := New(cfg); err == nil {
		t.Error("16 sockets should exceed memsys.MaxSockets")
	}
	cfg = numaConfig(8, 0)
	cfg.MemBytes = 4 << 20 // 0.5 MB/socket after the split
	if _, err := New(cfg); err == nil {
		t.Error("sub-1MB per-socket memory should be rejected")
	}
}

func TestAddVMOnPlacement(t *testing.T) {
	h := MustNew(numaConfig(2, 0)) // 4 cores per socket
	a, err := h.AddVMOn(0, "a", 2, workload.Idle{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AddVMOn(1, "b", 2, workload.Idle{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Socket != 0 || a.Cores[0] != 0 || a.Cores[1] != 1 {
		t.Errorf("a placed wrong: socket=%d cores=%v", a.Socket, a.Cores)
	}
	if b.Socket != 1 || b.Cores[0] != 4 || b.Cores[1] != 5 {
		t.Errorf("b placed wrong: socket=%d cores=%v", b.Socket, b.Cores)
	}
	// Each socket has its own core budget: socket 0 still has 2 free
	// even though socket 1 now has only 2.
	if _, err := h.AddVMOn(0, "c", 2, workload.Idle{}); err != nil {
		t.Errorf("socket 0 should still have cores: %v", err)
	}
	if _, err := h.AddVMOn(1, "d", 3, workload.Idle{}); err == nil {
		t.Error("socket 1 has only 2 free cores; 3 should fail")
	}
	if _, err := h.AddVMOn(2, "e", 1, workload.Idle{}); err == nil {
		t.Error("socket 2 does not exist")
	}
	if _, err := h.AddVMOn(-1, "f", 1, workload.Idle{}); err == nil {
		t.Error("negative socket should be rejected")
	}
}

func TestAllocatorOnStaysInSocketRange(t *testing.T) {
	h := MustNew(numaConfig(2, 0))
	per := h.MemBytesPerSocket()
	for s := 0; s < 2; s++ {
		alloc := h.AllocatorOn(s)
		lo, hi := uint64(s)*per, uint64(s+1)*per
		for i := 0; i < 100; i++ {
			a, err := alloc.AllocFrame(addr.PageSize4K)
			if err != nil {
				t.Fatal(err)
			}
			if a < lo || a >= hi {
				t.Fatalf("socket %d frame %#x outside [%#x,%#x)", s, a, lo, hi)
			}
			if home := h.NUMA().HomeOf(a / 64); home != s {
				t.Fatalf("socket %d frame %#x homed on socket %d", s, a, home)
			}
		}
	}
}

// TestSocketsZeroMeansOne pins the Config.Sockets contract: 0 and 1
// build identical one-socket hosts — same topology, same memory range,
// same frame placement, same core assignment.
func TestSocketsZeroMeansOne(t *testing.T) {
	zero, one := MustNew(numaConfig(0, 0)), MustNew(numaConfig(1, 0))
	if zero.NUMA().Config() != one.NUMA().Config() {
		t.Fatalf("topologies differ: %+v vs %+v", zero.NUMA().Config(), one.NUMA().Config())
	}
	if got := zero.NUMA().Sockets(); got != 1 {
		t.Fatalf("Sockets=0 built %d sockets", got)
	}
	if zero.MemBytesPerSocket() != testConfig().MemBytes {
		t.Errorf("a lone socket should keep the whole range, got %d", zero.MemBytesPerSocket())
	}
	for i := 0; i < 64; i++ {
		a, errA := zero.Allocator().AllocFrame(addr.PageSize4K)
		b, errB := one.Allocator().AllocFrame(addr.PageSize4K)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("frame %d: %#x (%v) vs %#x (%v)", i, a, errA, b, errB)
		}
	}
	va, errA := zero.AddVM("vm", 2, workload.Idle{})
	vb, errB := one.AddVM("vm", 2, workload.Idle{})
	if errA != nil || errB != nil || va.Socket != vb.Socket || va.Cores[0] != vb.Cores[0] || va.Cores[1] != vb.Cores[1] {
		t.Fatalf("placement differs: %+v (%v) vs %+v (%v)", va, errA, vb, errB)
	}
}

// TestRemotePlacementCostsLatency runs the same working set twice on a
// 2-socket host — frames local to the VM's socket, then remote — and
// expects the remote run to report higher access latency plus non-zero
// cross-socket traffic.
func TestRemotePlacementCostsLatency(t *testing.T) {
	run := func(memSocket int) (float64, uint64) {
		h := MustNew(numaConfig(2, 130))
		mlr, err := workload.NewMLR(4<<20, addr.PageSize4K, h.AllocatorOn(memSocket), 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AddVMOn(1, "mlr", 2, mlr); err != nil {
			t.Fatal(err)
		}
		h.RunIntervals(2, nil)
		vm, _ := h.VM("mlr")
		return vm.Last().AvgAccessLatency(), h.NUMA().RemoteAccesses(1)
	}
	localLat, localRemote := run(1)
	remoteLat, remoteRemote := run(0)
	if localRemote != 0 {
		t.Errorf("local placement recorded %d remote accesses", localRemote)
	}
	if remoteRemote == 0 {
		t.Error("remote placement recorded no remote accesses")
	}
	if remoteLat <= localLat {
		t.Errorf("remote latency %.1f not above local %.1f", remoteLat, localLat)
	}
}
