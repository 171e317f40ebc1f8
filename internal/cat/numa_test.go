package cat

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/memsys"
)

// twoSocketSystem builds a tiny 2-socket host: 2 cores and a 4-way LLC
// per socket, 1 MB of DRAM homed on each.
func twoSocketSystem(t *testing.T) *memsys.NUMASystem {
	t.Helper()
	n, err := memsys.NewNUMA(memsys.NUMAConfig{
		Sockets: 2,
		Socket: memsys.Config{
			Cores: 2,
			L1:    cache.Config{Name: "L1", SizeBytes: 2 * 2 * cache.LineSize, Ways: 2},
			LLC:   cache.Config{Name: "LLC", SizeBytes: 8 * 4 * cache.LineSize, Ways: 4},
			Lat:   memsys.Latency{L1Hit: 4, LLCHit: 40, DRAM: 200},
		},
		MemBytesPerSocket: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNUMABackendValidation(t *testing.T) {
	if _, err := NewNUMABackend(nil, 0); err == nil {
		t.Error("nil system should be rejected")
	}
	n := twoSocketSystem(t)
	for _, bad := range []int{-1, 2, 8} {
		if _, err := NewNUMABackend(n, bad); err == nil {
			t.Errorf("socket %d should be out of range", bad)
		}
	}
	b, err := NewNUMABackend(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Socket() != 1 {
		t.Errorf("Socket()=%d want 1", b.Socket())
	}
	if b.TotalWays() != 4 {
		t.Errorf("TotalWays()=%d want 4", b.TotalWays())
	}
}

func TestNUMABackendRejectsForeignCores(t *testing.T) {
	n := twoSocketSystem(t)
	b, err := NewNUMABackend(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	mask := bits.MustCBM(0, 2)
	cases := []struct {
		name  string
		cores []int
		ok    bool
	}{
		{"own cores", []int{0, 1}, true},
		{"foreign core", []int{2}, false},
		{"mixed cores", []int{0, 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := b.Apply(1, mask, tc.cores); (err == nil) != tc.ok {
				t.Errorf("Apply(cores=%v) err=%v, want ok=%v", tc.cores, err, tc.ok)
			}
			if _, err := b.GroupOccupancy(1, tc.cores); (err == nil) != tc.ok {
				t.Errorf("GroupOccupancy(cores=%v) err=%v, want ok=%v", tc.cores, err, tc.ok)
			}
		})
	}
	if err := b.Apply(0, mask, []int{0}); err == nil {
		t.Error("COS 0 should be out of range")
	}
	if err := b.Apply(MaxCOS+1, mask, []int{0}); err == nil {
		t.Error("COS beyond MaxCOS should be out of range")
	}
}

// TestNUMABackendSocketIsolation pins the per-socket CAT domain
// guarantee end to end: a manager driving socket 0 can never mask ways
// on socket 1, no matter what allocation it installs.
func TestNUMABackendSocketIsolation(t *testing.T) {
	n := twoSocketSystem(t)
	b, err := NewNUMABackend(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateGroup("a", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateGroup("b", []int{1}); err != nil {
		t.Fatal(err)
	}
	full := bits.FullMask(4)
	for _, alloc := range [][]int{
		{1, 3},
		{3, 1},
		{2, 2},
	} {
		if err := mgr.SetAllocation(alloc); err != nil {
			t.Fatalf("SetAllocation(%v): %v", alloc, err)
		}
		// Socket 0's masks follow the allocation (narrower than full)…
		if got := n.Mask(0); got == full {
			t.Errorf("alloc %v left socket-0 core 0 mask full", alloc)
		}
		// …while socket 1's cores keep every way fillable.
		for _, core := range []int{2, 3} {
			if got := n.Mask(core); got != full {
				t.Errorf("alloc %v masked socket-1 core %d to %s", alloc, core, got)
			}
		}
	}
}

// TestNUMABackendOccupancyIsSocketLocal checks occupancy reads count
// the owning socket's LLC only, keyed by socket-local core.
func TestNUMABackendOccupancyIsSocketLocal(t *testing.T) {
	n := twoSocketSystem(t)
	// Core 2 (socket 1, local 0) warms 8 lines of its own memory.
	for l := uint64(0); l < 8; l++ {
		n.Access(2, (1<<20)/64+l)
	}
	b1, err := NewNUMABackend(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := b1.GroupOccupancy(1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if occ != 8*cache.LineSize {
		t.Errorf("socket-1 occupancy=%d want %d", occ, 8*cache.LineSize)
	}
	// The same lines contribute nothing on socket 0's LLC.
	b0, err := NewNUMABackend(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	occ0, err := b0.GroupOccupancy(1, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if occ0 != 0 {
		t.Errorf("socket-0 occupancy=%d want 0", occ0)
	}
}
