package cat

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/memsys"
)

func TestManagerOccupancyUnsupportedBackend(t *testing.T) {
	m, _ := NewManager(newFake(8))
	if _, ok := m.Occupancy(); ok {
		t.Error("fake backend has no monitoring; Occupancy should report false")
	}
}

func TestSimBackendOccupancy(t *testing.T) {
	sys := memsys.MustNew(memsys.Config{
		Cores: 2,
		L1:    cache.Config{Name: "L1", SizeBytes: 2 * 2 * cache.LineSize, Ways: 2},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 8 * 4 * cache.LineSize, Ways: 4},
		Lat:   memsys.DefaultLatency,
	})
	b, _ := NewSimBackend(sys)
	m, _ := NewManager(b)
	m.CreateGroup("a", []int{0})
	m.CreateGroup("b", []int{1})
	if err := m.SetAllocation([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	// Tenant a fills 5 lines; tenant b 3.
	for l := uint64(0); l < 5; l++ {
		sys.Access(0, l)
	}
	for l := uint64(100); l < 103; l++ {
		sys.Access(1, l)
	}
	occ, ok := m.Occupancy()
	if !ok {
		t.Fatal("sim backend should support occupancy monitoring")
	}
	if occ["a"] != 5*cache.LineSize {
		t.Errorf("occupancy a=%d want %d", occ["a"], 5*cache.LineSize)
	}
	if occ["b"] != 3*cache.LineSize {
		t.Errorf("occupancy b=%d want %d", occ["b"], 3*cache.LineSize)
	}
}

func TestOccupancyBoundedByCapacity(t *testing.T) {
	sys := memsys.MustNew(memsys.Config{
		Cores: 1,
		L1:    cache.Config{Name: "L1", SizeBytes: 2 * 2 * cache.LineSize, Ways: 2},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 8 * 4 * cache.LineSize, Ways: 4},
		Lat:   memsys.DefaultLatency,
	})
	b, _ := NewSimBackend(sys)
	m, _ := NewManager(b)
	m.CreateGroup("a", []int{0})
	m.SetAllocation([]int{2})
	for l := uint64(0); l < 1000; l++ {
		sys.Access(0, l)
	}
	occ, _ := m.Occupancy()
	// 2 ways x 8 sets = 16 lines maximum.
	if occ["a"] > 16*cache.LineSize {
		t.Errorf("occupancy %d exceeds the group's 2-way capacity", occ["a"])
	}
	_ = bits.CBM(0)
}
