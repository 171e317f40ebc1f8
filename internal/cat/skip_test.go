package cat

import (
	"testing"

	"repro/internal/bits"
)

// countingBackend counts Apply calls.
type countingBackend struct {
	ways    int
	applies int
}

func (c *countingBackend) TotalWays() int { return c.ways }
func (c *countingBackend) Apply(cos int, m bits.CBM, cores []int) error {
	c.applies++
	return nil
}

func TestSetAllocationSkipsUnchangedGroups(t *testing.T) {
	cb := &countingBackend{ways: 20}
	m, _ := NewManager(cb)
	m.CreateGroup("a", []int{0})
	m.CreateGroup("b", []int{1})
	if err := m.SetAllocation([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	if cb.applies != 2 {
		t.Fatalf("initial allocation should apply both groups, got %d", cb.applies)
	}
	// Steady state: nothing changes, nothing is written.
	if err := m.SetAllocation([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	if cb.applies != 2 {
		t.Errorf("unchanged allocation should skip Apply, got %d total", cb.applies)
	}
	// Growing a shifts b's layout: both rewritten.
	if err := m.SetAllocation([]int{5, 4}); err != nil {
		t.Fatal(err)
	}
	if cb.applies != 4 {
		t.Errorf("layout shift should rewrite both groups, got %d total", cb.applies)
	}
}
