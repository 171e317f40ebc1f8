package resctrl

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bits"
)

func TestGroupOccupancyFromMockTree(t *testing.T) {
	dir := mockTree(t)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(1, bits.FullMask(4), []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GroupOccupancy(1, []int{0}); err == nil {
		t.Error("occupancy without CMT files should error")
	}
	if err := WriteMockOccupancy(dir, 1, 123456); err != nil {
		t.Fatal(err)
	}
	got, err := b.GroupOccupancy(1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 123456 {
		t.Errorf("occupancy=%d want 123456", got)
	}
	if _, err := b.GroupOccupancy(9, nil); err == nil {
		t.Error("unapplied COS should error")
	}
}

// TestGroupOccupancySumsDomains: a group programmed across two L3
// domains reports the occupancy of both, not domain 0's alone.
func TestGroupOccupancySumsDomains(t *testing.T) {
	dir := t.TempDir()
	if err := CreateMockTree(dir, 12, 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "schemata"), []byte("L3:0=fff;1=fff\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(1, bits.MustCBM(0, 3), []int{4}); err != nil {
		t.Fatal(err)
	}
	// The group's cores sit on domain 1: domain 0 holds none of its lines.
	if err := WriteMockOccupancy(dir, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GroupOccupancy(1, []int{4}); err == nil {
		t.Error("occupancy with domain 1's CMT file missing should error")
	}
	if err := writeMockOccupancy(dir, 1, 1, 654321); err != nil {
		t.Fatal(err)
	}
	got, err := b.GroupOccupancy(1, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 654321 {
		t.Errorf("occupancy=%d want 654321", got)
	}
}
