package resctrl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/cat"
)

func mockTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := CreateMockTree(dir, 20, 16, 18); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCreateMockTreeValidation(t *testing.T) {
	dir := t.TempDir()
	bad := [][3]int{{0, 16, 4}, {20, 1, 4}, {20, 16, 0}, {100, 16, 4}}
	for _, g := range bad {
		if err := CreateMockTree(dir, g[0], g[1], g[2]); err == nil {
			t.Errorf("geometry %v should be rejected", g)
		}
	}
}

func TestNewBackendReadsGeometry(t *testing.T) {
	b, err := NewBackend(mockTree(t))
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalWays() != 20 {
		t.Errorf("TotalWays=%d want 20", b.TotalWays())
	}
	if b.MaxCOS() != 16 {
		t.Errorf("MaxCOS=%d want 16", b.MaxCOS())
	}
}

func TestNewBackendRejectsNonResctrl(t *testing.T) {
	if _, err := NewBackend(t.TempDir()); err == nil {
		t.Error("empty dir should not look like resctrl")
	}
}

func TestNewBackendRejectsBadInfo(t *testing.T) {
	dir := mockTree(t)
	os.WriteFile(filepath.Join(dir, "info", "L3", "cbm_mask"), []byte("zz\n"), 0o644)
	if _, err := NewBackend(dir); err == nil {
		t.Error("garbage cbm_mask should be rejected")
	}
	dir = mockTree(t)
	os.WriteFile(filepath.Join(dir, "info", "L3", "num_closids"), []byte("-3\n"), 0o644)
	if _, err := NewBackend(dir); err == nil {
		t.Error("bad num_closids should be rejected")
	}
	dir = mockTree(t)
	os.WriteFile(filepath.Join(dir, "schemata"), []byte("MB:0=100\n"), 0o644)
	if _, err := NewBackend(dir); err == nil {
		t.Error("schemata without L3 line should be rejected")
	}
}

func TestApplyWritesGroupFiles(t *testing.T) {
	dir := mockTree(t)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	mask := bits.MustCBM(4, 6)
	if err := b.Apply(2, mask, []int{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	schemata, err := os.ReadFile(filepath.Join(dir, "cos2", "schemata"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(schemata)); got != "L3:0=3f0" {
		t.Errorf("schemata %q want L3:0=3f0", got)
	}
	cpus, err := os.ReadFile(filepath.Join(dir, "cos2", "cpus_list"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(cpus)); got != "1-3" {
		t.Errorf("cpus_list %q want 1-3", got)
	}
	// Readback helper.
	line, err := b.Schemata(2)
	if err != nil || line != "L3:0=3f0" {
		t.Errorf("Schemata(2)=%q,%v", line, err)
	}
	if _, err := b.Schemata(9); err == nil {
		t.Error("unapplied COS readback should fail")
	}
}

// TestApplySkipsUnchangedCPUList: a mask change alone must not rewrite
// cpus_list. Once another COS takes those CPUs (the kernel moves them
// out of the old group) or a write fails, the next Apply writes it again.
func TestApplySkipsUnchangedCPUList(t *testing.T) {
	dir := mockTree(t)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cos1", "cpus_list")
	read := func() string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(data))
	}
	apply := func(cos int, mask bits.CBM, cores []int) {
		t.Helper()
		if err := b.Apply(cos, mask, cores); err != nil {
			t.Fatal(err)
		}
	}
	apply(1, bits.MustCBM(0, 4), []int{2, 3})
	if got := read(); got != "2-3" {
		t.Fatalf("first Apply wrote cpus_list %q, want 2-3", got)
	}
	// Stand-in for "untouched": anything Apply writes replaces it.
	if err := os.WriteFile(path, []byte("sentinel\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	apply(1, bits.MustCBM(0, 6), []int{3, 2})
	if got := read(); got != "sentinel" {
		t.Errorf("mask change rewrote cpus_list to %q", got)
	}
	// A COS with disjoint CPUs leaves COS 1's list standing.
	apply(2, bits.MustCBM(6, 2), []int{5})
	apply(1, bits.MustCBM(0, 5), []int{2, 3})
	if got := read(); got != "sentinel" {
		t.Errorf("disjoint COS write made COS 1 rewrite cpus_list to %q", got)
	}
	// COS 3 takes CPU 3: COS 1's list is stale and must be rewritten.
	apply(3, bits.MustCBM(8, 2), []int{3})
	apply(1, bits.MustCBM(0, 4), []int{2, 3})
	if got := read(); got != "2-3" {
		t.Errorf("after another COS took its CPUs, cpus_list is %q, want 2-3", got)
	}

	// A failed write forgets the list: cpus_list as a directory makes the
	// write fail; once it is a file again the next Apply writes it.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(1, bits.MustCBM(0, 3), []int{0, 1}); err == nil {
		t.Fatal("writing cpus_list over a directory should fail")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	apply(1, bits.MustCBM(0, 3), []int{0, 1})
	if got := read(); got != "0-1" {
		t.Errorf("after a failed write, cpus_list is %q, want 0-1", got)
	}
}

func TestApplyValidation(t *testing.T) {
	b, _ := NewBackend(mockTree(t))
	if err := b.Apply(0, bits.FullMask(4), []int{0}); err == nil {
		t.Error("COS 0 is the root group; must be rejected")
	}
	if err := b.Apply(16, bits.FullMask(4), []int{0}); err == nil {
		t.Error("COS beyond num_closids must be rejected")
	}
	if err := b.Apply(1, bits.CBM(0x5), []int{0}); err == nil {
		t.Error("non-contiguous mask must be rejected")
	}
	if err := b.Apply(1, bits.MustCBM(15, 10), []int{0}); err == nil {
		t.Error("mask beyond 20 ways must be rejected")
	}
}

func TestApplyMultiDomain(t *testing.T) {
	dir := t.TempDir()
	if err := CreateMockTree(dir, 12, 8, 8); err != nil {
		t.Fatal(err)
	}
	// Two sockets.
	os.WriteFile(filepath.Join(dir, "schemata"), []byte("L3:0=fff;1=fff\n"), 0o644)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(1, bits.MustCBM(0, 3), []int{0}); err != nil {
		t.Fatal(err)
	}
	line, _ := b.Schemata(1)
	if line != "L3:0=7;1=7" {
		t.Errorf("multi-domain schemata %q", line)
	}
}

// TestCleanup: Cleanup closes every held schemata descriptor and
// removes every group.
func TestCleanup(t *testing.T) {
	dir := mockTree(t)
	b, _ := NewBackend(dir)
	b.Apply(1, bits.FullMask(2), []int{0})
	b.Apply(2, bits.MustCBM(2, 2), []int{1})
	b.Apply(2, bits.MustCBM(2, 1), []int{1})
	var held []*os.File
	for _, f := range b.groups {
		held = append(held, f)
	}
	// Mock trees hold files inside group dirs; the kernel's rmdir works
	// on non-empty resctrl dirs but os.Remove does not, so empty them
	// first to emulate.
	for _, cos := range []string{"cos1", "cos2"} {
		entries, _ := os.ReadDir(filepath.Join(dir, cos))
		for _, e := range entries {
			os.Remove(filepath.Join(dir, cos, e.Name()))
		}
	}
	if err := b.Cleanup(); err != nil {
		t.Fatal(err)
	}
	for _, cos := range []string{"cos1", "cos2"} {
		if _, err := os.Stat(filepath.Join(dir, cos)); !os.IsNotExist(err) {
			t.Errorf("%s group dir should be gone", cos)
		}
	}
	if len(held) != 2 || len(b.groups) != 0 {
		t.Errorf("held %d descriptors before Cleanup and %d after, want 2 and 0", len(held), len(b.groups))
	}
	for _, f := range held {
		if _, err := f.Write([]byte("x")); err == nil {
			t.Errorf("%s still open after Cleanup", f.Name())
		}
	}
}

func TestFormatCPUList(t *testing.T) {
	tests := []struct {
		cores []int
		want  string
	}{
		{nil, ""},
		{[]int{4}, "4"},
		{[]int{0, 1, 2}, "0-2"},
		{[]int{2, 0, 1}, "0-2"},
		{[]int{0, 2, 3, 7}, "0,2-3,7"},
		{[]int{5, 5, 6}, "5-6"},
	}
	for _, tt := range tests {
		if got := formatCPUList(tt.cores); got != tt.want {
			t.Errorf("formatCPUList(%v)=%q want %q", tt.cores, got, tt.want)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	got, err := ParseCPUList("0,2-4,9")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 3, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("ParseCPUList=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseCPUList=%v want %v", got, want)
		}
	}
	if _, err := ParseCPUList("3-1"); err == nil {
		t.Error("descending range should fail")
	}
	if _, err := ParseCPUList("x"); err == nil {
		t.Error("garbage should fail")
	}
	if got, err := ParseCPUList(""); err != nil || got != nil {
		t.Error("empty list should parse to nil")
	}
}

// Property: format/parse round-trips any sorted unique core set.
func TestCPUListRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[int]bool{}
		var cores []int
		for _, r := range raw {
			c := int(r % 64)
			if !seen[c] {
				seen[c] = true
				cores = append(cores, c)
			}
		}
		parsed, err := ParseCPUList(formatCPUList(cores))
		if err != nil {
			return false
		}
		if len(parsed) != len(cores) {
			return false
		}
		back := map[int]bool{}
		for _, c := range parsed {
			back[c] = true
		}
		for _, c := range cores {
			if !back[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The backend must satisfy cat.Backend and work under the Manager.
func TestBackendWithManager(t *testing.T) {
	dir := mockTree(t)
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var _ cat.Backend = b
	mgr, err := cat.NewManager(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateGroup("vm1", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateGroup("vm2", []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetAllocation([]int{6, 3}); err != nil {
		t.Fatal(err)
	}
	line, _ := b.Schemata(1)
	if line != "L3:0=3f" {
		t.Errorf("vm1 schemata %q want L3:0=3f", line)
	}
	line, _ = b.Schemata(2)
	if line != "L3:0=1c0" {
		t.Errorf("vm2 schemata %q want L3:0=1c0", line)
	}
}
