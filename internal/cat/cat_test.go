package cat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/memsys"
)

// fakeBackend records the last mask it accepted for each COS. It fails
// every Apply while fail is set, and the failOn-th Apply it sees
// (1-based, 0 never).
type fakeBackend struct {
	ways    int
	applied map[int]bits.CBM // by COS
	fail    bool
	applies int
	failOn  int
}

func newFake(ways int) *fakeBackend {
	return &fakeBackend{ways: ways, applied: make(map[int]bits.CBM)}
}

func (f *fakeBackend) TotalWays() int { return f.ways }

func (f *fakeBackend) Apply(cos int, mask bits.CBM, cores []int) error {
	f.applies++
	if f.fail || f.applies == f.failOn {
		return fmt.Errorf("injected failure on apply %d", f.applies)
	}
	f.applied[cos] = mask
	return nil
}

// freeWays returns the ways no group holds.
func freeWays(m *Manager) int {
	free := m.TotalWays()
	for _, g := range m.Groups() {
		free -= g.Ways
	}
	return free
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil); err == nil {
		t.Error("nil backend should be rejected")
	}
	if _, err := NewManager(newFake(0)); err == nil {
		t.Error("0-way backend should be rejected")
	}
}

func TestCreateGroupRules(t *testing.T) {
	m, _ := NewManager(newFake(20))
	if _, err := m.CreateGroup("", []int{0}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := m.CreateGroup("a", nil); err == nil {
		t.Error("no cores should fail")
	}
	if _, err := m.CreateGroup("a", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateGroup("a", []int{2}); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := m.CreateGroup("b", []int{1}); err == nil {
		t.Error("core already owned should fail")
	}
}

func TestCOSLimit(t *testing.T) {
	m, _ := NewManager(newFake(32))
	for i := 0; i < MaxCOS; i++ {
		if _, err := m.CreateGroup(fmt.Sprintf("g%d", i), []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CreateGroup("overflow", []int{99}); err == nil {
		t.Error("17th group should exceed the COS limit")
	}
}

func TestGroupCountBoundedByWays(t *testing.T) {
	m, _ := NewManager(newFake(4))
	for i := 0; i < 4; i++ {
		if _, err := m.CreateGroup(fmt.Sprintf("g%d", i), []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CreateGroup("extra", []int{9}); err == nil {
		t.Error("more groups than ways cannot all hold >=1 way")
	}
}

func TestSetAllocationLayout(t *testing.T) {
	fb := newFake(20)
	m, _ := NewManager(fb)
	m.CreateGroup("a", []int{0})
	m.CreateGroup("b", []int{1})
	m.CreateGroup("c", []int{2})
	if err := m.SetAllocation([]int{3, 5, 1}); err != nil {
		t.Fatal(err)
	}
	ga, _ := m.Group("a")
	gb, _ := m.Group("b")
	gc, _ := m.Group("c")
	if ga.Mask != bits.MustCBM(0, 3) || gb.Mask != bits.MustCBM(3, 5) || gc.Mask != bits.MustCBM(8, 1) {
		t.Errorf("layout wrong: a=%s b=%s c=%s", ga.Mask, gb.Mask, gc.Mask)
	}
	if free := freeWays(m); free != 11 {
		t.Errorf("free ways %d want 11", free)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	if len(fb.applied) != 3 {
		t.Errorf("backend saw %d applies want 3", len(fb.applied))
	}
}

func TestSetAllocationRejects(t *testing.T) {
	m, _ := NewManager(newFake(8))
	m.CreateGroup("a", []int{0})
	m.CreateGroup("b", []int{1})
	cases := [][]int{
		{4},       // no count for group b
		{1, 1, 1}, // a count for no group
		{0, 4},    // below minimum
		{5, 4},    // exceeds ways
	}
	for i, c := range cases {
		if err := m.SetAllocation(c); err == nil {
			t.Errorf("case %d should be rejected: %v", i, c)
		}
	}
	// State unchanged after rejections.
	for _, g := range m.Groups() {
		if g.Ways != 0 || g.Mask != 0 {
			t.Errorf("rejected allocations must not mutate state: %+v", g)
		}
	}
}

func TestSetAllocationBackendFailure(t *testing.T) {
	fb := newFake(8)
	m, _ := NewManager(fb)
	m.CreateGroup("a", []int{0})
	fb.fail = true
	if err := m.SetAllocation([]int{2}); err == nil {
		t.Fatal("backend failure should surface")
	}
	if m.Groups()[0].Ways != 0 {
		t.Error("failed apply should not record ways")
	}
}

func TestRemoveGroupFreesCoresAndWays(t *testing.T) {
	m, _ := NewManager(newFake(8))
	m.CreateGroup("a", []int{0})
	m.CreateGroup("b", []int{1})
	m.SetAllocation([]int{4, 2})
	if err := m.RemoveGroup("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveGroup("a"); err == nil {
		t.Error("double remove should fail")
	}
	if _, err := m.CreateGroup("c", []int{0}); err != nil {
		t.Errorf("core 0 should be free after removal: %v", err)
	}
	if err := m.SetAllocation([]int{2, 6}); err != nil {
		t.Errorf("ways of removed group should be reusable: %v", err)
	}
}

func TestAllocationSnapshot(t *testing.T) {
	m, _ := NewManager(newFake(8))
	m.CreateGroup("a", []int{0})
	m.CreateGroup("b", []int{1})
	m.SetAllocation([]int{3, 2})
	gs := m.Groups()
	if gs[0].Ways != 3 || gs[1].Ways != 2 {
		t.Errorf("Groups() ways %d, %d want 3, 2", gs[0].Ways, gs[1].Ways)
	}
	// The snapshot is a copy: reordering it leaves the layout alone.
	gs[0], gs[1] = gs[1], gs[0]
	if m.Groups()[0].Name != "a" {
		t.Error("Groups() aliases the manager's table")
	}
	if _, ok := m.Group("missing"); ok {
		t.Error("unknown group should not be found")
	}
}

func TestGroupsOrderStable(t *testing.T) {
	m, _ := NewManager(newFake(20))
	names := []string{"z", "a", "m"}
	for i, n := range names {
		m.CreateGroup(n, []int{i})
	}
	gs := m.Groups()
	for i, n := range names {
		if gs[i].Name != n {
			t.Fatalf("Groups()[%d]=%q want %q (creation order)", i, gs[i].Name, n)
		}
	}
}

// Property: any valid random allocation leaves masks contiguous,
// non-overlapping and within bounds.
func TestAllocationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := NewManager(newFake(20))
		n := rng.Intn(6) + 2
		for i := 0; i < n; i++ {
			m.CreateGroup(fmt.Sprintf("g%d", i), []int{i})
		}
		// Random counts that fit.
		counts := make([]int, n)
		left := 20 - n
		for i := 0; i < n; i++ {
			extra := 0
			if left > 0 {
				extra = rng.Intn(left + 1)
				left -= extra
			}
			counts[i] = 1 + extra
		}
		if err := m.SetAllocation(counts); err != nil {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSimBackend(t *testing.T) {
	sys := memsys.MustNew(memsys.Config{
		Cores: 2,
		L1:    cache.Config{Name: "L1", SizeBytes: 4 * 2 * cache.LineSize, Ways: 2},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 8 * 4 * cache.LineSize, Ways: 4},
		Lat:   memsys.DefaultLatency,
	})
	if _, err := NewSimBackend(nil); err == nil {
		t.Error("nil system should be rejected")
	}
	b, err := NewSimBackend(sys)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalWays() != 4 {
		t.Errorf("TotalWays=%d", b.TotalWays())
	}
	mask := bits.MustCBM(1, 2)
	if err := b.Apply(1, mask, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if sys.Mask(0) != mask || sys.Mask(1) != mask {
		t.Error("masks not installed on cores")
	}
	if err := b.Apply(0, mask, []int{0}); err == nil {
		t.Error("COS 0 out of range should fail")
	}
	if err := b.Apply(17, mask, []int{0}); err == nil {
		t.Error("COS 17 out of range should fail")
	}
	if err := b.Apply(1, mask, []int{5}); err == nil {
		t.Error("unknown core should fail")
	}
}

func TestEndToEndIsolationThroughManager(t *testing.T) {
	sys := memsys.MustNew(memsys.Config{
		Cores: 2,
		L1:    cache.Config{Name: "L1", SizeBytes: 2 * 2 * cache.LineSize, Ways: 2},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 8 * 4 * cache.LineSize, Ways: 4},
		Lat:   memsys.DefaultLatency,
	})
	b, _ := NewSimBackend(sys)
	m, _ := NewManager(b)
	m.CreateGroup("victim", []int{0})
	m.CreateGroup("bully", []int{1})
	if err := m.SetAllocation([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	// Victim warms its 2 ways per set.
	for l := uint64(0); l < 16; l++ {
		sys.Access(0, l)
	}
	// Bully streams far more than the LLC.
	for l := uint64(1000); l < 2000; l++ {
		sys.Access(1, l)
	}
	for l := uint64(0); l < 16; l++ {
		if !sys.LLC().Probe(l) {
			t.Fatalf("victim line %d evicted through CAT isolation", l)
		}
	}
}
