package heracles

import (
	"reflect"
	"testing"

	"repro/internal/policy"
)

// rig drives the policy with hand-built rounds over a 20-way cache:
// workload "lc" with a scripted IPC, every other name best-effort.
type rig struct {
	t    *testing.T
	pol  *Policy
	view policy.View
	g    policy.Grants
}

func newRig(t *testing.T, names ...string) *rig {
	t.Helper()
	pol, err := NewPolicy(DefaultConfig(0.5), "lc")
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, pol: pol, view: policy.View{TotalWays: 20}}
	for _, n := range names {
		r.view.Workloads = append(r.view.Workloads, policy.WorkloadView{Name: n})
	}
	return r
}

// tick runs one round with the LC workload at the given IPC and returns
// the grants, after checking the invariants the controller would hold
// the policy to: every workload at least one way, the sum exactly the
// cache (Heracles leaves no free pool, so the controller derives an
// empty one).
func (r *rig) tick(lcIPC float64) []int {
	r.t.Helper()
	for i := range r.view.Workloads {
		if r.view.Workloads[i].Name == "lc" {
			r.view.Workloads[i].IPC = lcIPC
		}
	}
	r.pol.Propose(&r.view, &r.g)
	sum := 0
	for i, w := range r.g.Ways {
		if w < 1 {
			r.t.Fatalf("workload %d granted %d ways", i, w)
		}
		sum += w
	}
	if sum != r.view.TotalWays {
		r.t.Fatalf("grants %v sum to %d of %d ways", r.g.Ways, sum, r.view.TotalWays)
	}
	return r.g.Ways
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(0.5).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TargetIPC: 0, Margin: 0.05, GrowStep: 1, YieldStep: 1, MinLC: 1, MinBE: 1},
		{TargetIPC: 1, Margin: 0, GrowStep: 1, YieldStep: 1, MinLC: 1, MinBE: 1},
		{TargetIPC: 1, Margin: 0.05, GrowStep: 0, YieldStep: 1, MinLC: 1, MinBE: 1},
		{TargetIPC: 1, Margin: 0.05, GrowStep: 1, YieldStep: 1, MinLC: 0, MinBE: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
		if _, err := NewPolicy(c, "lc"); err == nil {
			t.Errorf("NewPolicy should reject config %d", i)
		}
	}
}

func TestStartsAtEvenSplit(t *testing.T) {
	r := newRig(t, "lc", "be")
	if !r.pol.IndependentAllocator() {
		t.Error("Heracles owns the whole allocation: it must be an Independent allocator")
	}
	if got := r.tick(0.5); !reflect.DeepEqual(got, []int{10, 10}) {
		t.Errorf("initial split %v want 10/10", got)
	}
}

func TestConfiscatesUnderSLOPressure(t *testing.T) {
	r := newRig(t, "lc", "be")
	if got := r.tick(0.3); got[0] != 12 { // well below target
		t.Errorf("LC should grow by GrowStep=2 to 12, got %d", got[0])
	}
	for i := 0; i < 20; i++ {
		r.tick(0.3)
	}
	if got := r.g.Ways; got[1] != 1 || r.pol.LCWays() != 19 {
		t.Errorf("sustained pressure should squeeze BE to its 1-way floor, got %v", got)
	}
}

func TestYieldsWithSlack(t *testing.T) {
	r := newRig(t, "lc", "be")
	if got := r.tick(0.8); got[0] != 9 || got[1] != 11 { // comfortable slack
		t.Errorf("LC should yield one way to 9/11, got %v", got)
	}
	for i := 0; i < 20; i++ {
		r.tick(0.8)
	}
	if got := r.g.Ways[0]; got != DefaultConfig(0.5).MinLC {
		t.Errorf("sustained slack should shrink LC to its floor, got %d", got)
	}
}

func TestDeadZoneHolds(t *testing.T) {
	r := newRig(t, "lc", "be")
	r.tick(0.51) // within ±5% of target
	if got := r.tick(0.51); got[0] != 10 {
		t.Errorf("IPC inside the margin should not move the split, got %d", got[0])
	}
}

func TestAsymmetricResponse(t *testing.T) {
	// Confiscation (2 ways) must outpace yielding (1 way): the
	// controller defends the SLO faster than it donates.
	r := newRig(t, "lc", "be")
	r.tick(0.3) // 12
	r.tick(0.8) // 11
	if got := r.tick(0.8); got[0] != 10 {
		t.Errorf("after 1 violation + 2 slack rounds, expected back to 10, got %d", got[0])
	}
}

// With several best-effort targets the BE ways spread evenly, earlier
// targets taking the remainder, and each keeps a way under pressure.
func TestBestEffortSpread(t *testing.T) {
	r := newRig(t, "be1", "lc", "be2", "be3")
	if got := r.tick(0.5); !reflect.DeepEqual(got, []int{4, 10, 3, 3}) {
		t.Errorf("10 BE ways over three targets: got %v want [4 10 3 3]", got)
	}
	for i := 0; i < 20; i++ {
		r.tick(0.3)
	}
	if got := r.g.Ways; !reflect.DeepEqual(got, []int{1, 17, 1, 1}) {
		t.Errorf("sustained pressure should leave each BE target one way: got %v", got)
	}
}

func TestNoLCFallsBackToEvenSplit(t *testing.T) {
	r := newRig(t, "a", "b", "c")
	if got := r.tick(0.3); !reflect.DeepEqual(got, []int{7, 7, 6}) {
		t.Errorf("no LC workload in the round: got %v want the even split [7 7 6]", got)
	}
	alone := newRig(t, "lc")
	if got := alone.tick(0.3); !reflect.DeepEqual(got, []int{20}) {
		t.Errorf("an LC workload with no best-effort class holds the cache: got %v", got)
	}
}
