package core

import (
	"testing"

	"repro/internal/cat"
	"repro/internal/perf"
	"repro/internal/policy"
)

// hostilePolicy is an allocation engine that breaks every rule a policy
// can break: its grants come from grant, never sustain a Reclaim, and
// may be zero or exceed the socket. Third-party policy logic (LFOC,
// learned managers) is what the controller's guard rails must contain.
type hostilePolicy struct {
	tick  int
	grant func(tick, i int, w policy.WorkloadView, total int) int
}

func (h *hostilePolicy) Name() string { return "hostile" }

func (h *hostilePolicy) Propose(v *policy.View, g *policy.Grants) {
	g.Reset(len(v.Workloads))
	for i, w := range v.Workloads {
		g.Ways[i] = h.grant(h.tick, i, w, v.TotalWays)
	}
	h.tick++
}

// TestGuardsContainHostilePolicy ticks a controller whose policy grants
// zero, over-total and Reclaim-ignoring allocations, then hot-plugs a
// tenant into the full pool. After every step each workload holds at
// least one way, the sum fits the socket, an unsustained Reclaim sits at
// its baseline, and the CAT state validates; and both the allocator and
// AddTarget shave the largest above-baseline holder first.
func TestGuardsContainHostilePolicy(t *testing.T) {
	const total = 12
	h := &hostilePolicy{grant: func(_, i int, _ policy.WorkloadView, _ int) int {
		return []int{8, 6, 0}[i] // 15 ways asked of 12, one grant zero
	}}
	cfg := DefaultConfig()
	cfg.NewPolicy = func() policy.AllocationPolicy { return h }
	file := perf.NewFile(4)
	mgr, err := cat.NewManager(&fakeBackend{ways: total})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	var targets []Target
	for i, n := range names {
		targets = append(targets, Target{Name: n, Cores: []int{i}, BaselineWays: 2})
	}
	ctl, err := New(cfg, mgr, file, targets)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, file: file, mgr: mgr, ctl: ctl, order: names, behaviors: map[string]behavior{
		// a flips its accesses per instruction every 3 ticks: a Reclaim
		// on every flip.
		"a": cycleBehavior(3, mlrBehavior(6), withL1Ref(mlrBehavior(6), 100_000)),
		"b": streamBehavior(),
		"c": tableBehavior(10, 0.06),
		"d": mlrBehavior(4),
	}}
	wantWays := func(step string, want ...int) {
		t.Helper()
		for i, n := range r.order {
			if got := ctl.Ways(n); got != want[i] {
				t.Errorf("%s: %s holds %d ways, want %d (want %v)", step, n, got, want[i], want)
			}
		}
	}
	// CheckInvariants covers the 1-way floor, the way sum and the CAT
	// layout; the Reclaim pin is checked here.
	invariants := func(step string) {
		t.Helper()
		checkInvariants(t, ctl, step)
		for _, n := range r.order {
			if st, _ := ctl.StateOf(n); st == StateReclaim && ctl.Ways(n) != ctl.ws[n].baseline {
				t.Errorf("%s: unsustained Reclaim %s at %d ways, baseline %d", step, n, ctl.Ways(n), ctl.ws[n].baseline)
			}
		}
	}

	// Surpluses 6, 4 and -1 after the 1-way floor: three ways come off
	// a (6 → 5 → 4, now tied with b, and the first of a tie goes).
	r.tick()
	invariants("first tick")
	wantWays("first tick", 5, 6, 1)

	// A newcomer at its baseline into the full pool: two ways come off
	// b (surplus 4), then a (3, tied with b's 3, first in order).
	if err := ctl.AddTarget(0, Target{Name: "d", Cores: []int{3}, BaselineWays: 2}, nil); err != nil {
		t.Fatal(err)
	}
	r.order = append(r.order, "d")
	invariants("arrival")
	wantWays("arrival", 4, 5, 1, 2)

	// Zero, over-total and grown grants in rotation; a Reclaim gets zero
	// or the whole socket, never a Sustain.
	h.grant = func(tick, i int, w policy.WorkloadView, total int) int {
		if w.Category == policy.Reclaim {
			return []int{0, total + 1}[tick%2]
		}
		return []int{0, total + 1, w.Ways + 3}[(tick+i)%3]
	}
	reclaims := 0
	for k := 0; k < 30; k++ {
		r.tick()
		invariants("hostile tick")
		if st, _ := ctl.StateOf("a"); st == StateReclaim {
			reclaims++
		}
	}
	if reclaims == 0 {
		t.Error("no Reclaim met the hostile grants")
	}
}
