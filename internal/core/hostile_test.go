package core

import (
	"testing"

	"repro/internal/cat"
	"repro/internal/obs"
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
// its baseline, and the CAT state validates; after every tick the
// denied and pool-empty flags match the guarded grants; and both the
// allocator and AddTarget shave the largest above-baseline holder
// first.
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
	// layout; the Reclaim pin and, after a tick, the derived Fig. 6
	// flags are checked here.
	invariants := func(step string) {
		t.Helper()
		checkInvariants(t, ctl, step)
		if step != "arrival" {
			checkDerivedFlags(t, ctl, step)
		}
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

// checkDerivedFlags fails the test unless the flags the next tick's
// categorizer reads agree with the ways just applied: a non-Reclaim is
// denied exactly when it holds fewer ways than it desired, and the pool
// is empty exactly when the ways fill the socket.
func checkDerivedFlags(t *testing.T, ctl *Controller, step string) {
	t.Helper()
	for _, l := range ctl.loops {
		sum := 0
		for _, w := range l.order {
			sum += w.ways
			if want := w.state != StateReclaim && w.ways < w.desire; w.denied != want {
				t.Errorf("%s: %s (%v) at %d ways desiring %d has denied=%v", step, w.name, w.state, w.ways, w.desire, w.denied)
			}
		}
		if want := sum == l.mgr.TotalWays(); l.poolEmpty != want {
			t.Errorf("%s: socket %d holds %d of %d ways with poolEmpty=%v", step, l.socket, sum, l.mgr.TotalWays(), l.poolEmpty)
		}
	}
}

// TestDeniedUnknownTurnsStreaming walks Fig. 6's Streaming-on-denial
// row end to end. An arrival probes as an Unknown inside its
// classification grace, its miss rate never flattening, up to
// StreamingMult × baseline (6 ways), where the full socket denies its
// next way. The grace has then run out, so on the next tick the held,
// denied Unknown is Streaming.
func TestDeniedUnknownTurnsStreaming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrivalGraceTicks = 5
	// IPC flat whatever the ways; the miss rate swings with their parity.
	swing := func(ways int) perf.Sample {
		miss := 0.6
		if ways%2 == 1 {
			miss = 0.3
		}
		return perf.Sample{L1Ref: 500_000, LLCRef: 400_000, LLCMiss: uint64(miss * 400_000),
			RetIns: 1_000_000, Cycles: 50_000_000}
	}
	file := perf.NewFile(2)
	mgr, err := cat.NewManager(&fakeBackend{ways: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(cfg, mgr, file, []Target{{Name: "idle", Cores: []int{0}, BaselineWays: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddTarget(0, Target{Name: "s", Cores: []int{1}, BaselineWays: 2}, nil); err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, file: file, mgr: mgr, ctl: ctl, order: []string{"idle", "s"},
		behaviors: map[string]behavior{"idle": idleBehavior(), "s": swing}}
	for want := 3; want <= 6; want++ {
		r.tick()
		checkDerivedFlags(t, r.ctl, "probe")
		r.wantState("s", StateUnknown)
		r.wantWays("s", want)
	}
	r.tick()
	checkDerivedFlags(t, r.ctl, "denial")
	r.wantState("s", StateUnknown)
	r.wantWays("s", 6)
	if w := r.ctl.ws["s"]; !w.denied || !r.ctl.loops[0].poolEmpty {
		t.Fatalf("s at %d ways desiring %d: denied=%v poolEmpty=%v, want both", w.ways, w.desire, w.denied, r.ctl.loops[0].poolEmpty)
	}
	j := obs.NewJournal(64)
	r.ctl.SetSink(j)
	r.tick()
	r.wantState("s", StateStreaming)
	var reason string
	for _, e := range j.Tail(64) {
		if e.Kind == obs.KindStateTransition && e.Workload == "s" {
			reason = e.Reason
		}
	}
	if reason != reasonStreamingDenied {
		t.Errorf("s became Streaming for %q, want %q", reason, reasonStreamingDenied)
	}
}
