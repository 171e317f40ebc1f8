package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/cat"
	"repro/internal/perf"
)

// fakeBackend is a no-op CAT backend for scripted tests.
type fakeBackend struct{ ways int }

func (f *fakeBackend) TotalWays() int                               { return f.ways }
func (f *fakeBackend) Apply(cos int, m bits.CBM, cores []int) error { return nil }

// behavior produces one interval's counter deltas as a function of the
// ways the workload held during that interval — a hand-written stand-in
// for the cache simulator, letting tests script exact state-machine
// inputs.
type behavior func(ways int) perf.Sample

// rig drives a Controller with scripted workload behaviors.
type rig struct {
	t         *testing.T
	file      *perf.File
	mgr       *cat.Manager
	ctl       *Controller
	order     []string
	behaviors map[string]behavior
}

func newRig(t *testing.T, cfg Config, totalWays int, names []string, baselines []int,
	behaviors map[string]behavior) *rig {
	t.Helper()
	file := perf.NewFile(len(names))
	mgr, err := cat.NewManager(&fakeBackend{ways: totalWays})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]Target, len(names))
	for i, n := range names {
		targets[i] = Target{Name: n, Cores: []int{i}, BaselineWays: baselines[i]}
	}
	ctl, err := New(cfg, mgr, file, targets)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, file: file, mgr: mgr, ctl: ctl, order: names, behaviors: behaviors}
}

// tick feeds one interval of scripted counters and runs the controller.
func (r *rig) tick() {
	r.t.Helper()
	for i, name := range r.order {
		s := r.behaviors[name](r.ctl.Ways(name))
		bank := r.file.Core(i)
		bank.Add(perf.L1Hits, s.L1Ref)
		bank.Add(perf.LLCReferences, s.LLCRef)
		bank.Add(perf.LLCMisses, s.LLCMiss)
		bank.Add(perf.RetiredInstructions, s.RetIns)
		bank.Add(perf.UnhaltedCycles, s.Cycles)
	}
	if err := r.ctl.Tick(); err != nil {
		r.t.Fatal(err)
	}
	checkInvariants(r.t, r.ctl, "tick")
}

// checkInvariants fails the test when ctl breaks a CheckInvariants rule
// after step.
func checkInvariants(t *testing.T, ctl *Controller, step string) {
	t.Helper()
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		r.tick()
	}
}

func (r *rig) wantWays(name string, want int) {
	r.t.Helper()
	if got := r.ctl.Ways(name); got != want {
		r.t.Errorf("tick %d: %s has %d ways, want %d", r.ctl.Ticks(), name, got, want)
	}
}

func (r *rig) wantState(name string, want State) {
	r.t.Helper()
	got, ok := r.ctl.StateOf(name)
	if !ok || got != want {
		r.t.Errorf("tick %d: %s state %v, want %v", r.ctl.Ticks(), name, got, want)
	}
}

// mlrBehavior models a random-access workload whose working set fits at
// fitWays: miss rate falls linearly with allocation, IPC follows the
// latency model, dropping below the 3% threshold once fitted.
func mlrBehavior(fitWays int) behavior {
	return func(ways int) perf.Sample {
		miss := 1 - float64(ways)/float64(fitWays)
		if miss < 0.01 {
			miss = 0.01
		}
		lat := miss*220 + (1-miss)*42
		cpi := 0.5 + 0.5*lat
		const retIns = 1_000_000
		llcRef := uint64(400_000)
		return perf.Sample{
			L1Ref:   500_000,
			LLCRef:  llcRef,
			LLCMiss: uint64(miss * float64(llcRef)),
			RetIns:  retIns,
			Cycles:  uint64(retIns * cpi),
		}
	}
}

// tableBehavior yields IPC growing `growth` per way up to capWays, with
// a constant (non-trivial) miss rate, so categorization is driven
// purely by IPC improvements.
func tableBehavior(capWays int, growth float64) behavior {
	return func(ways int) perf.Sample {
		w := ways
		if w > capWays {
			w = capWays
		}
		ipc := math.Pow(1+growth, float64(w))
		const retIns = 1_000_000
		llcRef := uint64(400_000)
		return perf.Sample{
			L1Ref:   500_000,
			LLCRef:  llcRef,
			LLCMiss: uint64(0.2 * float64(llcRef)),
			RetIns:  retIns,
			Cycles:  uint64(float64(retIns) / ipc),
		}
	}
}

// streamBehavior misses nearly always with IPC independent of ways.
func streamBehavior() behavior {
	return func(int) perf.Sample {
		llcRef := uint64(400_000)
		return perf.Sample{
			L1Ref:   500_000,
			LLCRef:  llcRef,
			LLCMiss: uint64(0.95 * float64(llcRef)),
			RetIns:  1_000_000,
			Cycles:  70_000_000,
		}
	}
}

// idleBehavior models a VM with nothing running.
func idleBehavior() behavior {
	return func(int) perf.Sample {
		return perf.Sample{L1Ref: 100, LLCRef: 10, LLCMiss: 0, RetIns: 10_000, Cycles: 20_000_000}
	}
}

// lowMissBehavior references the LLC heavily but misses only when
// shrunk to at most kneeWays.
func lowMissBehavior(kneeWays int) behavior {
	return func(ways int) perf.Sample {
		miss := 0.001
		if ways <= kneeWays {
			miss = 0.05
		}
		llcRef := uint64(400_000)
		return perf.Sample{
			L1Ref:   500_000,
			LLCRef:  llcRef,
			LLCMiss: uint64(miss * float64(llcRef)),
			RetIns:  1_000_000,
			Cycles:  2_000_000,
		}
	}
}

// switchBehavior runs b1 for the first switchAt ticks, then b2.
func switchBehavior(b1 behavior, switchAt int, b2 behavior) behavior {
	tick := 0
	return func(ways int) perf.Sample {
		tick++
		if tick <= switchAt {
			return b1(ways)
		}
		return b2(ways)
	}
}

func TestNewValidation(t *testing.T) {
	mgr, _ := cat.NewManager(&fakeBackend{ways: 20})
	file := perf.NewFile(1)
	good := []Target{{Name: "a", Cores: []int{0}, BaselineWays: 3}}
	if _, err := New(DefaultConfig(), nil, file, good); err == nil {
		t.Error("nil manager should fail")
	}
	if _, err := New(DefaultConfig(), mgr, nil, good); err == nil {
		t.Error("nil counters should fail")
	}
	if _, err := New(DefaultConfig(), mgr, file, nil); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := New(DefaultConfig(), mgr, file,
		[]Target{{Name: "a", Cores: []int{0}, BaselineWays: 0}}); err == nil {
		t.Error("zero baseline should fail")
	}
	if _, err := New(DefaultConfig(), mgr, file, []Target{
		{Name: "a", Cores: []int{0}, BaselineWays: 15},
		{Name: "b", Cores: []int{1}, BaselineWays: 15},
	}); err == nil {
		t.Error("baselines exceeding total ways should fail")
	}
	bad := DefaultConfig()
	bad.GrowthStep = 0
	if _, err := New(bad, mgr, file, good); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestInitialAllocationIsBaseline(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a", "b"}, []int{3, 5},
		map[string]behavior{"a": idleBehavior(), "b": idleBehavior()})
	r.wantWays("a", 3)
	r.wantWays("b", 5)
	if r.ctl.Ways("nope") != 0 {
		t.Error("unknown workload should report 0 ways")
	}
	if _, ok := r.ctl.StateOf("nope"); ok {
		t.Error("unknown workload should not resolve")
	}
}

func TestIdleBecomesDonorAtOneWay(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": idleBehavior()})
	r.run(2)
	r.wantState("a", StateDonor)
	r.wantWays("a", 1)
	// Stays there.
	r.run(3)
	r.wantWays("a", 1)
}

func TestGrowthToPreferredState(t *testing.T) {
	// Unknown -> Receiver -> grows one way per round -> Keeper once
	// the miss rate drops below threshold (paper Figs 7a and 10).
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": mlrBehavior(8)})
	r.tick()
	r.wantState("a", StateUnknown)
	r.wantWays("a", 4)
	r.tick()
	r.wantState("a", StateReceiver)
	r.wantWays("a", 5)
	r.run(3) // 6, 7, 8
	r.wantWays("a", 8)
	r.tick() // at 8 ways the miss rate is below threshold
	r.wantState("a", StateKeeper)
	r.wantWays("a", 8)
	r.run(5)
	r.wantWays("a", 8) // stable preferred state
}

func TestPerformanceTableRecordsGrowth(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": mlrBehavior(8)})
	r.run(8)
	tab, ok := r.ctl.Table("a")
	if !ok {
		t.Fatal("table missing")
	}
	if v, ok := tab.At(3); !ok || v != 1.0 {
		t.Errorf("baseline entry At(3)=%v,%v want 1.0", v, ok)
	}
	for w := 4; w <= 8; w++ {
		v, ok := tab.At(w)
		if !ok {
			t.Fatalf("missing table entry at %d ways", w)
		}
		prev, _ := tab.At(w - 1)
		if v <= prev {
			t.Errorf("normalized IPC not increasing: %d:%f <= %d:%f", w, v, w-1, prev)
		}
	}
}

func TestStreamingDetection(t *testing.T) {
	// A workload with massive misses and no IPC response grows to the
	// streaming threshold (3x baseline) and is then demoted to one way
	// (paper Fig 13).
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": streamBehavior()})
	maxSeen := 0
	for i := 0; i < 10; i++ {
		r.tick()
		if w := r.ctl.Ways("a"); w > maxSeen {
			maxSeen = w
		}
	}
	r.wantState("a", StateStreaming)
	r.wantWays("a", 1)
	if maxSeen != 9 {
		t.Errorf("probing should have peaked at 3x baseline = 9 ways, peaked at %d", maxSeen)
	}
	// Streaming is terminal for the phase.
	r.run(3)
	r.wantWays("a", 1)
}

func TestDonorShrinkUntilMissesAppear(t *testing.T) {
	// Over-provisioned baseline: the workload references the LLC but
	// never misses, so it donates one way per interval until misses
	// become non-trivial, then settles as a Keeper (§3.4).
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{6},
		map[string]behavior{"a": lowMissBehavior(4)})
	r.tick()
	r.wantState("a", StateDonor)
	r.wantWays("a", 5)
	r.tick()
	r.wantWays("a", 4)
	r.tick() // at 4 ways misses appear: settle
	r.wantState("a", StateKeeper)
	r.wantWays("a", 4)
	r.run(4)
	r.wantWays("a", 4)
}

func TestPhaseChangeTriggersReclaim(t *testing.T) {
	// After converging at 8 ways, the workload's accesses-per-
	// instruction shifts by far more than 10%: dCat must immediately
	// return it to the baseline and re-learn (paper §3.3/§3.4).
	busy := mlrBehavior(8)
	quiet := idleBehavior()
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": switchBehavior(busy, 8, quiet)})
	r.run(8)
	r.wantWays("a", 8)
	r.tick() // first idle interval observed: phase change
	r.wantState("a", StateReclaim)
	r.wantWays("a", 3)
	r.run(2) // measured at baseline, then categorized idle
	r.wantState("a", StateDonor)
	r.wantWays("a", 1)
}

func TestReclaimStealsFromSurplusHolders(t *testing.T) {
	// B sleeps at one way while A soaks up the socket; when B wakes,
	// its baseline is restored immediately by shrinking A, which holds
	// far more than its own baseline (§3.5 reclaim priority).
	r := newRig(t, DefaultConfig(), 20, []string{"a", "b"}, []int{3, 3},
		map[string]behavior{
			"a": tableBehavior(30, 0.08),
			"b": switchBehavior(idleBehavior(), 16, mlrBehavior(8)),
		})
	r.run(16)
	r.wantWays("a", 19)
	r.wantWays("b", 1)
	r.tick()
	r.wantState("b", StateReclaim)
	r.wantWays("b", 3)
	r.wantWays("a", 17)
}

func TestBaselineGuaranteeAfterReclaim(t *testing.T) {
	// Once reclaimed, B's allocation never drops below its baseline
	// while it stays busy, no matter what A wants.
	r := newRig(t, DefaultConfig(), 20, []string{"a", "b"}, []int{3, 3},
		map[string]behavior{
			"a": tableBehavior(30, 0.08),
			"b": switchBehavior(idleBehavior(), 10, mlrBehavior(8)),
		})
	r.run(10)
	for i := 0; i < 15; i++ {
		r.tick()
		if w := r.ctl.Ways("b"); w < 3 {
			t.Fatalf("tick %d: b fell to %d ways, below its baseline", r.ctl.Ticks(), w)
		}
	}
}

func TestUnknownPriorityOverReceiver(t *testing.T) {
	// With one free way and both an Unknown and a Receiver asking,
	// the Unknown wins (§3.5: resolve potential streamers sooner).
	r := newRig(t, DefaultConfig(), 10, []string{"a", "b"}, []int{3, 3},
		map[string]behavior{
			"a": switchBehavior(idleBehavior(), 4, tableBehavior(20, 0.08)),
			"b": switchBehavior(idleBehavior(), 1, tableBehavior(20, 0.08)),
		})
	r.run(4) // b: reclaimed, measured, receiver at 5; a: idle donor
	r.wantState("b", StateReceiver)
	r.tick() // a reclaims to 3
	r.wantState("a", StateReclaim)
	r.tick() // a measured -> Unknown; one free way left: a gets it
	r.wantState("a", StateUnknown)
	r.wantWays("a", 4)
	r.wantWays("b", 6) // b wanted 7 but the Unknown outranked it
}

func TestTableReuseJumpsToPreferred(t *testing.T) {
	// Paper Fig 12: when a phase recurs, dCat skips rediscovery and
	// grants the remembered preferred allocation in one step.
	busy := mlrBehavior(8)
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": switchBehavior(
			switchBehavior(busy, 8, idleBehavior()), 11, mlrBehavior(8))})
	r.run(8) // converge at 8
	r.wantWays("a", 8)
	r.run(3) // idle: reclaim, measure, donor at 1
	r.wantWays("a", 1)
	r.tick() // busy again: reclaim to baseline
	r.wantState("a", StateReclaim)
	r.wantWays("a", 3)
	r.tick() // measured; table reused: jump straight to 8
	r.wantWays("a", 8)
	r.run(2)
	r.wantWays("a", 8)
}

func TestMaxPerformanceRedistributes(t *testing.T) {
	// A saturates at 5 ways, B keeps improving to 12. Under fairness
	// both stall at an even 8/8 split; under max-performance the
	// optimizer moves A's useless ways to B (§3.5, Fig 14).
	mk := func(policy Policy) *rig {
		cfg := DefaultConfig()
		cfg.Policy = policy
		return newRig(t, cfg, 16, []string{"a", "b"}, []int{3, 3},
			map[string]behavior{
				"a": tableBehavior(5, 0.10),
				"b": tableBehavior(12, 0.10),
			})
	}
	// Under fairness, a stops on its own one way past its knee (it
	// keeps the probe way that showed no improvement) and b soaks up
	// the remainder of the socket.
	fair := mk(MaxFairness)
	fair.run(20)
	if wa, wb := fair.ctl.Ways("a"), fair.ctl.Ways("b"); wa != 6 || wb != 10 {
		t.Errorf("fairness split a=%d b=%d want 6/10", wa, wb)
	}
	perfRig := mk(MaxPerformance)
	perfRig.run(20)
	wa, wb := perfRig.ctl.Ways("a"), perfRig.ctl.Ways("b")
	if wa+wb > 16 {
		t.Fatalf("over-allocated: a=%d b=%d", wa, wb)
	}
	if wb < 11 {
		t.Errorf("max-performance should shift ways to b: a=%d b=%d", wa, wb)
	}
	if wa < 3 {
		t.Errorf("a must keep its baseline: a=%d", wa)
	}
}

func TestSnapshot(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a", "b"}, []int{3, 4},
		map[string]behavior{"a": mlrBehavior(8), "b": idleBehavior()})
	r.run(3)
	snap := r.ctl.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	if snap[0].Name != "a" || snap[1].Name != "b" {
		t.Error("snapshot should preserve target order")
	}
	a := snap[0]
	if a.Ways != r.ctl.Ways("a") || a.Baseline != 3 {
		t.Errorf("snapshot ways/baseline wrong: %+v", a)
	}
	if a.NormIPC <= 1.0 {
		t.Errorf("a grew, so NormIPC should exceed 1: %f", a.NormIPC)
	}
	if a.State != StateReceiver {
		t.Errorf("a state %v want Receiver", a.State)
	}
}

func TestTicksCount(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a"}, []int{3},
		map[string]behavior{"a": idleBehavior()})
	r.run(5)
	if r.ctl.Ticks() != 5 {
		t.Errorf("Ticks()=%d want 5", r.ctl.Ticks())
	}
}

// Invariant sweep: under a random mix of behaviors the controller never
// over-allocates, never hands out zero ways, and never drops a busy
// workload below baseline once its reclaim completes.
func TestAllocationInvariantsUnderChurn(t *testing.T) {
	behaviorsByIdx := []behavior{
		mlrBehavior(6), streamBehavior(), idleBehavior(),
		tableBehavior(10, 0.08), lowMissBehavior(3),
	}
	names := make([]string, 5)
	baselines := make([]int, 5)
	bmap := map[string]behavior{}
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		baselines[i] = 3
		// Every workload switches behaviour twice to force phase churn.
		bmap[names[i]] = switchBehavior(behaviorsByIdx[i], 6,
			switchBehavior(behaviorsByIdx[(i+1)%5], 6, behaviorsByIdx[(i+2)%5]))
	}
	r := newRig(t, DefaultConfig(), 20, names, baselines, bmap)
	for i := 0; i < 25; i++ {
		r.tick()
		sum := 0
		for _, n := range names {
			w := r.ctl.Ways(n)
			if w < 1 {
				t.Fatalf("tick %d: %s at %d ways", r.ctl.Ticks(), n, w)
			}
			sum += w
		}
		if sum > 20 {
			t.Fatalf("tick %d: allocated %d of 20 ways", r.ctl.Ticks(), sum)
		}
	}
}
