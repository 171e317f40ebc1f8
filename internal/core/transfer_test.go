package core

import (
	"strings"
	"testing"

	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
)

// TestRemoveTargetExportsState: a learned workload exports its phase
// baseline and table, its group disappears, and its ways return to the
// pool.
func TestRemoveTargetExportsState(t *testing.T) {
	r := newRig(t, DefaultConfig(), 20, []string{"a", "b", "c"}, []int{3, 3, 3},
		map[string]behavior{
			"a": tableBehavior(8, 0.08),
			"b": idleBehavior(),
			"c": idleBehavior(),
		})
	r.run(12)
	waysBefore := r.ctl.Ways("a")
	if waysBefore <= 3 {
		t.Fatalf("precondition: a should have grown past baseline, has %d", waysBefore)
	}
	st, err := r.ctl.RemoveTarget("a")
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, r.ctl, "remove a")
	if st.Name != "a" || st.BaselineWays != 3 || st.Ways != waysBefore {
		t.Errorf("export mismatch: %+v", st)
	}
	if st.BaselineIPC <= 0 {
		t.Errorf("baseline IPC not exported: %+v", st)
	}
	if st.Table.Len() < 3 {
		t.Errorf("performance table not exported: ways %v", st.Table.Ways())
	}
	if len(st.Cores) != 1 || st.Cores[0] != 0 {
		t.Errorf("cores not exported: %v", st.Cores)
	}
	if _, ok := r.ctl.StateOf("a"); ok {
		t.Error("removed target still reported")
	}
	if _, ok := r.mgr.Group("a"); ok {
		t.Error("CLOS group not removed")
	}
	if free := freeWays(r.mgr); free < waysBefore {
		t.Errorf("removed target's ways not pooled: %d free", free)
	}
	if err := r.mgr.Validate(); err != nil {
		t.Fatalf("CAT invariants violated after removal: %v", err)
	}
	if _, err := r.ctl.RemoveTarget("a"); err == nil {
		t.Error("double removal should fail")
	}
	if _, err := r.ctl.RemoveTarget("b"); err != nil {
		t.Errorf("removing b: %v", err)
	}
	checkInvariants(t, r.ctl, "remove b")
	if _, err := r.ctl.RemoveTarget("c"); err == nil {
		t.Error("removing the last target should fail")
	}
	checkInvariants(t, r.ctl, "remove the last target")
}

// freeWays returns the ways no group of m holds.
func freeWays(m *cat.Manager) int {
	free := m.TotalWays()
	for _, g := range m.Groups() {
		free -= g.Ways
	}
	return free
}

// xferRig is a controller rig with spare perf-file cores, so tests can
// AddTarget onto cores no initial workload owns (newRig sizes its file
// exactly to the initial set).
type xferRig struct {
	t         *testing.T
	file      *perf.File
	mgr       *cat.Manager
	ctl       *Controller
	behaviors map[string]behavior
	coreOf    map[string]int
}

func newXferRig(t *testing.T, totalWays, fileCores int, targets []Target,
	behaviors map[string]behavior) *xferRig {
	t.Helper()
	file := perf.NewFile(fileCores)
	mgr, err := cat.NewManager(&fakeBackend{ways: totalWays})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(DefaultConfig(), mgr, file, targets)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := make(map[string]int, len(targets))
	for _, tg := range targets {
		coreOf[tg.Name] = tg.Cores[0]
	}
	return &xferRig{t: t, file: file, mgr: mgr, ctl: ctl, behaviors: behaviors, coreOf: coreOf}
}

func (r *xferRig) run(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		for name, core := range r.coreOf {
			s := r.behaviors[name](r.ctl.Ways(name))
			bank := r.file.Core(core)
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
}

// TestAddTargetFresh: a nil-state arrival behaves like a brand-new
// workload — baseline allocation, first interval measures the phase
// baseline.
func TestAddTargetFresh(t *testing.T) {
	r := newXferRig(t, 20, 8,
		[]Target{
			{Name: "a", Cores: []int{0}, BaselineWays: 3},
			{Name: "b", Cores: []int{1}, BaselineWays: 3},
		},
		map[string]behavior{
			"a":    idleBehavior(),
			"b":    idleBehavior(),
			"late": idleBehavior(),
		})
	r.run(3)
	if err := r.ctl.AddTarget(0, Target{Name: "late", Cores: []int{5}, BaselineWays: 4}, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, r.ctl, "add late")
	r.coreOf["late"] = 5
	if got := r.ctl.Ways("late"); got != 4 {
		t.Errorf("arrival allocation %d, want the baseline 4", got)
	}
	if err := r.ctl.AddTarget(0, Target{Name: "late", Cores: []int{6}, BaselineWays: 1}, nil); err == nil {
		t.Error("duplicate target should fail")
	}
	if err := r.ctl.AddTarget(0, Target{Name: "huge", Cores: []int{7}, BaselineWays: 15}, nil); err == nil {
		t.Error("baseline overflow should fail")
	}
	checkInvariants(t, r.ctl, "rejected arrivals")
	r.run(2) // the adopted loop must tick cleanly
	if err := r.mgr.Validate(); err != nil {
		t.Fatalf("CAT invariants violated: %v", err)
	}
}

// TestAddTargetReclaimsFromSurplus: when the pool cannot cover an
// arrival's baseline, ways come out of the largest above-baseline
// holder — the same priority the allocator's over-commit resolution
// uses.
func TestAddTargetReclaimsFromSurplus(t *testing.T) {
	r := newXferRig(t, 12, 8,
		[]Target{
			{Name: "a", Cores: []int{0}, BaselineWays: 3},
			{Name: "b", Cores: []int{1}, BaselineWays: 3},
		},
		map[string]behavior{
			"a": tableBehavior(9, 0.08), // grows to fill the pool
			"b": idleBehavior(),
		})
	r.run(12)
	if free := freeWays(r.mgr); free > 2 {
		t.Fatalf("precondition: pool should be nearly drained, %d free", free)
	}
	surplusBefore := r.ctl.Ways("a")
	if err := r.ctl.AddTarget(0, Target{Name: "late", Cores: []int{5}, BaselineWays: 3}, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, r.ctl, "add late")
	if got := r.ctl.Ways("late"); got != 3 {
		t.Errorf("arrival allocation %d, want 3", got)
	}
	if got := r.ctl.Ways("a"); got >= surplusBefore {
		t.Errorf("surplus holder kept %d ways (had %d); should have been shaved", got, surplusBefore)
	}
	if err := r.mgr.Validate(); err != nil {
		t.Fatalf("CAT invariants violated: %v", err)
	}
}

// TestMigrateCarriesState is the state-transfer acceptance path: a
// workload that learned its preferred allocation on socket 0 migrates
// to socket 1 and jumps straight back instead of re-growing one way
// per round.
func TestMigrateCarriesState(t *testing.T) {
	file := perf.NewFile(4)
	newMgr := func() *cat.Manager {
		m, err := cat.NewManager(&fakeBackend{ways: 20})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	multi, err := NewMulti(DefaultConfig(), file, []SocketSpec{
		{Socket: 0, Mgr: newMgr(), Targets: []Target{
			{Name: "mover", Cores: []int{0}, BaselineWays: 3},
			{Name: "stay", Cores: []int{1}, BaselineWays: 3},
		}},
		{Socket: 1, Mgr: newMgr(), Targets: []Target{
			{Name: "filler", Cores: []int{2}, BaselineWays: 3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	behaviors := map[string]behavior{
		"mover":  tableBehavior(10, 0.08),
		"stay":   idleBehavior(),
		"filler": idleBehavior(),
	}
	coreOf := map[string]int{"mover": 0, "stay": 1, "filler": 2}
	tick := func() {
		t.Helper()
		for name, core := range coreOf {
			s := behaviors[name](multi.Ways(name))
			bank := file.Core(core)
			bank.Add(perf.L1Hits, s.L1Ref)
			bank.Add(perf.LLCReferences, s.LLCRef)
			bank.Add(perf.LLCMisses, s.LLCMiss)
			bank.Add(perf.RetiredInstructions, s.RetIns)
			bank.Add(perf.UnhaltedCycles, s.Cycles)
		}
		if err := multi.Tick(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, multi, "tick")
	}
	for i := 0; i < 16; i++ {
		tick()
	}
	waysBefore := multi.Ways("mover")
	if waysBefore < 9 {
		t.Fatalf("precondition: mover should have grown to ~10 ways, has %d", waysBefore)
	}
	if st, _ := multi.StateOf("mover"); st != StateKeeper {
		t.Fatalf("precondition: mover should have settled as Keeper, is %v", st)
	}

	// Migrating the sole tenant of a socket must fail (the loop keeps
	// at least one target) and leave everything managed.
	if err := multi.Migrate("filler", 0, []int{3}); err == nil {
		t.Fatal("migrating a socket's last workload should fail")
	}
	checkInvariants(t, multi, "rejected migration")
	if s, ok := socketOf(multi, "filler"); !ok || s != 1 {
		t.Fatalf("failed migration lost track of filler: socket %d ok=%v", s, ok)
	}

	// A coordinator cap pushed before the move must survive it: the
	// agent caches what it pushed and never re-sends an unchanged hint.
	multi.SetWayCap("mover", 15)
	if err := multi.Migrate("mover", 1, []int{3}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, multi, "migrate mover")
	coreOf["mover"] = 3
	if s, _ := socketOf(multi, "mover"); s != 1 {
		t.Fatalf("mover still homed on socket %d", s)
	}
	if got := multi.ws["mover"].capWays; got != 15 {
		t.Fatalf("way cap %d after migration, want the pushed 15", got)
	}
	if got := multi.Ways("mover"); got != 3 {
		t.Fatalf("arrival allocation %d, want the baseline 3", got)
	}
	tb, ok := multi.Table("mover")
	if !ok || tb.Len() < 3 {
		t.Fatalf("performance table not carried: ways %v", tb.Ways())
	}

	// One tick later the carried table must have jumped the allocation
	// back near its learned preference — not +1 way.
	tick()
	if got := multi.Ways("mover"); got < waysBefore-1 {
		t.Fatalf("re-learning dip: mover at %d ways one tick after migration (had %d)", got, waysBefore)
	}
	snap := multi.Snapshot()
	for _, s := range snap {
		if s.Name != "mover" {
			continue
		}
		if s.Socket != 1 {
			t.Errorf("snapshot socket %d, want 1", s.Socket)
		}
		if s.NormIPC <= 0 {
			t.Errorf("baseline IPC lost in migration: NormIPC %v", s.NormIPC)
		}
	}
}

// TestMigrateRestoresOnReject: when the destination refuses the
// arrival — its loop's baselines already fill the socket — Migrate
// returns the destination's error and the workload is managed again on
// its source socket with its settled table intact, every loop's CAT
// state still valid.
func TestMigrateRestoresOnReject(t *testing.T) {
	file := perf.NewFile(4)
	newMgr := func() *cat.Manager {
		m, err := cat.NewManager(&fakeBackend{ways: 20})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	multi, err := NewMulti(DefaultConfig(), file, []SocketSpec{
		{Socket: 0, Mgr: newMgr(), Targets: []Target{
			{Name: "mover", Cores: []int{0}, BaselineWays: 3},
			{Name: "stay", Cores: []int{1}, BaselineWays: 3},
		}},
		{Socket: 1, Mgr: newMgr(), Targets: []Target{
			{Name: "full", Cores: []int{2}, BaselineWays: 20},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &xferRig{t: t, file: file, ctl: multi,
		behaviors: map[string]behavior{
			"mover": tableBehavior(10, 0.08),
			"stay":  idleBehavior(),
			"full":  idleBehavior(),
		},
		coreOf: map[string]int{"mover": 0, "stay": 1, "full": 2},
	}
	r.run(16)
	if st, _ := multi.StateOf("mover"); st != StateKeeper || !multi.ws["mover"].settled {
		t.Fatalf("precondition: mover should have settled as Keeper, is %v", st)
	}
	before, _ := multi.Table("mover")

	err = multi.Migrate("mover", 1, []int{3})
	if err == nil {
		t.Fatal("migrating onto a socket whose baselines fill it should fail")
	}
	if want := "baselines would total 23 ways, socket has 20"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Migrate error %q does not carry the destination's %q", err, want)
	}
	checkInvariants(t, multi, "restored migration")
	if s, ok := socketOf(multi, "mover"); !ok || s != 0 {
		t.Fatalf("rejected migration left mover on socket %d (managed %v), want 0", s, ok)
	}
	if after, ok := multi.Table("mover"); !ok || after != before {
		t.Fatalf("restored table ways %v, had %v", after.Ways(), before.Ways())
	}
	for _, l := range multi.loops {
		if err := l.mgr.Validate(); err != nil {
			t.Errorf("socket %d CAT state invalid after the rejected migration: %v", l.socket, err)
		}
	}
}

// TestMigrateCarriesPredictiveModel: the predictive policy's learned
// phase-transition model travels with a live migration — RemoveTarget
// exports it (and drops the source copy), AddTarget imports it on the
// destination's policy instance — independently of the settledness gate
// that guards the performance-table carry: transition counts are facts
// about the workload, valid on any socket.
func TestMigrateCarriesPredictiveModel(t *testing.T) {
	var preds []*policy.Predictive
	cfg := DefaultConfig()
	cfg.NewPolicy = func() policy.AllocationPolicy {
		p := policy.NewPredictive(policy.DefaultPredictiveConfig())
		preds = append(preds, p)
		return p
	}
	file := perf.NewFile(4)
	newMgr := func() *cat.Manager {
		m, err := cat.NewManager(&fakeBackend{ways: 20})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	multi, err := NewMulti(cfg, file, []SocketSpec{
		{Socket: 0, Mgr: newMgr(), Targets: []Target{
			{Name: "mover", Cores: []int{0}, BaselineWays: 3},
			{Name: "stay", Cores: []int{1}, BaselineWays: 3},
		}},
		{Socket: 1, Mgr: newMgr(), Targets: []Target{
			{Name: "filler", Cores: []int{2}, BaselineWays: 3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("expected one predictive policy per socket, got %d", len(preds))
	}

	model := &policy.ModelState{
		Prev: 7, PrevOK: true,
		Transitions: map[int64]map[int64]int{7: {9: 3}, 9: {7: 2}},
		Pref:        map[int64]int{7: 5, 9: 9},
	}
	preds[0].ImportModel("mover", model)

	if err := multi.Migrate("mover", 1, []int{3}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, multi, "migrate mover")
	if got := preds[0].ExportModel("mover"); got != nil {
		t.Errorf("source policy still holds the migrated model: %+v", got)
	}
	carried := preds[1].ExportModel("mover")
	if carried == nil {
		t.Fatal("destination policy did not receive the model")
	}
	if !carried.PrevOK || carried.Prev != 7 {
		t.Errorf("position lost: prev=%d ok=%v", carried.Prev, carried.PrevOK)
	}
	if carried.Transitions[7][9] != 3 || carried.Transitions[9][7] != 2 {
		t.Errorf("transition counts lost: %v", carried.Transitions)
	}
	if carried.Pref[9] != 9 {
		t.Errorf("preferred allocations lost: %v", carried.Pref)
	}
	// The carried state must be a deep copy: mutating the export must
	// not reach the destination policy's working model.
	carried.Transitions[7][9] = 99
	if again := preds[1].ExportModel("mover"); again.Transitions[7][9] != 3 {
		t.Errorf("export aliases the live model: %v", again.Transitions)
	}
}

// TestArrivalGraceBlocksPredictivePreGrants: a freshly arrived tenant
// is exempt from predictive decisions until its classification grace
// expires — even a confidently learned model must not pre-grant ways
// based on behaviour observed during the cold-cache refill. Once the
// grace ends the same model may act.
func TestArrivalGraceBlocksPredictivePreGrants(t *testing.T) {
	var pred *policy.Predictive
	cfg := DefaultConfig()
	cfg.ArrivalGraceTicks = 8
	cfg.NewPolicy = func() policy.AllocationPolicy {
		pred = policy.NewPredictive(policy.DefaultPredictiveConfig())
		return pred
	}
	file := perf.NewFile(2)
	mgr, err := cat.NewManager(&fakeBackend{ways: 12})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(cfg, mgr, file, []Target{{Name: "base", Cores: []int{0}, BaselineWays: 3}})
	if err != nil {
		t.Fatal(err)
	}
	j := obs.NewJournal(obs.DefaultJournalSize)
	ctl.SetSink(j)

	baseB := tableBehavior(6, 0.08)
	migB := idleBehavior()
	feed := func(core int, s perf.Sample) {
		bank := file.Core(core)
		bank.Add(perf.L1Hits, s.L1Ref)
		bank.Add(perf.LLCReferences, s.LLCRef)
		bank.Add(perf.LLCMisses, s.LLCMiss)
		bank.Add(perf.RetiredInstructions, s.RetIns)
		bank.Add(perf.UnhaltedCycles, s.Cycles)
	}
	tick := func(withMig bool) {
		t.Helper()
		feed(0, baseB(ctl.Ways("base")))
		if withMig {
			feed(1, migB(ctl.Ways("mig")))
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, ctl, "tick")
	}
	countPreGrants := func() int {
		n := 0
		for _, e := range j.Tail(j.Len()) {
			if e.Kind == obs.KindPolicyPreGrant && e.Workload == "mig" {
				n++
			}
		}
		return n
	}

	for i := 0; i < 3; i++ {
		tick(false)
	}
	if err := ctl.AddTarget(0, Target{Name: "mig", Cores: []int{1}, BaselineWays: 3}, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, ctl, "add mig")
	// One graced tick so the policy records mig's current phase key
	// (idle: zero misses, so the flat-miss-rate early exit never fires
	// and the grace runs its full course).
	tick(true)
	st := pred.ExportModel("mig")
	if st == nil || !st.PrevOK {
		t.Fatal("graced tick did not record the arrival's phase position")
	}
	idleKey := st.Prev
	busyKey := idleKey + 40 // any distinct phase bucket
	// A model that confidently predicts the idle tenant's next phase
	// wants far more cache than the Donor minimum.
	pred.ImportModel("mig", &policy.ModelState{
		Prev: idleKey, PrevOK: true,
		Transitions: map[int64]map[int64]int{idleKey: {busyKey: 5}},
		Pref:        map[int64]int{busyKey: 8},
	})

	for i := 0; i < 5; i++ {
		tick(true) // still inside the grace window
	}
	if n := countPreGrants(); n != 0 {
		t.Fatalf("predictive pre-granted %d times during the arrival grace", n)
	}
	for i := 0; i < 6; i++ {
		tick(true) // grace expired: the model may act now
	}
	if n := countPreGrants(); n == 0 {
		t.Fatal("grace expired but the confident model never pre-granted")
	}
}
