package policy

import (
	"testing"
)

// TestRegistry pins the policy registry contract every selection path
// (flags, daemon config, study axis) relies on: the empty name is the
// reactive default, unknown names fail loudly, Names is sorted.
func TestRegistry(t *testing.T) {
	for name, want := range map[string]string{
		"":           "reactive",
		"reactive":   "reactive",
		"predictive": "predictive",
		"lfoc":       "lfoc",
	} {
		factory, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := factory().Name(); got != want {
			t.Errorf("New(%q) built %q, want %q", name, got, want)
		}
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if _, err := New("oracle"); err == nil {
		t.Error("unknown policy name should fail")
	}
	if Known("oracle") {
		t.Error(`Known("oracle") = true`)
	}
	names := Names()
	want := []string{"lfoc", "predictive", "reactive"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	// Factories must build independent instances (one per controller).
	factory, _ := New("predictive")
	if factory() == factory() {
		t.Error("factory reuses policy instances across controllers")
	}
}

// TestCurvePreferred mirrors the paper's Table 1 reading: 6 ways is
// preferred when 7 and 8 add nothing beyond the tolerance.
func TestCurvePreferred(t *testing.T) {
	c := curveOf(map[int]float64{4: 1.0, 5: 1.15, 6: 1.30, 7: 1.31, 8: 1.31})
	if got, ok := c.Preferred(0.025); !ok || got != 6 {
		t.Errorf("Preferred = %d ok=%v, want 6", got, ok)
	}
	// A tight tolerance demands the true maximum's smallest holder.
	if got, ok := c.Preferred(0.001); !ok || got != 7 {
		t.Errorf("tight Preferred = %d ok=%v, want 7", got, ok)
	}
	if _, ok := new(Curve).Preferred(0.025); ok {
		t.Error("empty curve reported a preference")
	}
}

// TestCurveAt pins the nearest-at-or-below lookup planning relies on.
func TestCurveAt(t *testing.T) {
	c := curveOf(map[int]float64{3: 1.0, 6: 1.2})
	cases := []struct {
		ways int
		want float64
		ok   bool
	}{
		{2, 0, false}, {3, 1.0, true}, {5, 1.0, true}, {6, 1.2, true}, {10, 1.2, true},
	}
	for _, tc := range cases {
		got, ok := c.At(tc.ways)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("At(%d) = %v ok=%v, want %v ok=%v", tc.ways, got, ok, tc.want, tc.ok)
		}
	}
}

// TestOptimizeSplit: the DP must hand the second way to the candidate
// whose curve actually pays for it, and reject infeasible bounds.
func TestOptimizeSplit(t *testing.T) {
	steep := SplitCand{Table: curveOf(map[int]float64{1: 1.0, 2: 1.5}), Min: 1, Max: 2}
	flat := SplitCand{Table: curveOf(map[int]float64{1: 1.0, 2: 1.05}), Min: 1, Max: 2}
	res, ok := OptimizeSplit([]SplitCand{steep, flat}, 3)
	if !ok || res[0] != 2 || res[1] != 1 {
		t.Errorf("split = %v ok=%v, want [2 1]", res, ok)
	}
	if _, ok := OptimizeSplit([]SplitCand{{Min: 2, Max: 3}, {Min: 2, Max: 3}}, 3); ok {
		t.Error("infeasible minimums must report !ok")
	}
}

// TestModelStateClone: exports are deep copies — mutating one must not
// reach the other (migration hands clones across controllers).
func TestModelStateClone(t *testing.T) {
	if (*ModelState)(nil).Clone() != nil {
		t.Error("nil clone should stay nil")
	}
	m := &ModelState{
		Prev: 3, PrevOK: true,
		Transitions: map[int64]map[int64]int{3: {4: 2}},
		Pref:        map[int64]int{4: 7},
	}
	c := m.Clone()
	c.Transitions[3][4] = 99
	c.Pref[4] = 1
	if m.Transitions[3][4] != 2 || m.Pref[4] != 7 {
		t.Errorf("clone aliases the original: %v %v", m.Transitions, m.Pref)
	}
}

// TestReactiveBaselineGuarantee: a Reclaim is pinned to its contracted
// baseline, and the over-commit that pin creates is shaved from the
// largest above-baseline holder — the §3.5 reclaim priority.
func TestReactiveBaselineGuarantee(t *testing.T) {
	v := &View{
		TotalWays: 10, GrowthStep: 2, IPCImpThr: 0.05,
		Workloads: []WorkloadView{
			{Name: "back", Category: Reclaim, Ways: 2, Baseline: 4, Desire: 4},
			{Name: "fat", Category: Keeper, Ways: 5, Baseline: 2, Desire: 5},
			{Name: "lean", Category: Keeper, Ways: 3, Baseline: 2, Desire: 3},
		},
	}
	var g Grants
	NewReactive().Propose(v, &g)
	if g.Ways[0] != 4 {
		t.Errorf("Reclaim granted %d ways, want its baseline 4", g.Ways[0])
	}
	if g.Ways[1] != 3 || g.Ways[2] != 3 {
		t.Errorf("over-commit shave took [%d %d], want the largest surplus shaved to [3 3]",
			g.Ways[1], g.Ways[2])
	}
}

// TestReactiveGrowthPriority: Unknown workloads outrank Receivers for
// pool grants (§3.5: resolve possible streamers quickly).
func TestReactiveGrowthPriority(t *testing.T) {
	v := &View{
		TotalWays: 8, GrowthStep: 2, IPCImpThr: 0.05,
		Workloads: []WorkloadView{
			{Name: "u", Category: Unknown, Ways: 2, Baseline: 2, Desire: 6},
			{Name: "r", Category: Receiver, Ways: 2, Baseline: 2, Desire: 6},
		},
	}
	var g Grants
	NewReactive().Propose(v, &g)
	if g.Ways[0] != 6 || g.Ways[1] != 2 {
		t.Errorf("grants [%d %d], want the Unknown fully served first [6 2]", g.Ways[0], g.Ways[1])
	}
}

// propose is a test shorthand: one Propose round on a fresh Grants.
func propose(p AllocationPolicy, v *View) *Grants {
	var g Grants
	p.Propose(v, &g)
	return &g
}

// TestPredictiveSustainsRecurringTransition drives the sequence model
// through two full A→B→A→B cycles and checks the third arrival in B —
// now a confident, remembered transition — is sustained at the phase's
// preferred allocation instead of reclaimed to baseline.
func TestPredictiveSustainsRecurringTransition(t *testing.T) {
	p := NewPredictive(DefaultPredictiveConfig())
	const phaseA, phaseB = int64(-30), int64(-10)
	curveB := curveOf(map[int]float64{3: 1.0, 5: 1.2, 6: 1.3})
	inA := func() *View {
		return &View{TotalWays: 20, GrowthStep: 2, IPCImpThr: 0.05, Workloads: []WorkloadView{
			{Name: "w", Category: Keeper, Ways: 6, Baseline: 3, Desire: 6, PhaseKey: phaseA},
		}}
	}
	inB := func() *View {
		return &View{TotalWays: 20, GrowthStep: 2, IPCImpThr: 0.05, Workloads: []WorkloadView{
			{Name: "w", Category: Keeper, Ways: 6, Baseline: 3, Desire: 6,
				Settled: true, BaselineIPC: 1.0, PhaseKey: phaseB, Curve: curveB},
		}}
	}
	propose(p, inA())
	propose(p, inB()) // learns A→B (1), records Pref[B]=6
	propose(p, inA())
	propose(p, inB()) // learns A→B (2): confident from here on
	propose(p, inA())

	// The recurring transition fires again; categorization proposed the
	// usual reclaim-to-baseline re-measure.
	v := inB()
	w := &v.Workloads[0]
	w.Category, w.Settled, w.Desire = Reclaim, false, w.Baseline
	g := propose(p, v)
	if !g.Sustain[0] {
		t.Fatal("confident recurring transition was not sustained")
	}
	if g.Ways[0] != 6 {
		t.Errorf("sustained at %d ways, want the remembered preference 6", g.Ways[0])
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("stats hits=%d misses=%d, want 1/0", hits, misses)
	}
	foundHit := false
	for _, n := range g.Notes {
		if n.Kind == NotePredictHit {
			foundHit = true
		}
	}
	if !foundHit {
		t.Error("no NotePredictHit surfaced for the decision trace")
	}

	// A transition that contradicts the now-confident model counts as a
	// miss and falls back to the reactive decision untouched.
	propose(p, inA())
	v = &View{TotalWays: 20, GrowthStep: 2, IPCImpThr: 0.05, Workloads: []WorkloadView{
		{Name: "w", Category: Reclaim, Ways: 6, Baseline: 3, Desire: 3, PhaseKey: int64(-50)},
	}}
	g = propose(p, v)
	if g.Sustain[0] {
		t.Error("contradicted prediction must not sustain")
	}
	if g.Ways[0] != 3 {
		t.Errorf("miss path granted %d ways, want the baseline 3", g.Ways[0])
	}
	if _, misses := p.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

// TestPredictivePreGrantsDonor: an idle Donor whose next phase is
// confidently known to want more cache is pre-granted from the free
// pool — unless it is still inside the arrival grace.
func TestPredictivePreGrantsDonor(t *testing.T) {
	const idleKey, busyKey = int64(-100), int64(-20)
	model := &ModelState{
		Prev: idleKey, PrevOK: true,
		Transitions: map[int64]map[int64]int{idleKey: {busyKey: 4}},
		Pref:        map[int64]int{busyKey: 7},
	}
	view := func(graced bool) *View {
		return &View{TotalWays: 20, GrowthStep: 2, IPCImpThr: 0.05, Workloads: []WorkloadView{
			{Name: "d", Category: Donor, Ways: 1, Baseline: 3, Desire: 1,
				Settled: true, Graced: graced, PhaseKey: idleKey},
		}}
	}

	p := NewPredictive(DefaultPredictiveConfig())
	p.ImportModel("d", model)
	g := propose(p, view(false))
	if g.Ways[0] != 7 {
		t.Errorf("pre-granted %d ways, want the predicted phase's 7", g.Ways[0])
	}
	found := false
	for _, n := range g.Notes {
		if n.Kind == NotePreGrant && n.Ways == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("no NotePreGrant surfaced: %+v", g.Notes)
	}

	// Same model, same category — but graced: the policy must sit on
	// its hands until the refill noise clears.
	p = NewPredictive(DefaultPredictiveConfig())
	p.ImportModel("d", model)
	if g := propose(p, view(true)); g.Ways[0] != 1 {
		t.Errorf("graced workload pre-granted %d ways, want the Donor minimum 1", g.Ways[0])
	}
}

// TestPredictiveModelBounded: MaxPhases caps the per-workload model so
// phase-churny tenants cannot grow it without bound.
func TestPredictiveModelBounded(t *testing.T) {
	cfg := DefaultPredictiveConfig()
	cfg.MaxPhases = 4
	p := NewPredictive(cfg)
	for i := 0; i < 50; i++ {
		v := &View{TotalWays: 20, GrowthStep: 2, IPCImpThr: 0.05, Workloads: []WorkloadView{
			{Name: "churn", Category: Keeper, Ways: 3, Baseline: 3, Desire: 3, PhaseKey: int64(i)},
		}}
		propose(p, v)
	}
	st := p.ExportModel("churn")
	if len(st.Transitions) > cfg.MaxPhases {
		t.Errorf("model tracks %d source phases, cap is %d", len(st.Transitions), cfg.MaxPhases)
	}
}

// TestLFOCClustersAndTrims: a flat-curve tenant is clustered squashed
// and trimmed to its preferred point; the rising-curve tenant is
// clustered sensitive; the Streaming verdict maps straight through.
// Cluster changes surface as notes for the decision trace.
func TestLFOCClustersAndTrims(t *testing.T) {
	l := NewLFOC()
	v := &View{
		TotalWays: 20, GrowthStep: 2, IPCImpThr: 0.05,
		Workloads: []WorkloadView{
			{Name: "flat", Category: Keeper, Ways: 8, Baseline: 3, Desire: 8,
				Settled: true, BaselineIPC: 1.0,
				Curve: curveOf(map[int]float64{3: 1.0, 4: 1.01, 8: 1.02})},
			{Name: "sens", Category: Keeper, Ways: 7, Baseline: 3, Desire: 7,
				Settled: true, BaselineIPC: 1.0,
				Curve: curveOf(map[int]float64{3: 1.0, 5: 1.2, 7: 1.4})},
			{Name: "stream", Category: Streaming, Ways: 1, Baseline: 2, Desire: 1},
		},
	}
	g := propose(l, v)
	if got := l.Cluster("flat"); got != "squashed" {
		t.Errorf("flat clustered %q, want squashed", got)
	}
	if got := l.Cluster("sens"); got != "sensitive" {
		t.Errorf("sens clustered %q, want sensitive", got)
	}
	if got := l.Cluster("stream"); got != "streaming" {
		t.Errorf("stream clustered %q, want streaming", got)
	}
	if g.Ways[0] != 3 {
		t.Errorf("squashed tenant holds %d ways, want its preferred 3", g.Ways[0])
	}
	if g.Ways[1] < 7 {
		t.Errorf("sensitive tenant shrank to %d ways", g.Ways[1])
	}
	clusterNotes := 0
	for _, n := range g.Notes {
		if n.Kind == NoteCluster {
			clusterNotes++
		}
	}
	if clusterNotes != 3 {
		t.Errorf("%d cluster notes, want one per first assignment (3)", clusterNotes)
	}
	// A second identical round changes nothing: no repeat notes.
	if g := propose(l, v); len(g.Notes) != 0 {
		t.Errorf("stable clusters re-noted: %+v", g.Notes)
	}
	if l.ExportModel("flat") != nil {
		t.Error("LFOC claims migratable state; curves travel with the controller")
	}
	l.DropModel("flat")
	if got := l.Cluster("flat"); got != "" {
		t.Errorf("dropped workload still clustered %q", got)
	}
}
