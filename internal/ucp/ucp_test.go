package ucp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/policy"
)

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, 4, 1); err == nil {
		t.Error("zero sets should fail")
	}
	if _, err := NewMonitor(64, 0, 1); err == nil {
		t.Error("zero ways should fail")
	}
	if _, err := NewMonitor(64, 4, 0); err == nil {
		t.Error("zero sampling should fail")
	}
	if _, err := NewMonitor(16, 4, 32); err == nil {
		t.Error("sampling interval beyond set count should fail")
	}
}

func TestMonitorSampling(t *testing.T) {
	m, err := NewMonitor(64, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Lines in set 0 and 32 are sampled; set 1 is not.
	m.Observe(0)  // set 0: sampled
	m.Observe(1)  // set 1: skipped
	m.Observe(32) // set 32: sampled
	if m.Accesses() != 2 {
		t.Errorf("sampled accesses=%d want 2", m.Accesses())
	}
}

func TestMonitorStackPositions(t *testing.T) {
	m, _ := NewMonitor(4, 4, 4) // one sampled set (set 0)
	// Lines mapping to set 0: multiples of 4.
	a, b := uint64(0), uint64(4)
	m.Observe(a) // miss
	m.Observe(a) // hit at MRU (depth 0)
	m.Observe(b) // miss
	m.Observe(a) // hit at depth 1
	curve := m.MissCurve()
	// 4 sampled accesses; with 1 way only the MRU re-hit counts:
	// misses(1) = 4-1 = 3; with 2+ ways both hits count: 4-2 = 2.
	if curve[0] != 4 || curve[1] != 3 || curve[2] != 2 {
		t.Errorf("curve=%v want [4 3 2 2 2]", curve)
	}
}

func TestMissCurveMonotone(t *testing.T) {
	f := func(seed int64) bool {
		m, _ := NewMonitor(16, 8, 2)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			m.Observe(uint64(rng.Intn(256)))
		}
		curve := m.MissCurve()
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1] {
				return false
			}
		}
		return curve[0] == m.Accesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMonitorDistinguishesReuse(t *testing.T) {
	// A small, hot working set should show steep utility; a cyclic
	// scan over a big one should show almost none at small allocations.
	hot, _ := NewMonitor(64, 8, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		hot.Observe(uint64(rng.Intn(128))) // 2 lines per set: fits in 2 ways
	}
	curve := hot.MissCurve()
	if got := float64(curve[2]) / float64(curve[0]); got > 0.05 {
		t.Errorf("hot workload should hit almost fully at 2 ways; residual misses %.2f", got)
	}

	stream, _ := NewMonitor(64, 8, 1)
	for pass := 0; pass < 10; pass++ {
		for l := uint64(0); l < 1024; l++ { // 16 lines/set > 8 ways: LRU thrash
			stream.Observe(l)
		}
	}
	curve = stream.MissCurve()
	if got := float64(curve[8]) / float64(curve[0]); got < 0.95 {
		t.Errorf("cyclic scan should miss at every allocation; residual misses %.2f", got)
	}
}

func TestMonitorReset(t *testing.T) {
	m, _ := NewMonitor(4, 4, 1)
	for i := 0; i < 100; i++ {
		m.Observe(uint64(i % 8))
	}
	before := m.Accesses()
	m.Reset()
	if m.Accesses() != before/2 {
		t.Errorf("Reset should halve history: %d -> %d", before, m.Accesses())
	}
}

func TestLookaheadPrefersUtility(t *testing.T) {
	// Workload 0 gains nothing from cache; workload 1 gains linearly
	// up to 6 ways.
	flat := []uint64{100, 100, 100, 100, 100, 100, 100, 100, 100}
	steep := []uint64{100, 80, 60, 40, 20, 10, 5, 5, 5}
	alloc, err := Lookahead([][]uint64{flat, steep}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 1 {
		t.Errorf("flat workload got %d ways; should stay at minimum", alloc[0])
	}
	if alloc[1] < 6 {
		t.Errorf("steep workload got %d ways; should take most of the cache", alloc[1])
	}
}

func TestLookaheadSeesPastPlateau(t *testing.T) {
	// The "lookahead" property: a curve flat for 2 ways then dropping
	// sharply must still win against a mildly sloped competitor.
	plateau := []uint64{100, 100, 100, 10, 10, 10, 10, 10, 10}
	mild := []uint64{100, 98, 96, 94, 92, 90, 88, 86, 84}
	alloc, err := Lookahead([][]uint64{plateau, mild}, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] < 3 {
		t.Errorf("plateau workload got %d ways; lookahead should jump the plateau to 3", alloc[0])
	}
}

func TestLookaheadRespectsBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		curves := make([][]uint64, n)
		for i := range curves {
			c := make([]uint64, 9)
			c[0] = 1000
			for k := 1; k < 9; k++ {
				c[k] = c[k-1] - uint64(rng.Intn(int(c[k-1]/4)+1))
			}
			curves[i] = c
		}
		total := rng.Intn(12) + n
		alloc, err := Lookahead(curves, total, 1)
		if err != nil {
			return false
		}
		sum := 0
		for _, a := range alloc {
			if a < 1 {
				return false
			}
			sum += a
		}
		return sum <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLookaheadInfeasible(t *testing.T) {
	c := []uint64{10, 5}
	if _, err := Lookahead([][]uint64{c, c, c}, 2, 1); err == nil {
		t.Error("3 workloads on 2 ways should be infeasible")
	}
	if alloc, err := Lookahead(nil, 8, 1); err != nil || alloc != nil {
		t.Error("no workloads should be trivially fine")
	}
}

// view builds a policy round over the named workloads.
func view(total int, names ...string) *policy.View {
	v := &policy.View{TotalWays: total}
	for _, n := range names {
		v.Workloads = append(v.Workloads, policy.WorkloadView{Name: n})
	}
	return v
}

func TestPolicyLifecycle(t *testing.T) {
	mons := map[string]*Monitor{}
	for _, n := range []string{"hot", "stream"} {
		m, err := NewMonitor(64, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		mons[n] = m
	}
	pol := NewPolicy(func(name string) *Monitor { return mons[name] }, 0) // minWays floors at 1
	if !pol.IndependentAllocator() {
		t.Error("UCP owns the whole allocation: it must be an Independent allocator")
	}

	// Feed the monitors: "hot" reuses 3 lines per set, "stream" cycles
	// far past the associativity.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		mons["hot"].Observe(uint64(rng.Intn(192)))
	}
	for pass := 0; pass < 20; pass++ {
		for l := uint64(0); l < 1024; l++ {
			mons["stream"].Observe(l)
		}
	}

	var g policy.Grants
	pol.Propose(view(8, "hot", "stream"), &g)
	hot, stream := g.Ways[0], g.Ways[1]
	if hot <= stream {
		t.Errorf("UCP should favour the reusing workload: hot=%d stream=%d", hot, stream)
	}
	if stream < 1 || hot+stream > 8 {
		t.Errorf("allocation %d/%d breaks the >=1-way / within-8-ways invariants", hot, stream)
	}
	// The epoch ends by decaying every monitor (Reset halves history).
	if got := mons["hot"].Accesses(); got != 15000 {
		t.Errorf("hot monitor not decayed after the epoch: %d accesses want 15000", got)
	}
	if got := mons["stream"].Accesses(); got != 10240 {
		t.Errorf("stream monitor not decayed after the epoch: %d accesses want 10240", got)
	}

	// A workload without a monitor: the round falls back to an even
	// split and leaves the monitors' history alone.
	pol.Propose(view(8, "hot", "stream", "unmonitored"), &g)
	if g.Ways[0] != 3 || g.Ways[1] != 3 || g.Ways[2] != 2 {
		t.Errorf("uncovered round should split the whole cache evenly, got %v", g.Ways)
	}
	if got := mons["hot"].Accesses(); got != 15000 {
		t.Errorf("fallback round must not decay monitors: %d accesses want 15000", got)
	}

	// More workloads than ways is infeasible for the lookahead: same
	// fallback, every workload still holding a way.
	pol.Propose(view(1, "hot", "stream"), &g)
	if g.Ways[0] != 1 || g.Ways[1] != 1 {
		t.Errorf("infeasible round should still give every workload a way, got %v", g.Ways)
	}
}
