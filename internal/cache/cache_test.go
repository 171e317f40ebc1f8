package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bits"
)

func tinyCache(t *testing.T, ways int) *Cache {
	t.Helper()
	// 4 sets of `ways` ways.
	c, err := New(Config{Name: "test", SizeBytes: uint64(4 * ways * LineSize), Ways: ways})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "w0", SizeBytes: 4096, Ways: 0},
		{Name: "w65", SizeBytes: 4096, Ways: 65},
		{Name: "sz0", SizeBytes: 0, Ways: 4},
		{Name: "odd", SizeBytes: 1000, Ways: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s should be invalid", cfg.Name)
		}
	}
	good := Config{Name: "llc", SizeBytes: 45 << 20, Ways: 20}
	if err := good.Validate(); err != nil {
		t.Errorf("Xeon-E5 geometry rejected: %v", err)
	}
	if got := good.Sets(); got != 36864 {
		t.Errorf("Xeon-E5 Sets()=%d want 36864", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestHitAfterFill(t *testing.T) {
	c := tinyCache(t, 4)
	full := bits.FullMask(4)
	if r := c.Access(100, full, 0); r.Hit {
		t.Error("first access should miss")
	}
	if r := c.Access(100, full, 0); !r.Hit {
		t.Error("second access should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats=%+v want 1 hit 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tinyCache(t, 2) // 4 sets, 2 ways
	full := bits.FullMask(2)
	// Three lines mapping to set 0: 0, 4, 8.
	c.Access(0, full, 0)
	c.Access(4, full, 0)
	c.Access(0, full, 0) // touch 0, making 4 the LRU
	r := c.Access(8, full, 0)
	if !r.Evicted || r.EvictedLine != 4 {
		t.Errorf("expected eviction of line 4, got %+v", r)
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Error("residency after LRU eviction wrong")
	}
}

func TestMaskRestrictsFillNotHit(t *testing.T) {
	c := tinyCache(t, 4)
	wideMask := bits.FullMask(4)
	narrowMask := bits.MustCBM(0, 1)
	// Fill under the wide mask, possibly into any way.
	c.Access(0, wideMask, 0)
	c.Access(4, wideMask, 0)
	c.Access(8, wideMask, 0)
	// Narrow-mask accesses must still hit lines resident anywhere.
	for _, l := range []uint64{0, 4, 8} {
		if r := c.Access(l, narrowMask, 0); !r.Hit {
			t.Errorf("line %d should hit under narrow mask", l)
		}
	}
}

func TestMaskConfinesVictims(t *testing.T) {
	c := tinyCache(t, 4)
	loMask := bits.MustCBM(0, 2) // ways 0-1
	hiMask := bits.MustCBM(2, 2) // ways 2-3
	// Tenant A fills two lines in set 0 under ways 0-1.
	c.Access(0, loMask, 0)
	c.Access(4, loMask, 0)
	// Tenant B streams many lines through ways 2-3 of set 0.
	for i := uint64(2); i < 50; i++ {
		c.Access(i*4, hiMask, 1)
	}
	// A's lines must be untouched: isolation.
	if !c.Probe(0) || !c.Probe(4) {
		t.Error("lines outside B's mask were evicted — isolation violated")
	}
}

func TestEmptyMaskBypasses(t *testing.T) {
	c := tinyCache(t, 2)
	r := c.Access(0, 0, 0)
	if r.Hit || r.Evicted {
		t.Errorf("empty-mask access should bypass, got %+v", r)
	}
	if c.Probe(0) {
		t.Error("empty-mask access should not fill")
	}
}

func TestInvalidate(t *testing.T) {
	c := tinyCache(t, 2)
	full := bits.FullMask(2)
	c.Access(7, full, 0)
	if !c.Invalidate(7) {
		t.Error("Invalidate of resident line should return true")
	}
	if c.Invalidate(7) {
		t.Error("Invalidate of absent line should return false")
	}
	if c.Probe(7) {
		t.Error("line resident after Invalidate")
	}
}

func TestFlush(t *testing.T) {
	c := tinyCache(t, 2)
	full := bits.FullMask(2)
	for i := uint64(0); i < 8; i++ {
		c.Access(i, full, 0)
	}
	c.Flush()
	for i := uint64(0); i < 8; i++ {
		if c.Probe(i) {
			t.Fatalf("line %d survived Flush", i)
		}
	}
	if c.Stats().Misses != 8 {
		t.Error("Flush should preserve stats")
	}
}

func TestOccupancyBySet(t *testing.T) {
	c := tinyCache(t, 2)
	full := bits.FullMask(2)
	c.Access(0, full, 0) // set 0
	c.Access(4, full, 0) // set 0
	c.Access(1, full, 0) // set 1
	occ := c.OccupancyBySet()
	want := []int{2, 1, 0, 0}
	for i := range want {
		if occ[i] != want[i] {
			t.Errorf("occ[%d]=%d want %d", i, occ[i], want[i])
		}
	}
}

func TestOccupancyByCore(t *testing.T) {
	c := tinyCache(t, 2)
	full := bits.FullMask(2)
	c.Access(0, full, 3)
	c.Access(1, full, 3)
	c.Access(2, full, 5)
	occ := c.OccupancyByCore()
	if occ[3] != 2 || occ[5] != 1 {
		t.Errorf("OccupancyByCore=%v", occ)
	}
}

func TestEvictionReportsOwner(t *testing.T) {
	c := tinyCache(t, 1)
	m := bits.FullMask(1)
	c.Access(0, m, 9)
	r := c.Access(4, m, 2)
	if !r.Evicted || r.EvictedLine != 0 || r.EvictedCore != 9 {
		t.Errorf("eviction owner wrong: %+v", r)
	}
}

func TestCyclicScanThrashesLRU(t *testing.T) {
	// The classic result the paper leans on for Streaming detection:
	// a cyclic scan over a working set larger than the cache gets ~0%
	// hits under LRU.
	c := tinyCache(t, 4) // 16 lines capacity
	full := bits.FullMask(4)
	const wsLines = 32
	for pass := 0; pass < 4; pass++ {
		for l := uint64(0); l < wsLines; l++ {
			c.Access(l, full, 0)
		}
	}
	if hr := float64(c.Stats().Hits) / float64(c.Stats().Accesses()); hr > 0.01 {
		t.Errorf("cyclic scan hit rate %.2f; LRU should thrash to ~0", hr)
	}
}

func TestRandomWorkingSetFitsAfterWarmup(t *testing.T) {
	c := tinyCache(t, 4) // 16 lines
	full := bits.FullMask(4)
	rng := rand.New(rand.NewSource(1))
	const wsLines = 8 // half the cache
	for i := 0; i < 1000; i++ {
		c.Access(uint64(rng.Intn(wsLines)), full, 0)
	}
	c.ResetStats()
	for i := 0; i < 1000; i++ {
		c.Access(uint64(rng.Intn(wsLines)), full, 0)
	}
	if mr := c.Stats().MissRate(); mr > 0.001 {
		t.Errorf("working set within capacity should have ~0 misses, got %.3f", mr)
	}
}

func TestSetHistogram(t *testing.T) {
	// 4 sets; lines 0,4,8 -> set 0; line 1 -> set 1.
	hist := SetHistogram([]uint64{0, 4, 8, 1}, 4, 4)
	// set0 has 3, set1 has 1, sets 2,3 have 0.
	want := []int{2, 1, 0, 1, 0}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist=%v want %v", hist, want)
		}
	}
}

func TestSetHistogramCapsBucket(t *testing.T) {
	hist := SetHistogram([]uint64{0, 4, 8, 12, 16}, 4, 2)
	if hist[2] != 1 {
		t.Errorf("overflow bucket=%d want 1 (set 0 holds 5 lines, capped)", hist[2])
	}
}

func TestFractionSetsAtLeast(t *testing.T) {
	got := FractionSetsAtLeast([]uint64{0, 4, 8, 1}, 4, 3)
	if got != 0.25 {
		t.Errorf("FractionSetsAtLeast=%f want 0.25", got)
	}
}

// Property: occupancy per set never exceeds associativity, and a fill
// under a mask lands only in masked ways.
func TestOccupancyNeverExceedsWays(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(Config{Name: "p", SizeBytes: 8 * 4 * LineSize, Ways: 4})
		rng := rand.New(rand.NewSource(seed))
		masks := []bits.CBM{bits.MustCBM(0, 1), bits.MustCBM(1, 2), bits.FullMask(4)}
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.Intn(64)), masks[rng.Intn(len(masks))], uint16(rng.Intn(3)))
		}
		for _, occ := range c.OccupancyBySet() {
			if occ > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses issued; evictions <= misses.
func TestStatsConsistency(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		c := MustNew(Config{Name: "p", SizeBytes: 4 * 2 * LineSize, Ways: 2})
		rng := rand.New(rand.NewSource(seed))
		total := uint64(n)%2000 + 1
		for i := uint64(0); i < total; i++ {
			c.Access(uint64(rng.Intn(32)), bits.FullMask(2), 0)
		}
		st := c.Stats()
		return st.Accesses() == total && st.Evictions <= st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEvictionReportsAllSharers(t *testing.T) {
	c := tinyCache(t, 1)
	m := bits.FullMask(1)
	c.Access(0, m, 2) // core 2 fills
	c.Access(0, m, 5) // core 5 hits the same line
	r := c.Access(4, m, 0)
	if !r.Evicted {
		t.Fatal("expected eviction")
	}
	if r.EvictedSharers != (1<<2)|(1<<5) {
		t.Errorf("sharers=%#x want cores 2 and 5", r.EvictedSharers)
	}
	// The new line's sharer set is just the filler.
	r2 := c.Access(8, m, 1)
	if r2.EvictedSharers != 1<<0 {
		t.Errorf("sharers=%#x want just core 0", r2.EvictedSharers)
	}
}
