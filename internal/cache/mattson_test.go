package cache_test

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/ucp"
	"repro/internal/workload"
)

// The LRU stack property (Mattson et al., 1970) gives an independent
// model of a CAT partition: a tenant alone under mask CBM(0,k) sees a
// k-way LRU cache, so its misses are exactly the k-th point of the miss
// curve a full (unsampled) UMON shadow directory computes. The check
// drives the cache through its lanes the way memsys's batch replay
// does, which makes it the independent witness that per-lane clocks,
// synced between phases, order each set exactly as one clock would.

// mattsonGeometries are a power-of-two and a non-power-of-two set count
// (192 = 64·3, like the Xeon E5 LLC's 36864 = 64·576).
var mattsonGeometries = []cache.Config{
	{Name: "pow2", SizeBytes: 64 * 16 * cache.LineSize, Ways: 16},
	{Name: "nonpow2", SizeBytes: 192 * 12 * cache.LineSize, Ways: 12},
}

// mattsonLanes are the lane splits checked: a line's lane is its set
// class (line>>shift)&(n-1), and n<<shift divides both set counts.
var mattsonLanes = []struct {
	n     int
	shift uint
}{{1, 0}, {2, 5}, {4, 4}, {4, 0}}

// mattsonChunk is how many accesses go through one lane assignment
// before the lanes are synced and the assignment flips.
const mattsonChunk = 777

// laned drives a cache the way memsys does: chunks of the stream go
// alternately through lane 0 (the one-pass replay) and through each
// line's class lane (the partitions), with SyncLanes between.
type laned struct {
	c     *cache.Cache
	n     int
	shift uint
	i     int // accesses so far
}

func newLaned(t *testing.T, cfg cache.Config, n int, shift uint) *laned {
	t.Helper()
	c := cache.MustNew(cfg)
	if err := c.SetLanes(n); err != nil {
		t.Fatal(err)
	}
	return &laned{c: c, n: n, shift: shift}
}

func (l *laned) access(line uint64, mask bits.CBM, core uint16) cache.Result {
	if l.i%mattsonChunk == 0 {
		l.c.SyncLanes()
	}
	lane := 0
	if l.i/mattsonChunk%2 == 1 {
		lane = int(line>>l.shift) & (l.n - 1)
	}
	l.i++
	return l.c.AccessLane(l.c.Lane(lane), line, mask, core)
}

const mattsonAccesses = 40_000

// mattsonStream draws one tenant's line stream from memory at base.
func mattsonStream(t *testing.T, kind string, base uint64, seed int64) []uint64 {
	t.Helper()
	alloc := addr.NewRandAllocatorAt(base, 64<<20, seed)
	var gen workload.Generator
	var err error
	switch kind {
	case "mlr":
		gen, err = workload.NewMLR(256<<10, addr.PageSize4K, alloc, seed)
	case "mload":
		gen, err = workload.NewMLOAD(48<<10, addr.PageSize4K, alloc)
	case "spec":
		gen, err = workload.NewSpec(workload.SpecProfile{Benchmark: "mattson", WSS: 1 << 20,
			CWSS: 96 << 10, HotFraction: 0.8, MAPI: 0.3, MLP: 1, BaseCPI: 1}, alloc, seed)
	case "trace":
		// A replayed trace: a loop over a hot region with a cold
		// stride through a larger one.
		lines := make([]uint64, mattsonAccesses)
		for i := range lines {
			if i%3 == 0 {
				lines[i] = base/cache.LineSize + uint64(i*7)%20_000
			} else {
				lines[i] = base/cache.LineSize + uint64(i)%900
			}
		}
		gen, err = workload.NewTrace("mattson", workload.Params{AccessesPerInstr: 1, MLP: 1, BaseCPI: 1}, lines)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, mattsonAccesses)
	for i := range out {
		out[i] = gen.NextLine()
	}
	return out
}

// missCurve is the stream's LRU miss count at every way count.
func missCurve(t *testing.T, sets, ways int, lines []uint64) []uint64 {
	t.Helper()
	m, err := ucp.NewMonitor(sets, ways, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		m.Observe(l)
	}
	curve := m.MissCurve()
	if curve[1] == curve[ways] {
		t.Fatalf("stream misses %d times at every way count: nothing to check", curve[1])
	}
	return curve
}

func TestMattsonEquality(t *testing.T) {
	for _, cfg := range mattsonGeometries {
		sets := cfg.Sets()
		for _, kind := range []string{"mlr", "mload", "spec", "trace"} {
			lines := mattsonStream(t, kind, 0, 1)
			curve := missCurve(t, sets, cfg.Ways, lines)
			for _, ln := range mattsonLanes {
				t.Run(fmt.Sprintf("%s/%s/lanes=%d<<%d", cfg.Name, kind, ln.n, ln.shift), func(t *testing.T) {
					for k := 0; k <= cfg.Ways; k++ {
						c := newLaned(t, cfg, ln.n, ln.shift)
						mask := bits.CBM(0)
						if k > 0 {
							mask = bits.MustCBM(0, k)
						}
						for _, l := range lines {
							c.access(l, mask, 0)
						}
						if got := c.c.Stats().Misses; got != curve[k] {
							t.Fatalf("%d ways: %d misses, the LRU stack model says %d", k, got, curve[k])
						}
					}
				})
			}
		}
	}
}

// TestMattsonEqualityTwoTenants adds a second tenant on the disjoint
// mask: CAT isolation means neither can evict the other, so each keeps
// exactly its lone miss count while their blocks interleave.
func TestMattsonEqualityTwoTenants(t *testing.T) {
	for _, cfg := range mattsonGeometries {
		sets := cfg.Sets()
		// Tenant B's memory lies above tenant A's, so they share no line.
		a := mattsonStream(t, "spec", 0, 3)
		b := mattsonStream(t, "mlr", 1<<30, 4)
		curveA := missCurve(t, sets, cfg.Ways, a)
		curveB := missCurve(t, sets, cfg.Ways, b)
		for _, ln := range mattsonLanes {
			t.Run(fmt.Sprintf("%s/lanes=%d<<%d", cfg.Name, ln.n, ln.shift), func(t *testing.T) {
				for k := 1; k < cfg.Ways; k++ {
					c := newLaned(t, cfg, ln.n, ln.shift)
					maskA, maskB := bits.MustCBM(0, k), bits.MustCBM(k, cfg.Ways-k)
					var missA, missB uint64
					const block = 500
					for i := 0; i < len(a); i += block {
						for _, l := range a[i:min(i+block, len(a))] {
							if !c.access(l, maskA, 0).Hit {
								missA++
							}
						}
						for _, l := range b[i:min(i+block, len(b))] {
							if !c.access(l, maskB, 1).Hit {
								missB++
							}
						}
					}
					if missA != curveA[k] || missB != curveB[cfg.Ways-k] {
						t.Fatalf("split %d/%d: misses %d/%d, the LRU stack model says %d/%d",
							k, cfg.Ways-k, missA, missB, curveA[k], curveB[cfg.Ways-k])
					}
					if st := c.c.Stats(); st.Misses != missA+missB {
						t.Fatalf("split %d: Stats counts %d misses, the tenants %d", k, st.Misses, missA+missB)
					}
				}
			})
		}
	}
}
