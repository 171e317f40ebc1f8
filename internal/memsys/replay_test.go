package memsys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/perf"
)

// sameCounters fails the test unless every perf event of the first
// cores cores reads the same through both readers.
func sameCounters(t *testing.T, ref, got perf.Reader, cores int) {
	t.Helper()
	for core := 0; core < cores; core++ {
		for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
			if a, b := ref.ReadCounter(core, e), got.ReadCounter(core, e); a != b {
				t.Fatalf("core %d %s: reference %d != replay %d", core, e, a, b)
			}
		}
	}
}

// sameState fails the test unless two systems agree on everything an
// access can change: counters, cache statistics, which lines each cache
// holds for whom, and the remote-access accounting.
func sameState(t *testing.T, ref, got *NUMASystem) {
	t.Helper()
	sameCounters(t, ref.Counters(), got.Counters(), ref.TotalCores())
	for s := 0; s < ref.Sockets(); s++ {
		a, b := ref.Socket(s), got.Socket(s)
		if a.LLC().Stats() != b.LLC().Stats() {
			t.Fatalf("socket %d LLC stats: %+v != %+v", s, a.LLC().Stats(), b.LLC().Stats())
		}
		if !reflect.DeepEqual(a.LLC().OccupancyByCore(), b.LLC().OccupancyByCore()) ||
			!reflect.DeepEqual(a.LLC().OccupancyBySet(), b.LLC().OccupancyBySet()) {
			t.Fatalf("socket %d LLC contents diverged", s)
		}
		for c := 0; c < a.Config().Cores; c++ {
			if a.L1(c).Stats() != b.L1(c).Stats() ||
				!reflect.DeepEqual(a.L1(c).OccupancyBySet(), b.L1(c).OccupancyBySet()) {
				t.Fatalf("socket %d L1 %d diverged", s, c)
			}
		}
		if ref.RemoteAccesses(s) != got.RemoteAccesses(s) ||
			ref.RemotePenaltyCycles(s) != got.RemotePenaltyCycles(s) {
			t.Fatalf("socket %d remote accounting: %d/%d != %d/%d", s,
				ref.RemoteAccesses(s), ref.RemotePenaltyCycles(s),
				got.RemoteAccesses(s), got.RemotePenaltyCycles(s))
		}
	}
}

// forEachPartitioning runs f with the default partition count and with
// 1, 2 and 4 forced, every batch then taking the partitioned path.
func forEachPartitioning(t *testing.T, f func(t *testing.T)) {
	for _, p := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			partitionsForTest = p
			defer func() { partitionsForTest = 0 }()
			f(t)
		})
	}
}

// replayStream feeds the same blocks to ref per line and to got in
// batches of 1 to maxBatch blocks, checking each block's latency, and
// calls between(block) after every batch for mask changes.
func replayStream(t *testing.T, ref, got *NUMASystem, rng *rand.Rand, blocks, maxBatch int,
	next func(block int) (core int, lines []uint64), between func(block int)) {
	t.Helper()
	for block := 0; block < blocks; {
		batch := make([]Block, 0, maxBatch)
		var want []uint64
		for n := 1 + rng.Intn(maxBatch); n > 0 && block < blocks; n-- {
			core, lines := next(block)
			var w uint64
			for _, l := range lines {
				w += ref.Access(core, l)
			}
			want = append(want, w)
			batch = append(batch, Block{Core: core, Lines: lines})
			block++
		}
		lat := make([]uint64, len(batch))
		got.Replay(batch, lat)
		for i := range lat {
			if lat[i] != want[i] {
				t.Fatalf("block %d of batch ending at %d: latency %d != %d", i, block, lat[i], want[i])
			}
		}
		between(block)
	}
}

// TestIntervalPassMatchesAccessMany is the guard the Replay doc
// promises: an interval's batched pass must leave the system in exactly
// the state per-line Access does — same latency per block, counters,
// cache statistics and contents — on every partition count, including
// when masks change between batches.
func TestIntervalPassMatchesAccessMany(t *testing.T) {
	for _, stream := range []struct {
		name               string
		seed               int64
		blocks, batch      int
		span               uint64
		widenMaskAfterHalf bool
	}{
		// The host's shape: many blocks per batch, a mask install
		// half-way.
		{"mask-change", 23, 60, 1500, 150_000, true},
		// Overlapping working sets force cross-core LLC evictions and
		// the inclusive back-invalidation path.
		{"back-invalidation", 11, 50, 2000, 200_000, false},
	} {
		t.Run(stream.name, func(t *testing.T) {
			forEachPartitioning(t, func(t *testing.T) {
				cfg := NUMAConfig{Sockets: 1, Socket: XeonD(), MemBytesPerSocket: 1 << 30}
				ref, got := MustNewNUMA(cfg), MustNewNUMA(cfg)
				setMask := func(core int, m bits.CBM) {
					t.Helper()
					if err := ref.SetMask(core, m); err != nil {
						t.Fatal(err)
					}
					if err := got.SetMask(core, m); err != nil {
						t.Fatal(err)
					}
				}
				for core := 0; core < 4; core++ {
					setMask(core, bits.MustCBM(core*3, 3))
				}
				rng := rand.New(rand.NewSource(stream.seed))
				widened := false
				replayStream(t, ref, got, rng, stream.blocks, 8,
					func(block int) (int, []uint64) {
						lines := make([]uint64, stream.batch)
						for i := range lines {
							lines[i] = rng.Uint64() % stream.span
						}
						return block % 4, lines
					},
					func(block int) {
						if stream.widenMaskAfterHalf && !widened && block >= stream.blocks/2 {
							setMask(1, bits.MustCBM(0, 6))
							widened = true
						}
					})
				sameState(t, ref, got)
			})
		})
	}
}

// TestNUMAIntervalPassMatchesAccessMany extends the guard to the
// multi-socket path: partitions per socket and the remote-penalty
// accounting must agree with per-line NUMASystem.Access exactly.
func TestNUMAIntervalPassMatchesAccessMany(t *testing.T) {
	xeon := NUMAConfig{
		Sockets:           2,
		Socket:            XeonD(),
		MemBytesPerSocket: 1 << 20,
		RemotePenalty:     DefaultRemotePenalty,
	}
	xeonCores := []int{0, 2, xeon.Socket.Cores, xeon.Socket.Cores + 1}
	for _, stream := range []struct {
		name   string
		cfg    NUMAConfig
		seed   int64
		cores  []int // both sockets
		masked bool  // give every core its own 3-way partition
		blocks int
		next   func(block int, rng *rand.Rand) (core int, lines []uint64)
	}{
		{"long-batches", xeon, 31, xeonCores, true, 60,
			func(block int, rng *rand.Rand) (int, []uint64) {
				span := 2 * (xeon.MemBytesPerSocket / 64) // lines across both homes
				lines := make([]uint64, 1200)
				for i := range lines {
					if rng.Intn(3) == 0 {
						lines[i] = rng.Uint64() % span
					} else {
						lines[i] = rng.Uint64() % (span / 2)
					}
				}
				return xeonCores[block%len(xeonCores)], lines
			}},
		// Tiny shared caches and short mixed-home blocks, empty ones
		// included.
		{"short-batches", smallNUMAConfig(2, 130), 23, []int{0, 1, 2, 3}, false, 50,
			func(_ int, rng *rand.Rand) (int, []uint64) {
				core := rng.Intn(4)
				lines := make([]uint64, rng.Intn(200))
				for i := range lines {
					lines[i] = uint64(rng.Intn(2 * linesPerSocket))
				}
				return core, lines
			}},
	} {
		t.Run(stream.name, func(t *testing.T) {
			forEachPartitioning(t, func(t *testing.T) {
				ref, got := MustNewNUMA(stream.cfg), MustNewNUMA(stream.cfg)
				if stream.masked {
					for _, c := range stream.cores {
						m := bits.MustCBM((c%4)*3, 3)
						if err := ref.SetMask(c, m); err != nil {
							t.Fatal(err)
						}
						if err := got.SetMask(c, m); err != nil {
							t.Fatal(err)
						}
					}
				}
				rng := rand.New(rand.NewSource(stream.seed))
				replayStream(t, ref, got, rng, stream.blocks, 12,
					func(block int) (int, []uint64) { return stream.next(block, rng) },
					func(int) {})
				sameState(t, ref, got)
			})
		})
	}
}

// TestSetClasses pins how the class count follows GOMAXPROCS and the
// geometry: a power of two, at most the wanted count, dividing the
// common power-of-two factor of the set counts, and one class whenever
// a cache replaces at random.
func TestSetClasses(t *testing.T) {
	defer func() { partitionsForTest = 0 }()
	for _, tc := range []struct {
		cfg         Config
		want, n     int
		runLength   int
		description string
	}{
		{XeonE5(), 2, 2, 32, "E5: 64 and 36864 sets share 64"},
		{XeonE5(), 4, 4, 16, "E5 at 4"},
		{XeonD(), 3, 2, 32, "rounded down to a power of two"},
		{XeonD(), 1, 1, 64, "one wanted"},
		{smallConfig(), 8, 2, 1, "2 and 8 sets share 2"},
		{func() Config { c := XeonE5(); c.LLC.Repl = cache.ReplRandom; return c }(), 4, 1, 64, "random LLC"},
	} {
		partitionsForTest = tc.want
		n, shift := setClasses(tc.cfg)
		if n != tc.n || 1<<shift != tc.runLength {
			t.Errorf("%s: %d classes of %d-set runs, want %d of %d", tc.description, n, 1<<shift, tc.n, tc.runLength)
		}
	}
}
