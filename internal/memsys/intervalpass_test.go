package memsys

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/perf"
)

// sameCounters fails the test unless every perf event of the first
// cores cores reads the same through both readers.
func sameCounters(t *testing.T, ref, fused perf.Reader, cores int) {
	t.Helper()
	for core := 0; core < cores; core++ {
		for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
			if a, b := ref.ReadCounter(core, e), fused.ReadCounter(core, e); a != b {
				t.Fatalf("core %d %s: reference %d != fused %d", core, e, a, b)
			}
		}
	}
}

// TestIntervalPassMatchesAccessMany is the guard the IntervalPass doc
// promises: a fused pass (BeginInterval / batched AccessMany / Close)
// must leave the system in exactly the state per-line Access does —
// same latency per batch, same counter banks after Close, same cache
// contents — including when masks change between batches.
func TestIntervalPassMatchesAccessMany(t *testing.T) {
	for _, stream := range []struct {
		name               string
		seed               int64
		blocks, batch      int
		span               uint64
		widenMaskAfterHalf bool
	}{
		// One interval per core, many batches per interval — the host's
		// shape — with a mask install half-way.
		{"mask-change", 23, 60, 1500, 150_000, true},
		// Overlapping working sets force cross-core LLC evictions and
		// the inclusive back-invalidation path.
		{"back-invalidation", 11, 50, 2000, 200_000, false},
	} {
		t.Run(stream.name, func(t *testing.T) {
			cfg := XeonD()
			ref := MustNew(cfg)
			fused := MustNew(cfg)
			setMask := func(core int, m bits.CBM) {
				t.Helper()
				if err := ref.SetMask(core, m); err != nil {
					t.Fatal(err)
				}
				if err := fused.SetMask(core, m); err != nil {
					t.Fatal(err)
				}
			}
			for core := 0; core < 4; core++ {
				setMask(core, bits.MustCBM(core*3, 3))
			}

			rng := rand.New(rand.NewSource(stream.seed))
			// Passes stay open across all batches of the interval.
			passes := make([]IntervalPass, 4)
			for core := range passes {
				passes[core] = fused.BeginInterval(core)
			}
			for block := 0; block < stream.blocks; block++ {
				core := block % 4
				lines := make([]uint64, stream.batch)
				for i := range lines {
					lines[i] = rng.Uint64() % stream.span
				}
				var want uint64
				for _, l := range lines {
					want += ref.Access(core, l)
				}
				if got := passes[core].AccessMany(lines); got != want {
					t.Fatalf("block %d core %d: latency %d != %d", block, core, got, want)
				}
				if stream.widenMaskAfterHalf && block == stream.blocks/2 {
					// corePass re-reads the fill mask per batch: an install
					// between batches must apply to both systems identically.
					setMask(1, bits.MustCBM(0, 6))
				}
			}
			for _, p := range passes {
				p.Close()
			}

			sameCounters(t, ref.Counters(), fused.Counters(), cfg.Cores)
			if ref.LLC().Stats() != fused.LLC().Stats() {
				t.Fatalf("LLC stats diverged: %+v vs %+v", ref.LLC().Stats(), fused.LLC().Stats())
			}
			for core := 0; core < 4; core++ {
				if ref.L1(core).Stats() != fused.L1(core).Stats() {
					t.Fatalf("L1 %d stats diverged", core)
				}
			}
		})
	}
}

// TestIntervalPassCountersLagUntilClose pins the documented contract:
// perf reads before Close see none of the pass's traffic, and Close
// flushes all of it at once.
func TestIntervalPassCountersLagUntilClose(t *testing.T) {
	sys := MustNew(XeonD())
	p := sys.BeginInterval(0)
	lines := make([]uint64, 4096)
	for i := range lines {
		lines[i] = uint64(i)
	}
	if p.AccessMany(lines) == 0 {
		t.Fatal("no latency accumulated")
	}
	if n := sys.Counters().ReadCounter(0, perf.L1Misses); n != 0 {
		t.Fatalf("counters visible before Close: %d L1 misses", n)
	}
	p.Close()
	if n := sys.Counters().ReadCounter(0, perf.L1Misses); n == 0 {
		t.Fatal("Close flushed nothing")
	}
}

// TestNUMAIntervalPassMatchesAccessMany extends the fused-pass guard to
// the multi-socket path: same-home run splitting and remote-penalty
// accounting must agree with per-line NUMASystem.Access exactly.
func TestNUMAIntervalPassMatchesAccessMany(t *testing.T) {
	xeon := NUMAConfig{
		Sockets:           2,
		Socket:            XeonD(),
		MemBytesPerSocket: 1 << 20,
		RemotePenalty:     DefaultRemotePenalty,
	}
	small := smallNUMAConfig(2, 130)
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
						// Short same-home runs: exercise the run splitter.
						lines[i] = rng.Uint64() % span
					} else {
						lines[i] = rng.Uint64() % (span / 2)
					}
				}
				return xeonCores[block%len(xeonCores)], lines
			}},
		// Tiny shared caches and short mixed-home batches, empty ones
		// included.
		{"short-batches", small, 23, []int{0, 1, 2, 3}, false, 50,
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
			cfg := stream.cfg
			ref := MustNewNUMA(cfg)
			fused := MustNewNUMA(cfg)
			if stream.masked {
				for _, c := range stream.cores {
					m := bits.MustCBM((c%4)*3, 3)
					if err := ref.SetMask(c, m); err != nil {
						t.Fatal(err)
					}
					if err := fused.SetMask(c, m); err != nil {
						t.Fatal(err)
					}
				}
			}

			rng := rand.New(rand.NewSource(stream.seed))
			passes := make(map[int]IntervalPass, len(stream.cores))
			for _, c := range stream.cores {
				passes[c] = fused.BeginInterval(c)
			}
			for block := 0; block < stream.blocks; block++ {
				core, lines := stream.next(block, rng)
				var want uint64
				for _, l := range lines {
					want += ref.Access(core, l)
				}
				if got := passes[core].AccessMany(lines); got != want {
					t.Fatalf("block %d core %d: latency %d != %d", block, core, got, want)
				}
			}
			for _, c := range stream.cores {
				passes[c].Close()
			}

			for s := 0; s < cfg.Sockets; s++ {
				if a, b := ref.RemoteAccesses(s), fused.RemoteAccesses(s); a != b {
					t.Fatalf("socket %d remote accesses: %d != %d", s, a, b)
				}
				if a, b := ref.RemotePenaltyCycles(s), fused.RemotePenaltyCycles(s); a != b {
					t.Fatalf("socket %d remote cycles: %d != %d", s, a, b)
				}
				if ref.Socket(s).LLC().Stats() != fused.Socket(s).LLC().Stats() {
					t.Fatalf("socket %d LLC stats diverged", s)
				}
			}
			sameCounters(t, ref.Counters(), fused.Counters(), cfg.TotalCores())
		})
	}
}

// TestNUMABeginIntervalDelegates checks the fast path: with one socket
// or no penalty, BeginInterval returns the socket's own pass.
func TestNUMABeginIntervalDelegates(t *testing.T) {
	cfg := NUMAConfig{Sockets: 2, Socket: XeonD(), MemBytesPerSocket: 1 << 20}
	n := MustNewNUMA(cfg) // RemotePenalty 0
	if _, ok := n.BeginInterval(0).(*corePass); !ok {
		t.Fatalf("penalty 0: BeginInterval returned %T, want *corePass", n.BeginInterval(0))
	}
	cfg.Sockets = 1
	cfg.RemotePenalty = DefaultRemotePenalty
	n = MustNewNUMA(cfg)
	if _, ok := n.BeginInterval(0).(*corePass); !ok {
		t.Fatalf("one socket: BeginInterval returned %T, want *corePass", n.BeginInterval(0))
	}
}
