package cache

import (
	mbits "math/bits"
	"testing"

	"repro/internal/bits"
)

// The occupancy fast paths (hit scan over resident ways, invalid-way
// pick by bit-scan) must be invisible: every access must produce the
// same Result, Stats, and cache state as the original full-way scan.
// refCache below *is* that original algorithm — linear scans over all
// ways — reimplemented independently; the fuzz test drives both with
// identical traffic and demands exact agreement, across power-of-two
// and non-power-of-two set counts and all three replacement policies.

type refCache struct {
	cfg     Config
	sets    int
	tags    []uint64
	tick    []uint64
	owner   []uint16
	sharers []uint32
	rrpv    []uint8
	clock   uint64
	rng     uint64
	stats   Stats
}

func newRefCache(cfg Config) *refCache {
	n := cfg.Sets() * cfg.Ways
	r := &refCache{
		cfg:     cfg,
		sets:    cfg.Sets(),
		tags:    make([]uint64, n),
		tick:    make([]uint64, n),
		owner:   make([]uint16, n),
		sharers: make([]uint32, n),
		rng:     uint64(cfg.Seed)*2685821657736338717 + 88172645463325252,
	}
	if cfg.Repl == ReplSRRIP {
		r.rrpv = make([]uint8, n)
	}
	return r
}

func (r *refCache) xorshift() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x
}

func (r *refCache) access(line uint64, mask bits.CBM, core uint16) Result {
	set := int(line % uint64(r.sets))
	base := set * r.cfg.Ways
	r.clock++
	tag := line + 1
	for w := 0; w < r.cfg.Ways; w++ {
		i := base + w
		if r.tags[i] == tag {
			r.tick[i] = r.clock
			r.sharers[i] |= 1 << (core % MaxCores)
			if r.rrpv != nil {
				r.rrpv[i] = 0
			}
			r.stats.Hits++
			return Result{Hit: true}
		}
	}
	r.stats.Misses++
	victim := r.selectVictim(set, base, mask)
	if victim < 0 {
		return Result{}
	}
	i := base + victim
	res := Result{}
	if r.tags[i] != 0 {
		res.Evicted = true
		res.EvictedLine = r.tags[i] - 1
		res.EvictedCore = r.owner[i]
		res.EvictedSharers = r.sharers[i]
		r.stats.Evictions++
	}
	r.tags[i] = tag
	r.tick[i] = r.clock
	r.owner[i] = core
	r.sharers[i] = 1 << (core % MaxCores)
	if r.rrpv != nil {
		r.rrpv[i] = srripInsert
	}
	return res
}

func (r *refCache) selectVictim(set, base int, mask bits.CBM) int {
	var allowed []int
	for w := 0; w < r.cfg.Ways; w++ {
		if mask.Contains(w) {
			allowed = append(allowed, w)
		}
	}
	if len(allowed) == 0 {
		return -1
	}
	for _, w := range allowed {
		if r.tags[base+w] == 0 {
			return w
		}
	}
	switch r.cfg.Repl {
	case ReplRandom:
		return allowed[r.xorshift()%uint64(len(allowed))]
	case ReplSRRIP:
		for {
			for _, w := range allowed {
				if r.rrpv[base+w] == srripMax {
					return w
				}
			}
			for _, w := range allowed {
				if r.rrpv[base+w] < srripMax {
					r.rrpv[base+w]++
				}
			}
		}
	}
	victim := -1
	var victimTick uint64 = ^uint64(0)
	for _, w := range allowed {
		if i := base + w; r.tick[i] < victimTick {
			victim = w
			victimTick = r.tick[i]
		}
	}
	return victim
}

// checkOccInvariant verifies the documented coherence rule: occ bit w
// of a set is set exactly when the corresponding tag is valid.
func checkOccInvariant(t *testing.T, c *Cache) {
	t.Helper()
	for s := 0; s < c.sets; s++ {
		var want uint64
		for w := 0; w < c.cfg.Ways; w++ {
			if c.tags[s*c.cfg.Ways+w] != 0 {
				want |= 1 << uint(w)
			}
		}
		if c.set[s].occ != want {
			t.Fatalf("set %d: occ = %b, tags say %b", s, c.set[s].occ, want)
		}
		if got := c.SetOccupancy(s); got != mbits.OnesCount64(want) {
			t.Fatalf("set %d: SetOccupancy = %d, want %d", s, got, mbits.OnesCount64(want))
		}
	}
}

// testRand is a fixed-seed splitmix64 so the fuzz streams are
// reproducible.
type testRand uint64

func (r *testRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestOccupancyFastPathMatchesScan(t *testing.T) {
	configs := []Config{
		{Name: "pow2-lru", SizeBytes: 64 * 8 * LineSize, Ways: 8, Repl: ReplLRU},
		{Name: "pow2-srrip", SizeBytes: 64 * 8 * LineSize, Ways: 8, Repl: ReplSRRIP},
		{Name: "pow2-random", SizeBytes: 64 * 8 * LineSize, Ways: 8, Repl: ReplRandom, Seed: 42},
		// The paper's Xeon E5 shape scaled down: non-power-of-two sets
		// (36), 20 ways — the modulo set-index path.
		{Name: "nonpow2-lru", SizeBytes: 36 * 20 * LineSize, Ways: 20, Repl: ReplLRU},
		{Name: "nonpow2-srrip", SizeBytes: 36 * 20 * LineSize, Ways: 20, Repl: ReplSRRIP},
		{Name: "nonpow2-random", SizeBytes: 36 * 20 * LineSize, Ways: 20, Repl: ReplRandom, Seed: 7},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c := MustNew(cfg)
			ref := newRefCache(cfg)
			rnd := testRand(0xdca7)
			masks := []bits.CBM{
				bits.FullMask(cfg.Ways),
				bits.MustCBM(0, 2),
				bits.MustCBM(cfg.Ways-3, 3),
				bits.MustCBM(1, cfg.Ways/2),
				0, // empty mask: bypass, CAT can't express it but the simulator tolerates it
			}
			mask := masks[0]
			const accesses = 60000
			for i := 0; i < accesses; i++ {
				r := rnd.next()
				if r%97 == 0 {
					mask = masks[rnd.next()%uint64(len(masks))]
				}
				// Mix dense reuse with a long tail so hits, invalid-way
				// fills, and evictions all occur.
				line := r % uint64(cfg.Sets()*cfg.Ways*3)
				core := uint16(r % 4)
				got := c.Access(line, mask, core)
				want := ref.access(line, mask, core)
				if got != want {
					t.Fatalf("access %d (line %d mask %s): got %+v, want %+v", i, line, mask, got, want)
				}
				switch r % 211 {
				case 0:
					if c.Invalidate(line) {
						ref.tags[int(line%uint64(ref.sets))*cfg.Ways+refWayOf(ref, line)] = 0
					}
				case 1:
					if c.Probe(line) != refProbe(ref, line) {
						t.Fatalf("access %d: Probe(%d) disagrees", i, line)
					}
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("stats diverged: got %+v, want %+v", c.Stats(), ref.stats)
			}
			checkOccInvariant(t, c)
			for i := range c.tags {
				if c.tags[i] != ref.tags[i] {
					t.Fatalf("tags[%d] = %d, ref %d", i, c.tags[i], ref.tags[i])
				}
			}
		})
	}
}

// refWayOf returns the way holding line in the reference model; it must
// only be called when the line is resident.
func refWayOf(r *refCache, line uint64) int {
	base := int(line%uint64(r.sets)) * r.cfg.Ways
	for w := 0; w < r.cfg.Ways; w++ {
		if r.tags[base+w] == line+1 {
			return w
		}
	}
	panic("refWayOf: line not resident")
}

func refProbe(r *refCache, line uint64) bool {
	base := int(line%uint64(r.sets)) * r.cfg.Ways
	for w := 0; w < r.cfg.Ways; w++ {
		if r.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// TestOccInvariantAcrossMaintenance drives the bulk-invalidations
// (Flush, FlushWays, Invalidate) and re-checks the occupancy bitmask
// against the tags after each.
func TestOccInvariantAcrossMaintenance(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 64 * 8 * LineSize, Ways: 8})
	full := bits.FullMask(8)
	rnd := testRand(99)
	for i := 0; i < 4096; i++ {
		c.Access(rnd.next()%2048, full, uint16(i%3))
	}
	checkOccInvariant(t, c)

	if n := c.FlushWays(bits.MustCBM(2, 3)); n == 0 {
		t.Fatal("FlushWays dropped nothing")
	}
	checkOccInvariant(t, c)

	for i := 0; i < 256; i++ {
		c.Invalidate(rnd.next() % 2048)
	}
	checkOccInvariant(t, c)

	c.Flush()
	checkOccInvariant(t, c)
	for _, n := range c.OccupancyBySet() {
		if n != 0 {
			t.Fatal("flushed cache still occupied")
		}
	}
}

// TestLinesPerSetAgreement pins the shared mapping pass: SetHistogram
// and FractionSetsAtLeast must agree with LinesPerSet (they used to
// duplicate the per-set counting loop and could drift).
func TestLinesPerSetAgreement(t *testing.T) {
	rnd := testRand(7)
	lines := make([]uint64, 3000)
	for i := range lines {
		lines[i] = rnd.next() % 4096
	}
	const sets = 512
	per := LinesPerSet(lines, sets)
	totalLines := 0
	for _, n := range per {
		totalLines += n
	}
	if totalLines != len(lines) {
		t.Fatalf("LinesPerSet accounts for %d lines, want %d", totalLines, len(lines))
	}

	const maxBucket = 8
	hist := SetHistogram(lines, sets, maxBucket)
	wantHist := make([]int, maxBucket+1)
	for _, n := range per {
		if n > maxBucket {
			n = maxBucket
		}
		wantHist[n]++
	}
	for k := range hist {
		if hist[k] != wantHist[k] {
			t.Fatalf("hist[%d] = %d, want %d", k, hist[k], wantHist[k])
		}
	}

	for k := 0; k <= maxBucket; k++ {
		n := 0
		for _, c := range per {
			if c >= k {
				n++
			}
		}
		want := float64(n) / float64(sets)
		if got := FractionSetsAtLeast(lines, sets, k); got != want {
			t.Fatalf("FractionSetsAtLeast(%d) = %g, want %g", k, got, want)
		}
	}
}

// flushWaysWayMajor is the original FlushWays: way by way over every
// set, dropping each valid tag. It is the reference the set-major walk
// over the occupancy bitmask must match.
func flushWaysWayMajor(c *Cache, mask bits.CBM) int {
	n := 0
	for w := 0; w < c.cfg.Ways; w++ {
		if !mask.Contains(w) {
			continue
		}
		for s := 0; s < c.sets; s++ {
			i := s*c.cfg.Ways + w
			if c.tags[i] != 0 {
				c.tags[i] = 0
				c.set[s].occ &^= 1 << uint(w)
				n++
			}
		}
	}
	return n
}

// cloneCache deep-copies a cache's contents.
func cloneCache(c *Cache) *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.tick = append([]uint64(nil), c.tick...)
	d.owner = append([]uint16(nil), c.owner...)
	d.sharers = append([]uint32(nil), c.sharers...)
	d.set = append([]setState(nil), c.set...)
	d.lanes = append([]Lane(nil), c.lanes...)
	if c.rrpv != nil {
		d.rrpv = append([]uint8(nil), c.rrpv...)
	}
	return &d
}

// TestFlushWaysMatchesWayMajor checks the set-major FlushWays against
// the way-major reference: same count, same final tags and occupancy,
// for contiguous, scattered, full, empty and out-of-range masks on a
// power-of-two and a non-power-of-two geometry.
func TestFlushWaysMatchesWayMajor(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "pow2", SizeBytes: 64 * 8 * LineSize, Ways: 8},
		{Name: "nonpow2", SizeBytes: 96 * 20 * LineSize, Ways: 20},
	} {
		c := MustNew(cfg)
		rnd := testRand(5)
		for round := 0; round < 40; round++ {
			for i := 0; i < 2000; i++ {
				start := int(rnd.next() % uint64(cfg.Ways))
				n := 1 + int(rnd.next()%uint64(cfg.Ways-start))
				c.Access(rnd.next()%8192, bits.MustCBM(start, n), uint16(i%4))
			}
			var mask bits.CBM
			switch round % 4 {
			case 0:
				mask = bits.CBM(rnd.next()) // scattered bits, some beyond Ways
			case 1:
				mask = bits.FullMask(cfg.Ways)
			case 2:
				mask = 0
			default:
				mask = bits.MustCBM(int(rnd.next()%uint64(cfg.Ways-1)), 1)
			}
			ref := cloneCache(c)
			want := flushWaysWayMajor(ref, mask)
			if got := c.FlushWays(mask); got != want {
				t.Fatalf("%s round %d mask %b: dropped %d, way-major %d", cfg.Name, round, mask, got, want)
			}
			for i := range c.tags {
				if c.tags[i] != ref.tags[i] {
					t.Fatalf("%s round %d: tag %d differs", cfg.Name, round, i)
				}
			}
			for s := range c.set {
				if c.set[s] != ref.set[s] {
					t.Fatalf("%s round %d: set %d state differs", cfg.Name, round, s)
				}
			}
			checkOccInvariant(t, c)
		}
	}
}
