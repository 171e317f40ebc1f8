// Package cache implements a set-associative cache simulator with
// CAT-style way masks.
//
// The model follows how Intel CAT actually behaves: a capacity bitmask
// (CBM) restricts which ways an access may *fill or evict*, while hits
// may land in any way. Restricting a workload's mask therefore shrinks
// both its usable capacity and its associativity, which is exactly the
// mechanism behind the conflict-miss results in dCat §2.1.
package cache

import (
	"fmt"
	mbits "math/bits"

	"repro/internal/bits"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Replacement selects the victim-choice policy within the ways a mask
// allows.
type Replacement int

const (
	// ReplLRU evicts the least-recently-used allowed line — the
	// textbook policy and the model the dCat paper's analysis assumes
	// (cyclic patterns thrash it, §3.4 Streaming).
	ReplLRU Replacement = iota
	// ReplRandom evicts a uniformly random allowed line.
	ReplRandom
	// ReplSRRIP is static re-reference interval prediction (Jaleel et
	// al., ISCA 2010): 2-bit RRPVs give scan resistance — a cyclic
	// scan no longer flushes the reused working set.
	ReplSRRIP
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case ReplLRU:
		return "lru"
	case ReplRandom:
		return "random"
	case ReplSRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes a cache geometry.
type Config struct {
	Name      string // for diagnostics ("LLC", "L1d")
	SizeBytes uint64 // total capacity
	Ways      int    // associativity
	// Repl selects the replacement policy; the zero value is LRU.
	Repl Replacement
	// Seed drives ReplRandom's victim choice (ignored otherwise).
	Seed int64
}

// Sets returns the number of sets implied by the geometry.
//
// Power-of-two set counts get a masked set-index fast path; any other
// count falls back to a modulo per access. Both are valid geometries —
// real parts ship both (the paper's Xeon E5 LLC has 36864 sets, 4096*9)
// — they only differ in simulator speed.
func (c Config) Sets() int {
	return int(c.SizeBytes / uint64(LineSize) / uint64(c.Ways))
}

// Validate checks the geometry is usable. Non-power-of-two set counts
// are accepted (see Sets); only zero/indivisible capacities are
// rejected.
func (c Config) Validate() error {
	if c.Ways <= 0 || c.Ways > bits.MaxWays {
		return fmt.Errorf("cache %s: ways %d out of range", c.Name, c.Ways)
	}
	if c.Repl < ReplLRU || c.Repl > ReplSRRIP {
		return fmt.Errorf("cache %s: unknown replacement policy %d", c.Name, c.Repl)
	}
	if c.SizeBytes == 0 || c.SizeBytes%uint64(LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d ways of whole lines",
			c.Name, c.SizeBytes, c.Ways)
	}
	return nil
}

// Stats accumulates access outcomes.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // misses that displaced a valid line
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// MaxCores bounds the core IDs the sharer tracking supports.
const MaxCores = 32

// Result reports what one access did.
type Result struct {
	Hit         bool
	Evicted     bool   // a valid line was displaced
	EvictedLine uint64 // line address of the victim, when Evicted
	EvictedCore uint16 // core that filled the victim, when Evicted
	// EvictedSharers is the bitmask of cores that ever touched the
	// victim while resident — the cores whose L1 must be back-
	// invalidated to preserve inclusion.
	EvictedSharers uint32
}

// Cache is a set-associative cache. It is not safe for concurrent use,
// with one exception: accesses through different lanes (AccessLane) may
// run on different goroutines when they touch disjoint sets.
type Cache struct {
	cfg  Config
	sets int
	// setMask is sets-1 when sets is a power of two (masked indexing);
	// -1 flags the modulo slow path for other geometries.
	setMask int64

	// lanes hold the LRU clock and the outcome counts; Access uses
	// lane 0 (see SetLanes).
	lanes []Lane

	// Flat arrays indexed by set*ways+way. tags stores line+1 so the
	// zero value means invalid.
	tags    []uint64
	tick    []uint64
	owner   []uint16 // core that filled the line
	sharers []uint32 // cores that touched the line while resident
	rrpv    []uint8  // SRRIP re-reference prediction values

	// set holds the per-set state (see setState).
	set []setState
	// waysMask has the low Ways bits set — the widest mask the geometry
	// admits; bits beyond it in a caller's CBM are ignored.
	waysMask uint64

	rngState uint64 // xorshift state for ReplRandom

	// ReplRandom victim choice indexes into the ascending list of ways a
	// CBM allows (LRU/SRRIP iterate the mask bits directly); the list is
	// memoized per mask. lastMask/lastWays short-circuit the common case
	// (the same core missing repeatedly under one mask); wayLists keeps
	// every mask ever seen (a handful per socket — one per class of
	// service).
	lastMask bits.CBM
	lastWays []uint8
	wayLists map[bits.CBM][]uint8
}

// setState is one set's bookkeeping beside its ways.
type setState struct {
	// occ is the occupancy bitmask: bit w set iff tags[set*ways+w] is
	// valid. The hit path scans only resident ways through it, and the
	// miss path picks an invalid allowed way with one bit-scan instead
	// of walking every way's tag. The valid-way count is
	// OnesCount64(occ); storing it separately would be redundant state
	// to keep coherent. Invariant (guarded by tests): a bit is set
	// exactly when the corresponding tag is non-zero.
	occ uint64
	// mru is the way of the most recent hit or fill, probed before the
	// occupancy scan. Pure way prediction: tags are unique within a set
	// (fills happen only on miss), so a hit's outcome is scan-order
	// independent and checking the hot way first cannot change
	// behaviour — it only skips the scan for temporally local access
	// streams. A stale prediction costs one extra tag compare. It sits
	// beside occ rather than in a byte array of its own so that lanes
	// replayed on different cores never write the same host cache line.
	mru uint8
}

// Lane is one share of a cache's LRU clock and counters, padded to a
// host cache line so lanes used on different cores do not share one.
type Lane struct {
	clock uint64
	stats Stats
	_     [64 - 32]byte
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets() * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     cfg.Sets(),
		setMask:  -1,
		tags:     make([]uint64, n),
		tick:     make([]uint64, n),
		owner:    make([]uint16, n),
		sharers:  make([]uint32, n),
		set:      make([]setState, cfg.Sets()),
		lanes:    make([]Lane, 1),
		waysMask: uint64(bits.FullMask(cfg.Ways)),
		rngState: uint64(cfg.Seed)*2685821657736338717 + 88172645463325252,
		wayLists: make(map[bits.CBM][]uint8),
	}
	if s := c.sets; s > 0 && s&(s-1) == 0 {
		c.setMask = int64(s - 1)
	}
	if cfg.Repl == ReplSRRIP {
		c.rrpv = make([]uint8, n)
	}
	return c, nil
}

// MustNew is New for geometries known valid; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Stats returns accumulated statistics, summed over the lanes.
func (c *Cache) Stats() Stats {
	var s Stats
	for i := range c.lanes {
		l := &c.lanes[i].stats
		s.Hits += l.Hits
		s.Misses += l.Misses
		s.Evictions += l.Evictions
	}
	return s
}

// ResetStats clears counters without touching contents.
func (c *Cache) ResetStats() {
	for i := range c.lanes {
		c.lanes[i].stats = Stats{}
	}
}

// SetLanes gives the cache n lanes, so that n goroutines can access it
// at once, each through its own lane and its own disjoint group of
// sets. LRU only compares ticks within a set, so a clock per lane keeps
// every set's order exact provided that, between two SyncLanes calls,
// each set is accessed through one lane only. ReplRandom draws every
// victim from one random sequence, so it cannot be split. The clock and
// counters so far stay with lane 0.
func (c *Cache) SetLanes(n int) error {
	if n < 1 {
		return fmt.Errorf("cache %s: %d lanes", c.cfg.Name, n)
	}
	if n > 1 && c.cfg.Repl == ReplRandom {
		return fmt.Errorf("cache %s: random replacement cannot be split into lanes", c.cfg.Name)
	}
	lanes := make([]Lane, n)
	lanes[0].stats = c.Stats()
	c.lanes = lanes
	c.SyncLanes()
	return nil
}

// Lane returns lane i, for AccessLane.
func (c *Cache) Lane(i int) *Lane { return &c.lanes[i] }

// SyncLanes sets every lane's clock to the highest, so that afterwards
// any lane may take over any set. Call it whenever the assignment of
// sets to lanes changes.
func (c *Cache) SyncLanes() {
	var clock uint64
	for i := range c.lanes {
		clock = max(clock, c.lanes[i].clock)
	}
	for i := range c.lanes {
		c.lanes[i].clock = clock
	}
}

// Pow2Sets reports whether the set count is a power of two, i.e.
// whether set indexing takes the masked fast path.
func (c *Cache) Pow2Sets() bool { return c.setMask >= 0 }

// SetIndex maps a line address to its set: a mask for power-of-two set
// counts, a modulo otherwise. Both agree with line % sets.
func (c *Cache) SetIndex(line uint64) int {
	if c.setMask >= 0 {
		return int(line & uint64(c.setMask))
	}
	return int(line % uint64(c.sets))
}

// allowedWays returns the ascending indices of the ways mask allows,
// memoized per mask. The returned slice is shared: callers must not
// mutate it.
func (c *Cache) allowedWays(mask bits.CBM) []uint8 {
	if mask == c.lastMask {
		return c.lastWays
	}
	ways, ok := c.wayLists[mask]
	if !ok {
		for w := 0; w < c.cfg.Ways; w++ {
			if mask.Contains(w) {
				ways = append(ways, uint8(w))
			}
		}
		c.wayLists[mask] = ways
	}
	c.lastMask, c.lastWays = mask, ways
	return ways
}

// Access looks up the line (an address divided by LineSize). On a miss
// it fills the line, evicting the least-recently-used line among the
// ways allowed by mask. The owning core is recorded for inclusive
// back-invalidation by the caller. A full mask gives unrestricted
// (shared-cache) behaviour. It counts in lane 0.
func (c *Cache) Access(line uint64, mask bits.CBM, core uint16) Result {
	return c.AccessLane(&c.lanes[0], line, mask, core)
}

// AccessLane is Access counted in lane ln, which must be one of the
// cache's lanes (see SetLanes).
func (c *Cache) AccessLane(ln *Lane, line uint64, mask bits.CBM, core uint16) Result {
	set := c.SetIndex(line)
	base := set * c.cfg.Ways
	st := &c.set[set]
	ln.clock++

	// Hit path: a line may reside in any way, including ways outside
	// the current mask (e.g. filled under an earlier, wider mask) — but
	// only in a *resident* one. The predicted (most recently hit or
	// filled) way is probed first; otherwise scan the occupancy bitmask
	// instead of every way. Cold and partially filled sets exit after
	// exactly as many tag compares as they hold lines.
	tag := line + 1
	if i := base + int(st.mru); c.tags[i] == tag {
		c.tick[i] = ln.clock
		c.sharers[i] |= 1 << (core % MaxCores)
		if c.rrpv != nil {
			c.rrpv[i] = 0 // SRRIP: near re-reference on hit
		}
		ln.stats.Hits++
		return Result{Hit: true}
	}
	for m := st.occ; m != 0; m &= m - 1 {
		w := mbits.TrailingZeros64(m)
		i := base + w
		if c.tags[i] == tag {
			c.tick[i] = ln.clock
			c.sharers[i] |= 1 << (core % MaxCores)
			if c.rrpv != nil {
				c.rrpv[i] = 0 // SRRIP: near re-reference on hit
			}
			st.mru = uint8(w)
			ln.stats.Hits++
			return Result{Hit: true}
		}
	}

	// Miss: fill into an allowed way — an invalid one if available,
	// otherwise evict per the replacement policy among allowed ways.
	ln.stats.Misses++
	victim := c.selectVictim(st.occ, base, mask)
	if victim < 0 {
		// Empty mask: the access bypasses the cache entirely. CAT
		// cannot express this (minimum one way), but the simulator
		// tolerates it so callers can model uncached traffic.
		return Result{}
	}
	i := base + victim
	res := Result{}
	if c.tags[i] != 0 {
		res.Evicted = true
		res.EvictedLine = c.tags[i] - 1
		res.EvictedCore = c.owner[i]
		res.EvictedSharers = c.sharers[i]
		ln.stats.Evictions++
	}
	c.tags[i] = tag
	st.occ |= 1 << uint(victim)
	st.mru = uint8(victim)
	c.tick[i] = ln.clock
	c.owner[i] = core
	c.sharers[i] = 1 << (core % MaxCores)
	if c.rrpv != nil {
		c.rrpv[i] = srripInsert
	}
	return res
}

// AccessMany performs Access for every line in order under one mask
// and core, and returns the stats delta for the batch. It is the
// amortized entry point for callers that replay a burst of traffic
// against a single cache and only need aggregate outcomes; callers
// that react to individual evictions (e.g. inclusive hierarchies) use
// Access per line.
func (c *Cache) AccessMany(lines []uint64, mask bits.CBM, core uint16) Stats {
	before := c.Stats()
	for _, l := range lines {
		c.Access(l, mask, core)
	}
	after := c.Stats()
	return Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
	}
}

// SRRIP constants: 2-bit RRPVs; new lines predicted "long" (2), hits
// promoted to "near" (0), victims taken at "distant" (3).
const (
	srripMax    = 3
	srripInsert = 2
)

// selectVictim picks the way to fill within the mask, or -1 when the
// mask is empty. Invalid ways are always preferred: the lowest allowed
// way absent from the occupancy bitmask is found with one bit-scan,
// matching the old ascending tag walk bit for bit. Eviction iterates
// the allowed ways in ascending order straight off the mask bits.
func (c *Cache) selectVictim(occ uint64, base int, mask bits.CBM) int {
	allowed := uint64(mask) & c.waysMask
	if allowed == 0 {
		return -1
	}
	if inv := allowed &^ occ; inv != 0 {
		return mbits.TrailingZeros64(inv)
	}
	switch c.cfg.Repl {
	case ReplRandom:
		ways := c.allowedWays(mask)
		return int(ways[c.xorshift()%uint64(len(ways))])
	case ReplSRRIP:
		for {
			for m := allowed; m != 0; m &= m - 1 {
				if w := mbits.TrailingZeros64(m); c.rrpv[base+w] == srripMax {
					return w
				}
			}
			// Age every allowed line and retry (bounded: at most
			// srripMax rounds reach the max value).
			for m := allowed; m != 0; m &= m - 1 {
				if w := mbits.TrailingZeros64(m); c.rrpv[base+w] < srripMax {
					c.rrpv[base+w]++
				}
			}
		}
	}
	// LRU (and the default path): oldest tick among allowed ways.
	victim := -1
	var victimTick uint64 = ^uint64(0)
	for m := allowed; m != 0; m &= m - 1 {
		w := mbits.TrailingZeros64(m)
		if i := base + w; c.tick[i] < victimTick {
			victim = w
			victimTick = c.tick[i]
		}
	}
	return victim
}

// xorshift is a tiny PRNG for ReplRandom victim choice (math/rand per
// access would dominate the simulator's profile).
func (c *Cache) xorshift() uint64 {
	x := c.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rngState = x
	return x
}

// Probe reports whether the line is resident, without side effects.
func (c *Cache) Probe(line uint64) bool {
	set := c.SetIndex(line)
	base := set * c.cfg.Ways
	tag := line + 1
	for m := c.set[set].occ; m != 0; m &= m - 1 {
		if c.tags[base+mbits.TrailingZeros64(m)] == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the line if resident, returning whether it was.
func (c *Cache) Invalidate(line uint64) bool {
	set := c.SetIndex(line)
	base := set * c.cfg.Ways
	tag := line + 1
	st := &c.set[set]
	for m := st.occ; m != 0; m &= m - 1 {
		w := mbits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			c.tags[base+w] = 0
			st.occ &^= 1 << uint(w)
			return true
		}
	}
	return false
}

// Flush empties the cache and leaves statistics intact.
func (c *Cache) Flush() {
	clear(c.tags)
	for s := range c.set {
		c.set[s].occ = 0
	}
}

// FlushWays invalidates every line resident in the given ways and
// returns how many lines were dropped. This models the user-level
// cache-flush pass the paper requires after reallocating ways (§6):
// without it, data left in reassigned or pooled ways keeps serving hits
// to its old owner.
//
// The walk is set-major over the occupancy bitmask: per set, the
// resident lines in the flushed ways are occ&mask, so empty ways cost
// nothing and each set's state is read once.
func (c *Cache) FlushWays(mask bits.CBM) int {
	m := uint64(mask) & c.waysMask
	n := 0
	for s := range c.set {
		st := &c.set[s]
		drop := st.occ & m
		if drop == 0 {
			continue
		}
		st.occ &^= drop
		n += mbits.OnesCount64(drop)
		base := s * c.cfg.Ways
		for ; drop != 0; drop &= drop - 1 {
			c.tags[base+mbits.TrailingZeros64(drop)] = 0
		}
	}
	return n
}

// OccupancyBySet returns, for each set, how many valid lines it holds —
// a popcount of the occupancy bitmask.
func (c *Cache) OccupancyBySet() []int {
	occ := make([]int, c.sets)
	for s := range occ {
		occ[s] = mbits.OnesCount64(c.set[s].occ)
	}
	return occ
}

// SetOccupancy returns how many valid lines one set holds.
func (c *Cache) SetOccupancy(set int) int { return mbits.OnesCount64(c.set[set].occ) }

// OccupancyByCore returns resident line counts keyed by owning core.
func (c *Cache) OccupancyByCore() map[uint16]int {
	occ := make(map[uint16]int)
	for i, t := range c.tags {
		if t != 0 {
			occ[c.owner[i]]++
		}
	}
	return occ
}

// LinesPerSet maps the given physical lines onto a cache with sets sets
// and returns how many land in each — the shared pass behind
// SetHistogram and FractionSetsAtLeast.
func LinesPerSet(lines []uint64, sets int) []int {
	perSet := make([]int, sets)
	for _, l := range lines {
		perSet[int(l%uint64(sets))]++
	}
	return perSet
}

// SetHistogram computes, for a cache with sets sets, how many of the
// given physical lines map to each set, and returns a histogram
// hist[k] = number of sets with exactly k lines mapped (k capped at
// the last bucket). This is the analysis behind paper Fig. 3.
func SetHistogram(lines []uint64, sets, maxBucket int) []int {
	hist := make([]int, maxBucket+1)
	for _, n := range LinesPerSet(lines, sets) {
		if n > maxBucket {
			n = maxBucket
		}
		hist[n]++
	}
	return hist
}

// FractionSetsAtLeast returns the fraction of sets with >= k of the
// given lines mapped to them (e.g. the paper's "32.5% of sets have 3 or
// more cache lines mapped").
func FractionSetsAtLeast(lines []uint64, sets, k int) float64 {
	n := 0
	for _, c := range LinesPerSet(lines, sets) {
		if c >= k {
			n++
		}
	}
	return float64(n) / float64(sets)
}
