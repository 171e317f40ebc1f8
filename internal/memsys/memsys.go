// Package memsys assembles per-core L1 caches, a shared inclusive LLC
// with CAT way masks, and a DRAM latency model into the memory system
// the host simulator drives.
//
// Geometry presets mirror the two machines in the dCat paper: Xeon-D
// (8 cores, 12-way 12 MB LLC) and Xeon E5-2697 v4 (18 cores, 20-way
// 45 MB LLC, 2.25 MB per way).
package memsys

import (
	"fmt"
	mbits "math/bits"
	"runtime"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/perf"
)

// Latency holds access costs in core cycles.
type Latency struct {
	L1Hit  uint64
	LLCHit uint64
	DRAM   uint64
}

// DefaultLatency approximates a Broadwell-class part at 2.3 GHz.
var DefaultLatency = Latency{L1Hit: 4, LLCHit: 42, DRAM: 220}

// Config describes a socket's memory system.
type Config struct {
	Cores int
	L1    cache.Config // geometry of each private L1D
	LLC   cache.Config // geometry of the shared LLC
	Lat   Latency
}

// XeonE5 returns the evaluation machine of the paper (§5): 18 cores,
// 20-way 45 MB LLC (2.25 MB per way).
func XeonE5() Config {
	return Config{
		Cores: 18,
		L1:    cache.Config{Name: "L1d", SizeBytes: 32 << 10, Ways: 8},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 45 << 20, Ways: 20},
		Lat:   DefaultLatency,
	}
}

// XeonD returns the second machine of §2: 8 cores, 12-way 12 MB LLC
// (1 MB per way).
func XeonD() Config {
	return Config{
		Cores: 8,
		L1:    cache.Config{Name: "L1d", SizeBytes: 32 << 10, Ways: 8},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 12 << 20, Ways: 12},
		Lat:   DefaultLatency,
	}
}

// WayBytes returns the capacity of one LLC way.
func (c Config) WayBytes() uint64 { return c.LLC.SizeBytes / uint64(c.LLC.Ways) }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > cache.MaxCores {
		return fmt.Errorf("memsys: cores %d out of range [1,%d]", c.Cores, cache.MaxCores)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	if err := c.LLC.Validate(); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	if c.Lat.L1Hit == 0 || c.Lat.LLCHit <= c.Lat.L1Hit || c.Lat.DRAM <= c.Lat.LLCHit {
		return fmt.Errorf("memsys: latencies must increase down the hierarchy: %+v", c.Lat)
	}
	return nil
}

// System is one socket's memory hierarchy. Not safe for concurrent use;
// the host interleaves core accesses deterministically, and
// NUMASystem.Replay splits a batch into set classes that share no state.
type System struct {
	cfg    Config
	l1     []*cache.Cache
	llc    *cache.Cache
	ctrs   *perf.File
	masks  []bits.CBM // per-core LLC fill mask (the CAT knob)
	l1Full bits.CBM   // full L1 mask, hoisted off the access path

	// Line l is in set class (l>>classShift)&(classes-1), which fixes
	// both its L1 set and its LLC set (see setClasses). Every cache has
	// one lane per class: the partition of class c accesses through lane
	// c, the one-pass replay and Access through lane 0.
	classes    int
	classShift uint
}

// New builds the hierarchy. All cores start with the full LLC mask
// (shared-cache behaviour until CAT is configured).
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		l1:     make([]*cache.Cache, cfg.Cores),
		llc:    cache.MustNew(cfg.LLC),
		ctrs:   perf.NewFile(cfg.Cores),
		masks:  make([]bits.CBM, cfg.Cores),
		l1Full: bits.FullMask(cfg.L1.Ways),
	}
	s.classes, s.classShift = setClasses(cfg)
	full := bits.FullMask(cfg.LLC.Ways)
	for i := range s.l1 {
		s.l1[i] = cache.MustNew(cfg.L1)
		s.masks[i] = full
	}
	for _, c := range append(s.l1, s.llc) {
		if err := c.SetLanes(s.classes); err != nil {
			return nil, fmt.Errorf("memsys: %w", err)
		}
	}
	return s, nil
}

// MustNew is New for configurations known valid.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the geometry.
func (s *System) Config() Config { return s.cfg }

// Counters exposes the per-core perf counter file.
func (s *System) Counters() *perf.File { return s.ctrs }

// LLC exposes the shared cache (read-only use intended: stats, occupancy).
func (s *System) LLC() *cache.Cache { return s.llc }

// SetMask installs the LLC fill mask for a core — the CAT control point.
func (s *System) SetMask(core int, m bits.CBM) error {
	if core < 0 || core >= s.cfg.Cores {
		return fmt.Errorf("memsys: core %d out of range", core)
	}
	if !m.Valid(s.cfg.LLC.Ways) {
		return fmt.Errorf("memsys: mask %s invalid for %d-way LLC", m, s.cfg.LLC.Ways)
	}
	s.masks[core] = m
	return nil
}

// Mask returns a core's current LLC fill mask.
func (s *System) Mask(core int) bits.CBM { return s.masks[core] }

// Access performs one data read by core at the given physical line
// address, updates the perf counters, and returns the latency in
// cycles. The hierarchy is inclusive: an LLC eviction back-invalidates
// the victim from its owner's L1.
func (s *System) Access(core int, line uint64) uint64 {
	bank := s.ctrs.Core(core)
	l1 := s.l1[core]
	if r := l1.Access(line, s.l1Full, uint16(core)); r.Hit {
		bank.Add(perf.L1Hits, 1)
		return s.cfg.Lat.L1Hit
	}
	bank.Add(perf.L1Misses, 1)
	bank.Add(perf.LLCReferences, 1)
	r := s.llc.Access(line, s.masks[core], uint16(core))
	if r.Hit {
		return s.cfg.Lat.LLCHit
	}
	bank.Add(perf.LLCMisses, 1)
	s.backInvalidate(r)
	return s.cfg.Lat.DRAM
}

// replay runs lines for one local core through the hierarchy, exactly
// as Access would but through the given lane of every cache, and
// returns the outcome counts instead of touching the perf banks. Lines
// outside [lo, hi) are homed on another socket.
func (s *System) replay(core int, lines []uint64, lo, hi uint64, lane int) outcome {
	l1, llc := s.l1[core], s.llc
	l1Lane, llcLane := l1.Lane(lane), llc.Lane(lane)
	l1Full, mask, c16 := s.l1Full, s.masks[core], uint16(core)
	var o outcome
	for _, line := range lines {
		remote := line < lo || line >= hi
		if remote {
			o.remote++
		}
		if l1.AccessLane(l1Lane, line, l1Full, c16).Hit {
			o.l1Hits++
			continue
		}
		r := llc.AccessLane(llcLane, line, mask, c16)
		if r.Hit {
			o.llcHits++
			continue
		}
		o.llcMisses++
		if remote {
			o.remoteMisses++
		}
		s.backInvalidate(r)
	}
	return o
}

// backInvalidate enforces inclusion after an LLC eviction: the victim
// is dropped from the L1 of every core that touched it while resident.
func (s *System) backInvalidate(r cache.Result) {
	if !r.Evicted {
		return
	}
	for sh := r.EvictedSharers; sh != 0; sh &= sh - 1 {
		c := mbits.TrailingZeros32(sh)
		if c < len(s.l1) {
			s.l1[c].Invalidate(r.EvictedLine)
		}
	}
}

// Retire accounts n retired instructions and the given unhalted cycles
// to a core. The host computes cycles from its CPI model.
func (s *System) Retire(core int, instructions, cycles uint64) {
	bank := s.ctrs.Core(core)
	bank.Add(perf.RetiredInstructions, instructions)
	bank.Add(perf.UnhaltedCycles, cycles)
}

// FlushLLC empties the shared cache (and, to preserve inclusion, every
// L1). Used between experiment configurations, standing in for the
// user-level cache-flush pass the paper describes in §6.
func (s *System) FlushLLC() {
	s.llc.Flush()
	for _, l1 := range s.l1 {
		l1.Flush()
	}
}

// FlushWays clears the given LLC ways — the paper's §6 user-level
// flush of reallocated ways. To preserve inclusion cheaply, every L1 is
// emptied too; L1s are tiny and rewarm within microseconds.
func (s *System) FlushWays(mask bits.CBM) {
	s.llc.FlushWays(mask)
	for _, l1 := range s.l1 {
		l1.Flush()
	}
}

// partitionsForTest, when positive, replaces GOMAXPROCS as the wanted
// class count and sends every batch down the partitioned path. Tests
// set it to show that the partition count changes no outcome.
var partitionsForTest int

// setClasses picks how many set classes a socket's caches are split
// into, and the run length 1<<shift of consecutive sets per class. A
// class must fix a line's set in every cache, so the class count times
// the run length divides g, the largest power of two dividing both set
// counts (64 for every preset). The count is the most GOMAXPROCS asks
// for. ReplRandom draws every victim from one sequence, so a hierarchy
// with a random cache is one class.
func setClasses(cfg Config) (n int, shift uint) {
	g := cfg.L1.Sets() | cfg.LLC.Sets()
	g &= -g
	want := runtime.GOMAXPROCS(0)
	if partitionsForTest > 0 {
		want = partitionsForTest
	}
	if cfg.L1.Repl == cache.ReplRandom || cfg.LLC.Repl == cache.ReplRandom {
		want = 1
	}
	n = 1
	for n*2 <= want && n*2 <= g {
		n *= 2
	}
	return n, uint(mbits.TrailingZeros(uint(g / n)))
}

// syncLanes lets any lane of the socket's caches take over any set.
func (s *System) syncLanes() {
	for _, c := range s.l1 {
		c.SyncLanes()
	}
	s.llc.SyncLanes()
}

// L1 returns core's private L1 (for tests and occupancy inspection).
func (s *System) L1(core int) *cache.Cache { return s.l1[core] }
