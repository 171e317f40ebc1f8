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
// the host interleaves core accesses deterministically.
type System struct {
	cfg    Config
	l1     []*cache.Cache
	llc    *cache.Cache
	ctrs   *perf.File
	masks  []bits.CBM // per-core LLC fill mask (the CAT knob)
	l1Full bits.CBM   // full L1 mask, hoisted off the access path
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
	full := bits.FullMask(cfg.LLC.Ways)
	for i := range s.l1 {
		s.l1[i] = cache.MustNew(cfg.L1)
		s.masks[i] = full
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

// IntervalPass is a fused multi-batch access pass for one core across
// one host interval: bank/L1/latency lookups are resolved once at
// BeginInterval and perf-counter updates are flushed once at Close,
// instead of per block. Between the two, AccessMany replays batches
// with the exact cache-state and latency semantics of calling Access
// per line (guarded by TestIntervalPassMatchesAccessMany).
//
// Counter reads through Counters() lag until Close, so callers must
// close every pass before reading counters — the host closes each VM's
// pass when its interval budget is exhausted, before any controller
// runs.
type IntervalPass interface {
	// AccessMany replays lines in order and returns the summed latency.
	AccessMany(lines []uint64) uint64
	// Close flushes the accumulated perf-counter deltas. The pass must
	// not be used afterwards.
	Close()
}

// corePass is System's IntervalPass: the hot per-line loop touches only
// fields resolved at BeginInterval plus the shared caches. The LLC fill
// mask is re-read per batch (not per line) so a mask installed between
// batches — nothing in-tree does this mid-interval — would still apply.
type corePass struct {
	sys  *System
	core int
	l1   *cache.Cache
	c16  uint16
	lat  Latency

	l1Hits    uint64
	llcHits   uint64
	llcMisses uint64
}

// BeginInterval opens a fused access pass for one core. The returned
// pass must be closed before the core's perf counters are read.
func (s *System) BeginInterval(core int) IntervalPass {
	return &corePass{sys: s, core: core, l1: s.l1[core], c16: uint16(core), lat: s.cfg.Lat}
}

// run replays lines and accumulates outcome counts without touching the
// perf banks.
func (p *corePass) run(lines []uint64) {
	l1 := p.l1
	l1Mask := p.sys.l1Full
	llc := p.sys.llc
	llcMask := p.sys.masks[p.core]
	c16 := p.c16
	var l1Hits, llcHits, llcMisses uint64
	for _, line := range lines {
		if r := l1.Access(line, l1Mask, c16); r.Hit {
			l1Hits++
			continue
		}
		r := llc.Access(line, llcMask, c16)
		if r.Hit {
			llcHits++
			continue
		}
		llcMisses++
		p.sys.backInvalidate(r)
	}
	p.l1Hits += l1Hits
	p.llcHits += llcHits
	p.llcMisses += llcMisses
}

// AccessMany implements IntervalPass. The latency sum is computed from
// the batch's outcome counts — identical arithmetic to the per-line
// additions, hoisted out of the inner loop.
func (p *corePass) AccessMany(lines []uint64) uint64 {
	h1, hl, ml := p.l1Hits, p.llcHits, p.llcMisses
	p.run(lines)
	return (p.l1Hits-h1)*p.lat.L1Hit + (p.llcHits-hl)*p.lat.LLCHit + (p.llcMisses-ml)*p.lat.DRAM
}

// Close implements IntervalPass.
func (p *corePass) Close() {
	bank := p.sys.ctrs.Core(p.core)
	l1Misses := p.llcHits + p.llcMisses
	bank.Add(perf.L1Hits, p.l1Hits)
	bank.Add(perf.L1Misses, l1Misses)
	bank.Add(perf.LLCReferences, l1Misses)
	bank.Add(perf.LLCMisses, p.llcMisses)
	p.l1Hits, p.llcHits, p.llcMisses = 0, 0, 0
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

// L1 returns core's private L1 (for tests and occupancy inspection).
func (s *System) L1(core int) *cache.Cache { return s.l1[core] }
