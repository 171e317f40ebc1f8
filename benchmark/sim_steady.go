package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"repro/internal/addr"
	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/workload"
)

// sim-steady: the paper's evaluation socket fully loaded with nine
// two-core tenants under the default (reactive) controller. The
// benchmark drives Host.RunInterval + Controller.Tick itself, so it can
// time each step and span the seams without touching either package.
const (
	steadyCycles   = 4_000_000
	steadyWarmup   = 10  // untimed intervals: the LLC is full when statistics start
	steadyTimed    = 150 // timed intervals at refSeconds
	steadyBaseline = 2   // contracted ways per tenant: 18 of 20, a 2-way free pool
	// replaySample is how many lines of the interleaved stream the traced
	// run captures to time the cache layer in isolation.
	replaySample = 1 << 22
)

type simSteady struct {
	rc   *runCtx
	h    *host.Host
	ctl  *core.Controller
	mgr  *cat.Manager
	gens []*timedGen // traced runs only
	// reader counts the controller's counter reads on traced runs.
	reader *countingReader

	// Totals over the timed region, for the layer shares.
	intervals int
	stepNS    int64 // RunInterval+Tick
	accesses  uint64
	fleetIPC  float64 // Σ VM IPC, mean over the timed intervals
}

// steadyTenant describes one VM of the mix.
type steadyTenant struct {
	name string
	mb   float64 // mapped working set, for addr.newspace_us_per_mb
	make func(alloc addr.FrameAllocator, seed int64) (workload.Generator, error)
}

func specTenant(bench string) steadyTenant {
	p, err := workload.ProfileByName(bench)
	if err != nil {
		panic(err) // a misspelt constant in this file
	}
	ws := p.WSS
	if ws > workload.MaxSimWS {
		ws = workload.MaxSimWS
	}
	return steadyTenant{bench, float64(ws) / (1 << 20), func(a addr.FrameAllocator, seed int64) (workload.Generator, error) {
		return workload.NewSpec(p, a, seed)
	}}
}

func mlrTenant(mb uint64) steadyTenant {
	return steadyTenant{fmt.Sprintf("mlr%d", mb), float64(mb), func(a addr.FrameAllocator, seed int64) (workload.Generator, error) {
		return workload.NewMLR(mb<<20, addr.PageSize4K, a, seed)
	}}
}

func lookbusyTenant(i int) steadyTenant {
	return steadyTenant{fmt.Sprintf("lookbusy%d", i), 0, func(a addr.FrameAllocator, _ int64) (workload.Generator, error) {
		return workload.NewLookbusy(a)
	}}
}

func steadyMix() []steadyTenant {
	return []steadyTenant{
		mlrTenant(8),
		mlrTenant(24),
		{"mload60", 60, func(a addr.FrameAllocator, _ int64) (workload.Generator, error) {
			return workload.NewMLOAD(60<<20, addr.PageSize4K, a)
		}},
		{"redis", 0, func(a addr.FrameAllocator, seed int64) (workload.Generator, error) {
			return workload.NewRedis(a, seed)
		}},
		specTenant("mcf"),
		specTenant("omnetpp"),
		lookbusyTenant(0), lookbusyTenant(1), lookbusyTenant(2),
	}
}

func setupSimSteady(rc *runCtx) (instance, error) {
	hc := host.DefaultConfig() // memsys.XeonE5, the paper's socket
	hc.CyclesPerInterval = steadyCycles
	hc.Seed = rc.cfg.Seed // frame placement
	warmup := steadyWarmup
	if rc.cfg.Small {
		hc.CyclesPerInterval = 400_000
		warmup = 2
	}
	h, err := host.New(hc)
	if err != nil {
		return nil, err
	}
	s := &simSteady{rc: rc, h: h}
	kNewSpace := rc.tr.key("addr", "newspace")
	kGen := rc.tr.key("workload", "gen")
	var targets []core.Target
	for i, t := range steadyMix() {
		rc.tr.push(kNewSpace)
		gen, err := t.make(h.Allocator(), rc.cfg.Seed*1000+int64(i))
		rc.tr.pop()
		if err != nil {
			return nil, err
		}
		if rc.wrap {
			tg := &timedGen{Generator: gen, tr: rc.tr, key: kGen}
			s.gens = append(s.gens, tg)
			gen = tg
		}
		vm, err := h.AddVM(t.name, 2, gen)
		if err != nil {
			return nil, err
		}
		targets = append(targets, core.Target{Name: vm.Name, Cores: vm.Cores, BaselineWays: steadyBaseline})
	}
	var backend cat.Backend
	backend, err = cat.NewSimBackend(h.System())
	if err != nil {
		return nil, err
	}
	counters := h.Counters()
	if rc.wrap {
		backend = wrapBackend(backend, rc.tr)
		s.reader = &countingReader{inner: counters}
		counters = s.reader
	}
	cfg := core.DefaultConfig()
	if rc.wrap {
		cfg.NewPolicy = func() policy.AllocationPolicy { return wrapPolicy(policy.NewReactive(), rc.tr) }
	}
	s.mgr, err = cat.NewManager(backend)
	if err != nil {
		return nil, err
	}
	s.ctl, err = core.New(cfg, s.mgr, counters, targets)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmup; i++ {
		h.RunInterval()
		if err := s.ctl.Tick(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *simSteady) close() {}

func (s *simSteady) run(out *outcome) error {
	n := s.rc.cfg.scaled(steadyTimed)
	tr := s.rc.tr
	kInterval, kTick := tr.key("host", "interval"), tr.key("core", "tick")
	lat := &dist{vals: make([]float64, 0, n)} // one step per interval, ms
	var ipcSum float64
	for i := 0; i < n; i++ {
		start := time.Now()
		tr.push(kInterval)
		s.h.RunInterval()
		tr.pop()
		tr.push(kTick)
		err := s.ctl.Tick()
		tr.pop()
		end := time.Now()
		out.Attempted++
		if err != nil {
			out.Failed++
			out.problemf("tick %d: %v", i, err)
		}
		var acc uint64
		var ipc float64
		for _, vm := range s.h.VMs() {
			acc += vm.Last().Accesses
			ipc += vm.Last().IPC()
		}
		step := end.Sub(start)
		s.intervals++
		s.stepNS += int64(step)
		s.accesses += acc
		ipcSum += ipc
		lat.add(float64(step) / 1e6)
	}
	out.setHeadline(float64(s.accesses), float64(s.stepNS)/1e9, lat)
	s.fleetIPC = ipcSum / float64(n)
	out.Digest = s.digest()
	return nil
}

// digest fingerprints every simulated statistic the run produced: the
// controller's final view, each VM's cumulative metrics, and every
// hardware counter. A change that only makes the simulator faster
// leaves it untouched.
func (s *simSteady) digest() string {
	hsh := sha256.New()
	for _, st := range s.ctl.Snapshot() {
		fmt.Fprintf(hsh, "%s %s %d\n", st.Name, st.State, st.Ways)
	}
	for _, vm := range s.h.VMs() {
		fmt.Fprintf(hsh, "%s %+v\n", vm.Name, vm.Total())
	}
	hashCounters(hsh, s.h.Counters(), s.h.System().Config().Cores)
	return hex.EncodeToString(hsh.Sum(nil))
}

func hashCounters(hsh hash.Hash, r perf.Reader, cores int) {
	for c := 0; c < cores; c++ {
		for e := perf.Event(0); int(e) < perf.NumEvents; e++ {
			fmt.Fprintf(hsh, "%d.%d=%d\n", c, e, r.ReadCounter(c, e))
		}
	}
}

func (s *simSteady) layers(out *outcome) error {
	st := s.rc.tr.stats()
	gen := st[spanKey{"workload", "gen"}]
	interval := st[spanKey{"host", "interval"}]
	tick := st[spanKey{"core", "tick"}]
	if gen == nil || interval == nil || tick == nil {
		return fmt.Errorf("traced run recorded no generator, interval or tick spans")
	}
	var lines uint64
	for _, g := range s.gens {
		lines += g.lines
	}
	stepNS := float64(s.stepNS)
	out.set("workload.gen_ns_per_line", float64(gen.TotalNS)/float64(lines), int(lines))
	out.set("workload.gen_share", float64(gen.TotalNS)/stepNS, gen.Count)
	out.set("memsys.ns_per_access", float64(interval.SelfNS)/float64(s.accesses), int(s.accesses))
	out.setPctScaled("host.interval_ms_p50", &interval.durs, 0.5, 1e-6)
	out.setPctScaled("host.interval_ms_p90", &interval.durs, 0.9, 1e-6)
	out.set("host.accesses_per_interval", float64(s.accesses)/float64(s.intervals), s.intervals)
	out.set("sim.fleet_ipc", s.fleetIPC, s.intervals)
	if ns := s.rc.tr.setupStats()[spanKey{"addr", "newspace"}]; ns != nil {
		var mb float64
		for _, t := range steadyMix() {
			mb += t.mb
		}
		out.set("addr.newspace_us_per_mb", float64(ns.TotalNS)/1e3/mb, ns.Count)
	}

	// Counter ratios over the whole run (warm-up included: they are
	// counts, identical on any build that only changes speed).
	var l1h, l1m, ref, miss uint64
	ctrs := s.h.Counters()
	for c := 0; c < s.h.System().Config().Cores; c++ {
		l1h += ctrs.ReadCounter(c, perf.L1Hits)
		l1m += ctrs.ReadCounter(c, perf.L1Misses)
		ref += ctrs.ReadCounter(c, perf.LLCReferences)
		miss += ctrs.ReadCounter(c, perf.LLCMisses)
	}
	out.set("memsys.l1_hit_ratio", float64(l1h)/float64(l1h+l1m), 0)
	out.set("memsys.llc_miss_ratio", float64(miss)/float64(ref), 0)

	readNS := perfReadCost(ctrs)
	out.set("perf.read_ns_per_counter", readNS, perfReadLoops)
	controllerLayers(out, st, tick, s.reader.reads, readNS, "reactive")
	out.set("core.tick_share", float64(tick.TotalNS)/stepNS, tick.Count)
	return s.replayCache(out)
}

// lineTap captures the interleaved physical-line stream block by block.
type lineTap struct {
	sample *streamSample
	vm     int
}

type streamSample struct {
	lines []uint64
	// segs[i] says lines[start:end) were issued back to back by VM vm —
	// one host block.
	segs []streamSeg
}

type streamSeg struct{ vm, start, end int }

func (t *lineTap) Observe(line uint64) {
	s := t.sample
	if len(s.lines) >= cap(s.lines) {
		return
	}
	if n := len(s.segs); n == 0 || s.segs[n-1].vm != t.vm || s.segs[n-1].end != len(s.lines) {
		s.segs = append(s.segs, streamSeg{vm: t.vm, start: len(s.lines)})
	}
	s.lines = append(s.lines, line)
	s.segs[len(s.segs)-1].end = len(s.lines)
}

// replayCache times internal/cache alone: a sample of the real
// interleaved stream (captured over a few extra intervals, after the
// digest is taken) is replayed through cache.AccessMany at L1 and LLC
// geometry with the tenants' final masks, and FlushWays is timed on the
// filled LLC copy.
func (s *simSteady) replayCache(out *outcome) error {
	want := replaySample
	if s.rc.cfg.Small {
		want = 1 << 16
	}
	sample := &streamSample{lines: make([]uint64, 0, want)}
	vms := s.h.VMs()
	for i, vm := range vms {
		vm.SetObserver(&lineTap{sample: sample, vm: i})
	}
	for len(sample.lines) < want {
		s.h.RunInterval()
	}
	for _, vm := range vms {
		vm.SetObserver(nil)
	}

	mem := s.h.System().Config()
	masks := make([]bits.CBM, len(vms))
	for i, vm := range vms {
		masks[i] = s.h.System().Mask(vm.Cores[0])
	}
	replay := func(pass func(seg streamSeg)) time.Duration {
		for _, seg := range sample.segs { // fill
			pass(seg)
		}
		start := time.Now()
		for _, seg := range sample.segs {
			pass(seg)
		}
		return time.Since(start)
	}

	l1s := make([]*cache.Cache, len(vms))
	for i := range l1s {
		c, err := cache.New(mem.L1)
		if err != nil {
			return err
		}
		l1s[i] = c
	}
	full := bits.FullMask(mem.L1.Ways)
	l1 := replay(func(seg streamSeg) {
		l1s[seg.vm].AccessMany(sample.lines[seg.start:seg.end], full, uint16(seg.vm))
	})
	llc, err := cache.New(mem.LLC)
	if err != nil {
		return err
	}
	ll := replay(func(seg streamSeg) {
		llc.AccessMany(sample.lines[seg.start:seg.end], masks[seg.vm], uint16(seg.vm))
	})
	n := len(sample.lines)
	out.set("cache.l1_ns_per_access", float64(l1)/float64(n), n)
	out.set("cache.llc_ns_per_access", float64(ll)/float64(n), n)

	var flush dist
	for round := 0; round < 3; round++ {
		for _, m := range masks {
			start := time.Now()
			llc.FlushWays(m)
			flush.add(float64(time.Since(start)) / 1e3)
		}
		for _, seg := range sample.segs { // refill for the next round
			llc.AccessMany(sample.lines[seg.start:seg.end], masks[seg.vm], uint16(seg.vm))
		}
	}
	out.setPct("cache.flushways_us_p50", &flush, 0.5)
	return nil
}
