package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cat"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
)

// Target describes one workload (VM/container) the controller manages.
type Target struct {
	Name  string
	Cores []int
	// BaselineWays is the contracted allocation: the way count whose
	// performance dCat guarantees as the workload's floor.
	BaselineWays int
}

// wstate is the controller's per-workload record.
type wstate struct {
	name     string
	cores    []int
	baseline int

	state   State
	settled bool // terminal for this phase; only a phase change resets it
	// sustained marks a Reclaim whose allocation the policy held
	// through the phase change (predictive sustain): the next clean
	// interval adopts the remembered baseline instead of re-measuring.
	sustained bool

	ways     int // allocation active during the just-measured interval
	prevWays int // allocation during the interval before that

	phaseInit   bool
	phase       phaseKey
	phaseMAPI   float64
	det         PhaseDetector
	baselineIPC float64
	table       PerfTable
	history     map[phaseKey]PerfTable
	// histIPC remembers the measured baseline IPC per phase (alongside
	// history's tables) so a sustained phase change can adopt it.
	histIPC map[phaseKey]float64

	lastIPC    float64
	lastMiss   float64
	lastLLCRef uint64
	denied     bool // allocator could not grant last round's growth
	jumpTo     int  // >0: performance-table reuse target (Fig 12)
	// graceLeft counts down the post-arrival classification grace
	// (Config.ArrivalGraceTicks): while positive, the Streaming verdicts
	// are suspended because the cold-cache refill of a freshly migrated
	// tenant mimics a streaming pattern. Armed only by AddTarget.
	graceLeft int
	// capWays, when >0, is an advisory upper bound on this workload's
	// allocation pushed by an external authority (the cluster control
	// plane). It never cuts into the contracted baseline.
	capWays int

	desire int // this round's requested ways
}

// Controller is the dCat daemon loop.
type Controller struct {
	cfg     Config
	mgr     *cat.Manager
	sampler *perf.Sampler
	// ws indexes the workloads by name for the by-name API; order is the
	// tick's stable target order, and samples and alloc its reused
	// buffers: one interval's observations (indexed like order) and the
	// counts handed to the CAT manager.
	ws      map[string]*wstate
	order   []*wstate
	samples []observation
	alloc   map[string]int
	// poolEmpty records whether the previous allocation round ended
	// with no free ways — part of the Streaming decision (§3.4: "all
	// the available cache size is used").
	poolEmpty bool
	ticks     int

	// policy is the step-5 allocation engine (Config.NewPolicy;
	// default the paper's reactive §3.5 allocator). view and grants
	// are its reusable per-tick exchange buffers.
	policy policy.AllocationPolicy
	view   policy.View
	grants policy.Grants

	// Observability hooks; both nil by default (see observe.go).
	sink    obs.Sink
	metrics *coreMetrics
}

// New wires a controller to a CAT manager and a counter source, and
// installs every target's baseline allocation.
func New(cfg Config, mgr *cat.Manager, counters perf.Reader, targets []Target) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mgr == nil || counters == nil {
		return nil, fmt.Errorf("core: nil manager or counter source")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	sumBase := 0
	for _, t := range targets {
		if t.BaselineWays < 1 {
			return nil, fmt.Errorf("core: target %q baseline %d below the 1-way minimum",
				t.Name, t.BaselineWays)
		}
		sumBase += t.BaselineWays
	}
	if sumBase > mgr.TotalWays() {
		return nil, fmt.Errorf("core: baselines total %d ways, socket has %d",
			sumBase, mgr.TotalWays())
	}
	c := &Controller{
		cfg:     cfg,
		mgr:     mgr,
		sampler: perf.NewSampler(counters),
		ws:      make(map[string]*wstate),
		alloc:   make(map[string]int, len(targets)),
		policy:  cfg.policy(),
	}
	for _, t := range targets {
		if _, err := mgr.CreateGroup(t.Name, t.Cores); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		w := &wstate{
			name:     t.Name,
			cores:    append([]int(nil), t.Cores...),
			baseline: t.BaselineWays,
			state:    StateKeeper,
			ways:     t.BaselineWays,
			prevWays: t.BaselineWays,
			table:    make(PerfTable),
			history:  make(map[phaseKey]PerfTable),
			histIPC:  make(map[phaseKey]float64),
			det:      cfg.detector(),
		}
		c.ws[t.Name] = w
		c.order = append(c.order, w)
		c.alloc[t.Name] = t.BaselineWays
	}
	if err := mgr.SetAllocation(c.alloc); err != nil {
		return nil, fmt.Errorf("core: installing baselines: %w", err)
	}
	return c, nil
}

// Ticks returns how many controller periods have run.
func (c *Controller) Ticks() int { return c.ticks }

// TotalWays returns the managed socket's LLC associativity.
func (c *Controller) TotalWays() int { return c.mgr.TotalWays() }

// SetWayCap installs an advisory upper bound on a workload's
// allocation; ways <= 0 clears it. The cap constrains how far the
// workload may grow (or hold) above its contracted baseline — it never
// cuts into the baseline itself, so the §3.4 guarantee is unaffected.
// It reports whether the workload exists. The cluster control plane
// uses this to push fleet-level allocation hints (e.g. a workload
// classified Streaming on most other hosts).
func (c *Controller) SetWayCap(name string, ways int) bool {
	w, ok := c.ws[name]
	if !ok {
		return false
	}
	if ways < 0 {
		ways = 0
	}
	w.capWays = ways
	return true
}

// WayCap returns a workload's advisory cap (0 = none).
func (c *Controller) WayCap(name string) int {
	if w, ok := c.ws[name]; ok {
		return w.capWays
	}
	return 0
}

// observation is one interval's derived statistics for a workload.
type observation struct {
	sample perf.Sample
	ipc    float64
	miss   float64
	mapi   float64
}

// Tick runs one controller period: Collect Statistics → Detect Phase
// Change → Categorize Workloads → Allocate Cache (paper Fig 4; Get
// Baseline happens implicitly at each phase start).
func (c *Controller) Tick() error {
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	if cap(c.samples) < len(c.order) {
		c.samples = make([]observation, len(c.order))
	}
	samples := c.samples[:len(c.order)]
	for i, w := range c.order {
		s := c.sampler.SampleCores(w.cores)
		samples[i] = observation{
			sample: s,
			ipc:    s.IPC(),
			miss:   s.LLCMissRate(),
			mapi:   s.MemAccessPerInstr(),
		}
	}

	for i, w := range c.order {
		c.observePhase(w, samples[i])
	}

	for i, w := range c.order {
		if w.state == StateReclaim {
			w.desire = w.baseline
			continue
		}
		c.categorize(w, samples[i])
	}

	ways := c.allocate(samples)
	for i, w := range c.order {
		c.alloc[w.name] = ways[i]
	}
	if err := c.mgr.SetAllocation(c.alloc); err != nil {
		return fmt.Errorf("core: tick %d: %w", c.ticks, err)
	}
	allocSum, churn := 0, 0
	for i, w := range c.order {
		w.lastIPC = samples[i].ipc
		w.lastMiss = samples[i].miss
		w.lastLLCRef = samples[i].sample.LLCRef
		w.prevWays = w.ways
		if n := ways[i]; n != w.ways {
			if d := n - w.ways; d > 0 {
				churn += d
			} else {
				churn -= d
			}
			c.emitWayChange(w, n)
			w.ways = n
		}
		allocSum += w.ways
	}
	c.ticks++
	if m := c.metrics; m != nil {
		m.poolFree.Set(float64(c.mgr.TotalWays() - allocSum))
		if churn > 0 {
			m.churn.Add(uint64(churn))
		}
		m.tickSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// observePhase handles phase bookkeeping for one workload: Get
// Baseline, Detect Phase Change, and performance-table recording.
func (c *Controller) observePhase(w *wstate, o observation) {
	mapi := sanitizeMAPI(o.mapi)
	switch {
	case !w.phaseInit:
		// First interval ever: it ran at the baseline allocation, so
		// its IPC is the baseline performance of the initial phase.
		w.phaseInit = true
		w.phase = phaseKeyOf(mapi)
		w.phaseMAPI = mapi
		w.det.Reset(mapi)
		w.baselineIPC = o.ipc
		w.table.Set(w.baseline, 1)
		c.emitBaseline(w, o.ipc)

	case w.det.Observe(mapi):
		// Phase change: snapshot the table, enter Reclaim (§3.4 —
		// highest priority, returns to baseline so the guarantee can
		// be re-established), and stage any known table for reuse.
		c.saveTable(w)
		c.emitPhaseChange(w, w.phaseMAPI, mapi)
		w.phase = phaseKeyOf(mapi)
		w.phaseMAPI = mapi
		w.det.Reset(mapi)
		w.baselineIPC = 0
		c.setState(w, StateReclaim, reasonPhaseChange)
		w.settled = false
		w.sustained = false
		w.jumpTo = 0
		w.denied = false
		if prev, ok := w.history[w.phase]; ok {
			w.table = prev.Clone()
		} else {
			w.table = make(PerfTable)
		}

	case w.state == StateReclaim && w.sustained:
		// Sustain-and-adopt (predictive policy): the phase change
		// landed on a confident prediction, so the allocator held the
		// remembered preferred allocation instead of dipping to
		// baseline. Adopt the phase's remembered baseline IPC as the
		// performance frame rather than re-measuring it; if nothing is
		// remembered after all, fall back to the normal reclaim path.
		w.sustained = false
		w.phaseMAPI = mapi
		w.det.Reset(mapi)
		if key := phaseKeyOf(mapi); key != w.phase {
			w.phase = key
			if prev, ok := w.history[key]; ok {
				w.table = prev.Clone()
			} else {
				w.table = make(PerfTable)
			}
		}
		if ipc, ok := w.histIPC[w.phase]; ok && ipc > 0 {
			w.baselineIPC = ipc
			c.setState(w, StateKeeper, reasonPolicyAdopt)
			w.settled = true
			c.emitAdopt(w, ipc)
			if pref, ok := w.table.Preferred(c.cfg.IPCImpThr / 2); ok && pref > w.ways {
				w.jumpTo = pref
				c.emitTableHit(w, pref)
			}
		}

	case w.state == StateReclaim && w.ways == w.baseline:
		// One clean interval at the baseline: measure it. The phase
		// was keyed off a sample that straddled the transition, so
		// refresh it with this clean interval's value.
		w.phaseMAPI = mapi
		w.det.Reset(mapi)
		if key := phaseKeyOf(mapi); key != w.phase {
			w.phase = key
			if prev, ok := w.history[key]; ok {
				w.table = prev.Clone()
			} else {
				w.table = make(PerfTable)
			}
		}
		w.baselineIPC = o.ipc
		w.table.Set(w.baseline, 1)
		c.setState(w, StateKeeper, reasonBaselineMeasured)
		c.emitBaseline(w, o.ipc)
		// Performance-table reuse (§3.5, Fig 12): if this phase was
		// seen before, jump straight to its preferred allocation
		// instead of rediscovering one way per round.
		if pref, ok := w.table.Preferred(c.cfg.IPCImpThr / 2); ok && pref > w.baseline {
			w.jumpTo = pref
			w.settled = true
			c.emitTableHit(w, pref)
		}

	case w.baselineIPC > 0:
		// Steady phase: record the measurement at the current ways.
		w.table.Set(w.ways, o.ipc/w.baselineIPC)
	}
}

// saveTable merges the live table into the phase history, remembering
// the phase's measured baseline IPC alongside it.
func (c *Controller) saveTable(w *wstate) {
	if !w.phaseInit || len(w.table) == 0 {
		return
	}
	saved, ok := w.history[w.phase]
	if !ok {
		saved = make(PerfTable)
		w.history[w.phase] = saved
	}
	for k, v := range w.table {
		saved[k] = v
	}
	if w.baselineIPC > 0 {
		w.histIPC[w.phase] = w.baselineIPC
	}
}

// categorize implements the §3.4 state machine for one workload and
// sets its desired way count for this round.
func (c *Controller) categorize(w *wstate, o observation) {
	grew := w.ways > w.prevWays
	imp := 0.0
	if w.lastIPC > 0 {
		imp = (o.ipc - w.lastIPC) / w.lastIPC
	}
	// Post-arrival grace: burn one tick, and end it early once the
	// miss-rate curve flattens — the refill is over, so verdicts made
	// from here on observe the tenant's real access pattern.
	graced := w.graceLeft > 0
	if graced {
		w.graceLeft--
		if w.lastMiss > 0 && math.Abs(o.miss-w.lastMiss) <= 0.1*w.lastMiss {
			w.graceLeft = 0
		}
	}

	switch {
	case o.sample.L1Ref <= c.cfg.L1RefThr || o.sample.LLCRef <= c.cfg.LLCRefThr:
		// Idle (l1_ref_thr: the VM is barely executing) or not using
		// the LLC (llc_ref_thr): Donor at the minimum allocation.
		c.setState(w, StateDonor, reasonIdle)
		w.settled = true
		w.desire = 1

	case w.state == StateStreaming:
		// Streaming is a terminal Donor for this phase.
		w.desire = 1

	case w.baselineIPC > 0 && w.ways < w.baseline &&
		o.ipc < w.baselineIPC*(1-c.cfg.IPCImpThr):
		// The baseline guarantee itself: donating ways looked safe by
		// miss rate, but the workload now runs measurably below the
		// performance it had at its contracted allocation (reduced
		// associativity raises conflict misses before the miss-rate
		// threshold notices — the §2.1 pathology). Take the donation
		// back and hold.
		c.setState(w, StateKeeper, reasonGuarantee)
		w.settled = true
		w.desire = w.baseline

	case o.miss < c.cfg.LLCMissRateThr:
		switch {
		case w.settled:
			// A Keeper that already proved it suffers with less (or a
			// reused-table jump target): hold.
			c.setState(w, StateKeeper, reasonSettledHold)
			w.desire = c.holdOrJump(w)
		case w.state == StateReceiver || w.state == StateUnknown:
			// Growth drove the miss rate below threshold: the working
			// set fits — the preferred state (§3.4: Receiver → Keeper
			// when llc_miss_rate < llc_miss_rate_thr).
			c.setState(w, StateKeeper, reasonFits)
			w.settled = true
			w.desire = w.ways
		case w.ways <= 1:
			c.setState(w, StateDonor, reasonMinimalDonor)
			w.settled = true
			w.desire = 1
		default:
			// Phase-start Keeper or shrinking Donor that is not
			// missing: give back one way per round until misses
			// become non-trivial.
			c.setState(w, StateDonor, reasonShrinking)
			w.desire = w.ways - 1
		}

	default: // significant LLC references and a non-trivial miss rate
		switch w.state {
		case StateDonor:
			// Shrinking uncovered the working set: settle here.
			c.setState(w, StateKeeper, reasonUncovered)
			w.settled = true
			w.desire = w.ways
		case StateKeeper:
			if w.settled {
				w.desire = c.holdOrJump(w)
				return
			}
			// Might benefit from more cache: probe.
			c.setState(w, StateUnknown, reasonProbe)
			w.desire = w.ways + c.cfg.GrowthStep
		case StateUnknown:
			switch {
			case grew && imp >= c.cfg.IPCImpThr:
				c.setState(w, StateReceiver, reasonImproved)
				w.desire = w.ways + c.cfg.GrowthStep
			case grew && !graced && (w.ways >= c.cfg.StreamingMult*w.baseline || c.poolEmpty):
				// Probed to the streaming threshold (or drained the
				// pool) with nothing to show: cyclic access pattern.
				// (A freshly arrived tenant inside its grace keeps
				// probing instead — the refill storm is not evidence.)
				c.setState(w, StateStreaming, reasonStreamingProbe)
				w.settled = true
				w.desire = 1
			case !grew && !graced && w.denied && w.ways >= c.cfg.StreamingMult*w.baseline:
				c.setState(w, StateStreaming, reasonStreamingDenied)
				w.settled = true
				w.desire = 1
			default:
				w.desire = w.ways + c.cfg.GrowthStep
			}
		case StateReceiver:
			if grew && imp < c.cfg.IPCImpThr {
				// The last way added nothing: preferred state reached.
				c.setState(w, StateKeeper, reasonNoGain)
				w.settled = true
				w.desire = w.ways
				return
			}
			w.desire = w.ways + c.cfg.GrowthStep
		default:
			w.desire = w.ways
		}
	}
}

// holdOrJump returns a settled workload's desire: its current ways, or
// its reuse target while one is pending.
func (c *Controller) holdOrJump(w *wstate) int {
	if w.jumpTo > w.ways {
		return w.jumpTo
	}
	w.jumpTo = 0
	return w.ways
}
