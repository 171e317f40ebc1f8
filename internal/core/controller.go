package core

import (
	"fmt"
	"maps"
	"sort"
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
	l     *loop // the CAT domain's loop that manages the workload
	name  string
	cores []int

	catState // the fields the §3.4 transition reads (categorize.go)
	// sustained marks a Reclaim whose allocation the policy held
	// through the phase change (predictive sustain): the next clean
	// interval adopts the remembered baseline instead of re-measuring.
	sustained bool

	phaseInit bool
	phase     phaseKey
	phaseMAPI float64
	det       PhaseDetector
	table     policy.Curve
	history   map[phaseKey]phaseRecord

	lastLLCRef uint64
	// capWays, when >0, is an advisory upper bound on this workload's
	// allocation pushed by an external authority (the cluster control
	// plane). It never cuts into the contracted baseline.
	capWays int

	desire int // this round's requested ways
}

// SocketSpec wires one CAT domain's decision loop: the socket ID, a
// CAT manager over that socket's backend, and the workloads placed
// there.
type SocketSpec struct {
	Socket  int
	Mgr     *cat.Manager
	Targets []Target
}

// Controller is the dCat daemon. CAT domains are per-LLC, so a host
// runs one full decision loop per socket — each with its own
// cat.Manager, counter sampler and allocation policy over the
// workloads placed there — while the loops share the configuration,
// one by-name workload index, the tick count and the journal. The
// loops add no cross-socket policy, matching real deployments where
// sockets are independent CAT domains; a one-socket host is a set of
// one loop.
type Controller struct {
	cfg   Config
	ws    map[string]*wstate // every managed workload, by name
	loops []*loop            // ascending socket order, the tick order
	ticks int
	// sink is the decision-trace sink (nil by default, see observe.go);
	// each loop stamps its socket on the events it emits.
	sink obs.Sink
}

// loop is one CAT domain's decision loop.
type loop struct {
	c       *Controller
	socket  int
	mgr     *cat.Manager
	sampler *perf.Sampler
	// order is the tick's stable target order and mgr's group order
	// (newLoop and add append to both, remove deletes from both), so
	// way counts indexed like order are what mgr.SetAllocation takes.
	// samples is one interval's observations, indexed like order.
	order   []*wstate
	samples []observation
	// poolEmpty records whether the previous allocation round's
	// guarded grants filled the socket — part of the Streaming
	// decision (§3.4: "all the available cache size is used").
	poolEmpty bool

	// policy is the step-5 allocation engine (Config.NewPolicy;
	// default the paper's reactive §3.5 allocator). view and grants
	// are its reusable per-tick exchange buffers.
	policy policy.AllocationPolicy
	view   policy.View
	grants policy.Grants

	// metrics is nil until RegisterMetrics (see observe.go).
	metrics *coreMetrics
}

// New builds a one-socket controller: NewMulti with a single spec on
// socket 0.
func New(cfg Config, mgr *cat.Manager, counters perf.Reader, targets []Target) (*Controller, error) {
	return NewMulti(cfg, counters, []SocketSpec{{Mgr: mgr, Targets: targets}})
}

// NewMulti builds a decision loop per socket spec and installs every
// target's baseline allocation. Sockets must be unique and workload
// names unique across the whole host, so name-keyed queries (Ways,
// StateOf) stay unambiguous.
func NewMulti(cfg Config, counters perf.Reader, specs []SocketSpec) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if counters == nil {
		return nil, fmt.Errorf("core: nil counter source")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no socket specs")
	}
	c := &Controller{cfg: cfg, ws: make(map[string]*wstate)}
	for _, spec := range specs {
		if c.loopOn(spec.Socket) != nil {
			return nil, fmt.Errorf("core: socket %d specified twice", spec.Socket)
		}
		for _, t := range spec.Targets {
			if w, dup := c.ws[t.Name]; dup {
				return nil, fmt.Errorf("core: workload %q on sockets %d and %d", t.Name, w.l.socket, spec.Socket)
			}
		}
		l, err := c.newLoop(spec, counters)
		if err != nil {
			return nil, fmt.Errorf("core: socket %d: %w", spec.Socket, err)
		}
		c.loops = append(c.loops, l)
	}
	sort.Slice(c.loops, func(i, j int) bool { return c.loops[i].socket < c.loops[j].socket })
	return c, nil
}

// newLoop validates one socket's spec, creates its CLOS groups and
// installs the baselines.
func (c *Controller) newLoop(spec SocketSpec, counters perf.Reader) (*loop, error) {
	mgr, targets := spec.Mgr, spec.Targets
	if mgr == nil {
		return nil, fmt.Errorf("core: nil manager")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	l := &loop{
		c:       c,
		socket:  spec.Socket,
		mgr:     mgr,
		sampler: perf.NewSampler(counters),
		policy:  c.cfg.policy(),
	}
	if err := l.checkBaselines(targets...); err != nil {
		return nil, err
	}
	for _, t := range targets {
		if _, err := mgr.CreateGroup(t.Name, t.Cores); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		w := l.newWorkload(t)
		c.ws[t.Name] = w
		l.order = append(l.order, w)
	}
	if err := mgr.SetAllocation(l.held()); err != nil {
		return nil, fmt.Errorf("core: installing baselines: %w", err)
	}
	return l, nil
}

// checkBaselines rejects targets whose contracted baselines cannot join
// the loop's: each needs at least one way, and all the baselines
// together must fit the socket.
func (l *loop) checkBaselines(targets ...Target) error {
	sum := 0
	for _, w := range l.order {
		sum += w.baseline
	}
	for _, t := range targets {
		if t.BaselineWays < 1 {
			return fmt.Errorf("core: target %q baseline %d below the 1-way minimum",
				t.Name, t.BaselineWays)
		}
		sum += t.BaselineWays
	}
	if total := l.mgr.TotalWays(); sum > total {
		return fmt.Errorf("core: baselines would total %d ways, socket has %d", sum, total)
	}
	return nil
}

// held returns a new slice of the ways each workload holds, indexed
// like l.order.
func (l *loop) held() []int {
	ways := make([]int, len(l.order))
	for i, w := range l.order {
		ways[i] = w.ways
	}
	return ways
}

// newWorkload returns a fresh record for a target at its baseline.
func (l *loop) newWorkload(t Target) *wstate {
	return &wstate{
		l:     l,
		name:  t.Name,
		cores: append([]int(nil), t.Cores...),
		catState: catState{
			baseline: t.BaselineWays,
			state:    StateKeeper,
			ways:     t.BaselineWays,
			prevWays: t.BaselineWays,
		},
		history: make(map[phaseKey]phaseRecord),
		det:     l.c.cfg.detector(),
	}
}

// loopOn returns the socket's loop (nil if the socket has none).
func (c *Controller) loopOn(socket int) *loop {
	for _, l := range c.loops {
		if l.socket == socket {
			return l
		}
	}
	return nil
}

// Ticks returns how many controller periods have run.
func (c *Controller) Ticks() int { return c.ticks }

// TotalWays returns one socket's LLC associativity. The modeled hosts
// have identical per-socket CAT domains, and the fleet protocol
// reports per-socket capacity.
func (c *Controller) TotalWays() int { return c.loops[0].mgr.TotalWays() }

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
	w.capWays = max(ways, 0)
	return true
}

// Ways returns a workload's current allocation (0 if unknown).
func (c *Controller) Ways(name string) int {
	if w, ok := c.ws[name]; ok {
		return w.ways
	}
	return 0
}

// StateOf returns a workload's current category.
func (c *Controller) StateOf(name string) (State, bool) {
	w, ok := c.ws[name]
	if !ok {
		return 0, false
	}
	return w.state, true
}

// Table returns a copy of a workload's live performance table.
func (c *Controller) Table(name string) (policy.Curve, bool) {
	w, ok := c.ws[name]
	if !ok {
		return policy.Curve{}, false
	}
	return w.table, true
}

// Snapshot reports every workload's state as of the most recent tick,
// loop by loop in socket order, each in its loop's target order.
func (c *Controller) Snapshot() []Status {
	out := make([]Status, 0, len(c.ws))
	for _, l := range c.loops {
		pol := l.policy.Name()
		for _, w := range l.order {
			norm := 0.0
			if w.baselineIPC > 0 {
				norm = w.lastIPC / w.baselineIPC
			}
			out = append(out, Status{
				Name:     w.name,
				State:    w.state,
				Ways:     w.ways,
				Baseline: w.baseline,
				IPC:      w.lastIPC,
				NormIPC:  norm,
				MissRate: w.lastMiss,
				MAPI:     w.phaseMAPI,
				LLCRef:   w.lastLLCRef,
				Graced:   w.graceLeft > 0,
				Policy:   pol,
				Socket:   l.socket,
			})
		}
	}
	return out
}

// Occupancy reports each workload's measured LLC footprint in bytes,
// merged over the sockets, when every CAT backend supports CMT-style
// monitoring (ok=false otherwise).
func (c *Controller) Occupancy() (map[string]uint64, bool) {
	out := make(map[string]uint64, len(c.ws))
	for _, l := range c.loops {
		m, ok := l.mgr.Occupancy()
		if !ok {
			return nil, false
		}
		maps.Copy(out, m)
	}
	return out, true
}

// observation is one interval's derived statistics for a workload.
type observation struct {
	sample perf.Sample
	ipc    float64
	miss   float64
	mapi   float64
}

// Tick runs every socket's decision loop once, in ascending socket
// order (deterministic for the experiment engine). The first error
// aborts the round.
func (c *Controller) Tick() error {
	for _, l := range c.loops {
		if err := l.tick(); err != nil {
			return fmt.Errorf("socket %d: %w", l.socket, err)
		}
	}
	c.ticks++
	return nil
}

// tick runs one controller period on this domain: Collect Statistics
// → Detect Phase Change → Categorize Workloads → Allocate Cache (paper
// Fig 4; Get Baseline happens implicitly at each phase start).
func (l *loop) tick() error {
	var start time.Time
	if l.metrics != nil {
		start = time.Now()
	}
	if cap(l.samples) < len(l.order) {
		l.samples = make([]observation, len(l.order))
	}
	samples := l.samples[:len(l.order)]
	for i, w := range l.order {
		s := l.sampler.SampleCores(w.cores)
		samples[i] = observation{
			sample: s,
			ipc:    s.IPC(),
			miss:   s.LLCMissRate(),
			mapi:   s.MemAccessPerInstr(),
		}
	}

	for i, w := range l.order {
		l.observePhase(w, samples[i])
	}

	for i, w := range l.order {
		l.categorize(w, samples[i])
	}

	ways := l.allocate(samples)
	if err := l.mgr.SetAllocation(ways); err != nil {
		return fmt.Errorf("core: tick %d: %w", l.c.ticks, err)
	}
	allocSum, churn := 0, 0
	for i, w := range l.order {
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
			l.emitWayChange(w, n)
			w.ways = n
		}
		allocSum += w.ways
	}
	if m := l.metrics; m != nil {
		m.poolFree.Set(float64(l.mgr.TotalWays() - allocSum))
		if churn > 0 {
			m.churn.Add(uint64(churn))
		}
		m.tickSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// observePhase handles phase bookkeeping for one workload: Get
// Baseline, Detect Phase Change, and performance-table recording.
func (l *loop) observePhase(w *wstate, o observation) {
	mapi := sanitizeMAPI(o.mapi)
	switch {
	case !w.phaseInit:
		// First interval ever: it ran at the baseline allocation, so
		// its IPC is the baseline performance of the initial phase.
		w.phaseInit = true
		w.rekey(mapi, false)
		l.measureBaseline(w, o.ipc)

	case w.det.Observe(mapi):
		// Phase change: snapshot the table, enter Reclaim (§3.4 —
		// highest priority, returns to baseline so the guarantee can
		// be re-established), and stage any known table for reuse.
		l.saveTable(w)
		if m := l.metrics; m != nil {
			m.phaseChanges.Inc()
		}
		l.emit(w, obs.Event{
			Kind:    obs.KindPhaseChange,
			OldWays: w.ways,
			OldVal:  w.phaseMAPI,
			NewVal:  mapi,
			Reason:  reasonPhaseChange,
		})
		w.rekey(mapi, true)
		w.baselineIPC = 0
		l.setState(w, StateReclaim, reasonPhaseChange)
		w.settled = false
		w.sustained = false
		w.jumpTo = 0
		w.denied = false

	case w.state == StateReclaim && w.sustained:
		// Sustain-and-adopt (predictive policy): the phase change
		// landed on a confident prediction, so the allocator held the
		// remembered preferred allocation instead of dipping to
		// baseline. Adopt the phase's remembered baseline IPC as the
		// performance frame rather than re-measuring it; if nothing is
		// remembered after all, fall back to the normal reclaim path.
		w.sustained = false
		w.rekey(mapi, false)
		if ipc := w.history[w.phase].baselineIPC; ipc > 0 {
			w.baselineIPC = ipc
			l.setState(w, StateKeeper, reasonPolicyAdopt)
			w.settled = true
			l.emit(w, obs.Event{
				Kind:    obs.KindPolicyAdopt,
				NewWays: w.ways,
				NewVal:  ipc,
				Reason:  reasonPolicyAdopt,
				Policy:  l.policy.Name(),
			})
			l.reuseTable(w, w.ways)
		}

	case w.state == StateReclaim && w.ways == w.baseline:
		// One clean interval at the baseline: measure it. The phase
		// was keyed off a sample that straddled the transition, so
		// refresh it with this clean interval's value.
		w.rekey(mapi, false)
		l.setState(w, StateKeeper, reasonBaselineMeasured)
		l.measureBaseline(w, o.ipc)
		// Performance-table reuse (§3.5, Fig 12): if this phase was
		// seen before, jump straight to its preferred allocation
		// instead of rediscovering one way per round.
		if l.reuseTable(w, w.baseline) {
			w.settled = true
		}

	case w.baselineIPC > 0:
		// Steady phase: record the measurement at the current ways.
		w.table.Set(w.ways, o.ipc/w.baselineIPC)
	}
}

// rekey moves w's phase frame to mapi. When the phase key changes, or
// reload asks for it, the phase's table is loaded from history (empty
// for a phase never seen).
func (w *wstate) rekey(mapi float64, reload bool) {
	w.phaseMAPI = mapi
	w.det.Reset(mapi)
	if key := phaseKeyOf(mapi); reload || key != w.phase {
		w.phase = key
		w.table = w.history[key].table
	}
}

// measureBaseline records ipc as the phase's baseline performance: the
// contracted allocation's normalized IPC is 1 by definition.
func (l *loop) measureBaseline(w *wstate, ipc float64) {
	w.baselineIPC = ipc
	w.table.Set(w.baseline, 1)
	l.emit(w, obs.Event{
		Kind:    obs.KindBaselineSet,
		NewWays: w.baseline,
		NewVal:  ipc,
		Reason:  reasonBaselineMeasured,
	})
}

// reuseTable stages a jump to the phase table's preferred allocation
// (§3.5 table reuse, Fig 12) when that lies above floor, and reports
// whether it did.
func (l *loop) reuseTable(w *wstate, floor int) bool {
	pref, ok := w.table.Preferred(l.c.cfg.IPCImpThr / 2)
	if !ok || pref <= floor {
		return false
	}
	w.jumpTo = pref
	l.emit(w, obs.Event{
		Kind:    obs.KindTableHit,
		OldWays: w.ways,
		NewWays: pref,
		Reason:  reasonTableHit,
	})
	return true
}

// phaseRecord is one phase's entry in a workload's history: its
// performance table and its measured baseline IPC (0 if never
// measured), which a sustained phase change adopts.
type phaseRecord struct {
	table       policy.Curve
	baselineIPC float64
}

// saveTable records the live table in the phase history, with the
// phase's measured baseline IPC. The live table was loaded from the
// phase's record (rekey) and has only gained measurements since, so it
// supersedes the record's table.
func (l *loop) saveTable(w *wstate) {
	if !w.phaseInit || w.table.Len() == 0 {
		return
	}
	rec := w.history[w.phase]
	rec.table = w.table
	if w.baselineIPC > 0 {
		rec.baselineIPC = w.baselineIPC
	}
	w.history[w.phase] = rec
}
