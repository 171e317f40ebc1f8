package study

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/placement"
	"repro/internal/policy"
	"repro/internal/workload"
)

// ScenarioResult is one scenario's run summary: the cross-study table
// row plus the detail text its result directory keeps.
type ScenarioResult struct {
	Scenario Scenario

	// FleetIPC is the mean over intervals of the per-interval sum of
	// every VM's IPC — the scenario's aggregate throughput.
	FleetIPC float64
	// MPKI is fleet LLC misses per kilo-instruction, from the
	// cumulative hardware counters over every core.
	MPKI float64
	// Transitions counts controller state transitions (from the
	// journal tally); PhaseChanges counts phase-change events.
	Transitions  uint64
	PhaseChanges uint64

	// Churn and placement activity.
	Arrivals        int // churned tenants admitted
	Departures      int // churned tenants that left
	Rejected        int // arrivals refused (capacity or controller)
	Migrations      int // scheduled churn migrations executed
	Moves           int // placement-engine directives executed
	GraceViolations int // fresh arrivals classified Streaming in-grace

	// Detail is the per-scenario report written into the study's
	// result directory.
	Detail string
}

// runScenario builds and runs one scenario end to end. Every scenario
// is self-contained — own host, memory system, controllers, workloads,
// RNGs — so scenarios are safe to run in parallel and their results
// depend only on the Scenario value.
func runScenario(sc Scenario) (*ScenarioResult, error) {
	cfg := host.DefaultConfig()
	cfg.Mem = machineConfig(sc.Machine)
	cfg.CyclesPerInterval = sc.Cycles
	cfg.Seed = sc.Seed
	cfg.Sockets = sc.Sockets
	cfg.MemBytes = sc.MemBytes * uint64(sc.Sockets)
	cfg.RemotePenalty = sc.Remote
	h, err := host.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
	}

	// One lookbusy anchor per socket: it keeps every socket's loop
	// alive (RemoveTarget refuses to orphan a socket) and gives churn a
	// polite neighbour to donate ways.
	for s := 0; s < sc.Sockets; s++ {
		name := fmt.Sprintf("anchor-s%d", s)
		gen, err := workload.NewLookbusy(h.AllocatorOn(s))
		if err != nil {
			return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
		}
		if _, err := h.AddVMOn(s, name, 1, gen); err != nil {
			return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
		}
	}
	// The swept fleet, round-robin over sockets, each tenant's
	// intensity driven by its own arrival-pattern curve.
	for i := 0; i < sc.Fleet; i++ {
		socket := i % sc.Sockets
		name := fmt.Sprintf("t%02d", i)
		gen, err := modulatedTenant(sc, i, h, socket)
		if err != nil {
			return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
		}
		if _, err := h.AddVMOn(socket, name, 1, gen); err != nil {
			return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
		}
	}

	ctlCfg := core.DefaultConfig()
	if sc.Grace != nil {
		ctlCfg.ArrivalGraceTicks = *sc.Grace
	}
	if sc.Policy != "" {
		factory, err := policy.New(sc.Policy)
		if err != nil {
			return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
		}
		ctlCfg.NewPolicy = factory
	}
	// Anchors contract a single way; every other tenant the scenario's
	// baseline.
	baselines := make(map[string]int, len(h.VMs()))
	for _, vm := range h.VMs() {
		baselines[vm.Name] = sc.Baseline
		if strings.HasPrefix(vm.Name, "anchor-") {
			baselines[vm.Name] = 1
		}
	}
	multi, err := h.Controllers(ctlCfg, baselines)
	if err != nil {
		return nil, fmt.Errorf("study: %s/%s: %w", sc.Study, sc.ID, err)
	}
	tally := obs.NewTransitionTally()
	multi.SetSink(tally)

	var eng *placement.Engine
	if sc.Placement {
		eng = placement.NewEngine(placement.Config{})
	}

	res := &ScenarioResult{Scenario: sc}
	churn := newChurnState(sc)
	var ipcSum float64
	h.RunIntervals(sc.Intervals, func(interval int) {
		if err := multi.Tick(); err != nil {
			panic(err) // programming error in this closed system
		}
		churn.step(interval, h, multi, sc, res)
		if eng != nil {
			runPlacement(eng, h, multi, res)
		}
		checkGrace(multi, res)
		var ipc float64
		for _, vm := range h.VMs() {
			ipc += vm.Last().IPC()
		}
		ipcSum += ipc
	})

	res.FleetIPC = ipcSum / float64(sc.Intervals)
	res.MPKI = fleetMPKI(h.Counters(), cfg.Mem.Cores*sc.Sockets)
	trans, phases := tally.Drain()
	for _, n := range trans {
		res.Transitions += n
	}
	res.PhaseChanges = phases
	res.Detail = detailReport(sc, h, multi, res)
	return res, nil
}

// modulatedTenant builds mix slot i wrapped in its RPS curve. Slot
// numbering is shared between the base fleet and churn arrivals, so a
// churned tenant continues the mix's variant cycle.
func modulatedTenant(sc Scenario, slot int, h *host.Host, socket int) (workload.Generator, error) {
	base, err := buildTenant(sc.Mix, slot, h.AllocatorOn(socket), sc.Seed+int64(slot))
	if err != nil {
		return nil, err
	}
	curve := newCurve(sc.Arrival, sc.Seed+1000+int64(slot))
	return workload.NewModulated(base, func(int) float64 { return curve() })
}

// churnState tracks the synthetic tenant lifecycle within one scenario.
type churnState struct {
	curve    func() float64 // arrival intensity, shared across the fleet
	credit   float64
	nextSlot int // mix slot for the next arrival
	live     []churnTenant
	migIdx   int // which base tenant the next scheduled migration moves
}

type churnTenant struct {
	name    string
	arrived int // interval index of admission
}

func newChurnState(sc Scenario) *churnState {
	cs := &churnState{nextSlot: sc.Fleet}
	if sc.Churn.Enabled() {
		cs.curve = newCurve(sc.Arrival, sc.Seed+7777)
	}
	return cs
}

// step runs one interval of churn: departures first (freeing capacity),
// then curve-driven arrivals, then any scheduled migration.
func (cs *churnState) step(interval int, h *host.Host, multi *core.MultiController, sc Scenario, res *ScenarioResult) {
	if !sc.Churn.Enabled() {
		return
	}
	if sc.Churn.Lifetime > 0 {
		kept := cs.live[:0]
		for _, t := range cs.live {
			if interval-t.arrived < sc.Churn.Lifetime {
				kept = append(kept, t)
				continue
			}
			// Controller first (stop managing, reclaim the CLOS), then
			// host (release cores and, via workload.Releaser, frames).
			if _, err := multi.RemoveTarget(t.name); err != nil {
				panic(err)
			}
			if err := h.RemoveVM(t.name); err != nil {
				panic(err)
			}
			res.Departures++
		}
		cs.live = kept
	}

	cs.credit += cs.curve()
	for cs.credit >= float64(sc.Churn.ArrivalsEvery) {
		cs.credit -= float64(sc.Churn.ArrivalsEvery)
		if len(cs.live) >= sc.Churn.MaxLive {
			res.Rejected++
			continue
		}
		cs.arrive(interval, h, multi, sc, res)
	}

	if sc.Churn.MigrateEvery > 0 && sc.Sockets > 1 &&
		interval > 0 && interval%sc.Churn.MigrateEvery == 0 {
		name := fmt.Sprintf("t%02d", cs.migIdx%sc.Fleet)
		cs.migIdx++
		if vm, ok := h.VM(name); ok {
			to := (vm.Socket + 1) % sc.Sockets
			if err := h.MigrateManaged(multi, name, to); err == nil {
				res.Migrations++
			}
		}
	}
}

// arrive admits one churned tenant on the emptiest socket. A rejection
// at any stage (no cores, no memory, controller over contract) undoes
// the partial admission and counts Rejected.
func (cs *churnState) arrive(interval int, h *host.Host, multi *core.MultiController, sc Scenario, res *ScenarioResult) {
	socket, best := 0, -1
	for s := 0; s < sc.Sockets; s++ {
		if free := h.FreeCores(s); free > best {
			socket, best = s, free
		}
	}
	slot := cs.nextSlot
	cs.nextSlot++
	name := fmt.Sprintf("c%02d", slot-sc.Fleet)
	gen, err := modulatedTenant(sc, slot, h, socket)
	if err != nil {
		res.Rejected++
		return
	}
	vm, err := h.AddVMOn(socket, name, 1, gen)
	if err != nil {
		// The working set is already mapped; hand the frames back.
		if r, ok := gen.(workload.Releaser); ok {
			r.Release()
		}
		res.Rejected++
		return
	}
	// The controller admission arms the arrival grace
	// (core.Config.ArrivalGraceTicks) exactly as for a migration import.
	if err := multi.AddTarget(socket, core.Target{Name: name, Cores: vm.Cores, BaselineWays: sc.Baseline}, nil); err != nil {
		if rmErr := h.RemoveVM(name); rmErr != nil {
			panic(rmErr)
		}
		res.Rejected++
		return
	}
	cs.live = append(cs.live, churnTenant{name: name, arrived: interval})
	res.Arrivals++
}

// checkGrace audits the arrival-grace contract across the whole fleet:
// no workload may carry a Streaming verdict while its grace is still
// armed (the window exists precisely because a cold-LLC refill looks
// like streaming; the early exit disarms it once the miss curve
// flattens, after which a Streaming verdict is legitimate). Any
// violation is a controller regression, so studies count them.
func checkGrace(multi *core.MultiController, res *ScenarioResult) {
	for _, st := range multi.Snapshot() {
		if st.Graced && st.State == core.StateStreaming {
			res.GraceViolations++
		}
	}
}

// runPlacement drives the placement engine one round, exactly as the
// fleet coordinator does: views from the controller snapshot,
// directives executed as live migrations, acks returned.
func runPlacement(eng *placement.Engine, h *host.Host, multi *core.MultiController, res *ScenarioResult) {
	view := placement.AgentView{Agent: "host", TotalWays: multi.TotalWays()}
	for _, st := range multi.Snapshot() {
		view.Workloads = append(view.Workloads, placement.WorkloadView{
			Name:     st.Name,
			Socket:   st.Socket,
			Category: st.State.String(),
			Ways:     st.Ways,
			Baseline: st.Baseline,
		})
	}
	eng.Evaluate([]placement.AgentView{view})
	for _, d := range eng.Directives("host") {
		ack := placement.DirectiveAck{ID: d.ID, OK: true}
		if err := h.MigrateManaged(multi, d.Workload, d.ToSocket); err != nil {
			ack.OK = false
			ack.Detail = err.Error()
		} else {
			res.Moves++
		}
		eng.Ack("host", []placement.DirectiveAck{ack}, obs.TraceContext{})
	}
}

// fleetMPKI computes LLC misses per kilo-instruction over all cores
// from the cumulative counters.
func fleetMPKI(ctrs perf.Reader, cores int) float64 {
	var misses, instr uint64
	for c := 0; c < cores; c++ {
		misses += ctrs.ReadCounter(c, perf.LLCMisses)
		instr += ctrs.ReadCounter(c, perf.RetiredInstructions)
	}
	if instr == 0 {
		return 0
	}
	return 1000 * float64(misses) / float64(instr)
}

// detailReport renders the per-scenario file kept in the study's
// result directory: the summary metrics plus every VM's final state,
// in deterministic (admission) order.
func detailReport(sc Scenario, h *host.Host, multi *core.MultiController, res *ScenarioResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s/%s (seed %d)\n", sc.Study, sc.ID, sc.Seed)
	fmt.Fprintf(&sb, "fleet=%d sockets=%d mix=%s arrival=%s intervals=%d machine=%s\n",
		sc.Fleet, sc.Sockets, sc.Mix, sc.Arrival, sc.Intervals, sc.Machine)
	fmt.Fprintf(&sb, "fleet IPC %.3f  MPKI %.3f  transitions %d  phase-changes %d\n",
		res.FleetIPC, res.MPKI, res.Transitions, res.PhaseChanges)
	fmt.Fprintf(&sb, "churn: %d arrived, %d departed, %d rejected, %d migrations, %d moves, %d grace violations\n",
		res.Arrivals, res.Departures, res.Rejected, res.Migrations, res.Moves, res.GraceViolations)
	for _, vm := range h.VMs() {
		state := "-"
		if st, ok := multi.StateOf(vm.Name); ok {
			state = st.String()
		}
		fmt.Fprintf(&sb, "  %-10s socket=%d ways=%-2d state=%-9s ipc=%.3f\n",
			vm.Name, vm.Socket, multi.Ways(vm.Name), state, vm.Last().IPC())
	}
	return sb.String()
}
