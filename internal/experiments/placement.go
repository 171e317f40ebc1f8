package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// FleetPlacement demonstrates the placement engine on a two-socket
// host with a deliberately imbalanced tenancy: three MLR-16MB tenants
// crowd socket 0 (their combined demand exceeds the 20-way LLC, so
// dCat's pool exhausts and one stays a starved Receiver) while
// socket 1 idles with two lookbusy tenants. Static placement leaves
// the starved tenant stuck; with the engine driven from the same
// per-socket views the coordinator would build from reports, the
// pressure triggers a move directive, the migration carries the
// learned controller state across (core.MultiController.Migrate), and
// the fleet's aggregate IPC rises even though the mover's frames stay
// homed on socket 0 (remote DRAM penalty on every miss).
func FleetPlacement(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// The moved tenants refill their working sets through remote DRAM;
	// the comparison needs the post-move steady state, not the refill.
	intervals := opts.SteadyIntervals * 4

	static, err := runFleet(opts, intervals, nil)
	if err != nil {
		return nil, err
	}
	eng := placement.NewEngine(placement.Config{})
	engine, err := runFleet(opts, intervals, eng)
	if err != nil {
		return nil, err
	}
	st := eng.State()

	tab := telemetry.NewTable("Imbalanced 2-socket fleet: static placement vs the placement engine",
		"placement", "fleet IPC", "MLR IPC", "min MLR IPC", "moves", "mover ways", "remote-accesses(s1)")
	tab.AddRow("static", fmt.Sprintf("%.3f", static.fleetIPC), fmt.Sprintf("%.3f", static.mlrIPC),
		fmt.Sprintf("%.3f", static.minMLR), "0", "-", fmt.Sprintf("%d", static.remote))
	tab.AddRow("engine", fmt.Sprintf("%.3f", engine.fleetIPC), fmt.Sprintf("%.3f", engine.mlrIPC),
		fmt.Sprintf("%.3f", engine.minMLR), fmt.Sprintf("%d", engine.moves),
		fmt.Sprintf("%d", engine.moverWays), fmt.Sprintf("%d", engine.remote))
	return &TableResult{
		ID:    "placement",
		Title: "Fleet placement: live rebalancing of an exhausted socket",
		Tab:   tab,
		Notes: []string{
			fmt.Sprintf("engine lifecycle: %d issued, %d executed, %d settled, %d rolled back, %d failed",
				st.Issued, st.Executed, st.Settled, st.RolledBack, st.Failed),
			fmt.Sprintf("fleet IPC engine/static: %s; cache-sensitive tenants alone: %s",
				pct(engine.fleetIPC/static.fleetIPC), pct(engine.mlrIPC/static.mlrIPC)),
			fmt.Sprintf("remote DRAM penalty: %d cycles — the movers' frames stay homed on socket 0", static.penalty),
		},
	}, nil
}

// fleetResult is one run's final measurements.
type fleetResult struct {
	fleetIPC  float64 // sum of final-interval IPCs across all tenants
	mlrIPC    float64 // sum over the cache-sensitive MLR tenants only
	minMLR    float64 // the worst-off MLR tenant's final IPC
	moves     int     // directives executed successfully
	moverWays int     // ways held by the last moved tenant at the end
	remote    uint64  // remote DRAM accesses charged to socket 1
	penalty   uint64  // the host's cross-socket DRAM penalty in cycles
}

// runFleet runs the imbalanced scenario under per-socket dCat, with
// the placement engine in the loop when eng is non-nil. The engine is
// driven exactly as the coordinator drives it — views from the
// controller snapshot each interval, directives executed via live
// migration, acks returned — just without the HTTP leg in between.
func runFleet(opts Options, intervals int, eng *placement.Engine) (fleetResult, error) {
	mlrs := []string{"mlr-a", "mlr-b", "mlr-c"}
	specs := make([]vmSpec, 0, 6)
	for _, name := range mlrs {
		specs = append(specs, vmSpec{
			name: name, socket: 0, baseline: 3,
			gen: func(h *host.Host) (workload.Generator, error) {
				return workload.NewMLR(16<<20, addr.PageSize4K, h.AllocatorOn(0), opts.Seed)
			},
		})
	}
	for socket := 0; socket < 2; socket++ {
		socket := socket
		specs = append(specs, vmSpec{
			name: fmt.Sprintf("lb-s%d", socket), socket: socket, baseline: 2,
			gen: func(h *host.Host) (workload.Generator, error) {
				return workload.NewLookbusy(h.AllocatorOn(socket))
			},
		})
	}
	s, err := newScenario(opts, specs)
	if err != nil {
		return fleetResult{}, err
	}

	var res fleetResult
	lastMover := ""
	onTick := func(_ int, ctl *core.MultiController) {
		if eng == nil {
			return
		}
		views := []placement.AgentView{fleetView("host", ctl)}
		eng.Evaluate(views)
		for _, d := range eng.Directives("host") {
			ack := placement.DirectiveAck{ID: d.ID, OK: true}
			if err := s.host.MigrateManaged(ctl, d.Workload, d.ToSocket); err != nil {
				ack.OK = false
				ack.Detail = err.Error()
			} else {
				res.moves++
				lastMover = d.Workload
			}
			eng.Ack("host", []placement.DirectiveAck{ack}, obs.TraceContext{})
		}
	}
	ctl, err := s.run(ModeDCat, core.DefaultConfig(), intervals, onTick)
	if err != nil {
		return fleetResult{}, err
	}

	res.minMLR = -1
	for _, name := range mlrs {
		vm, ok := s.host.VM(name)
		if !ok {
			return fleetResult{}, fmt.Errorf("experiments: VM %s missing", name)
		}
		ipc := vm.Last().IPC()
		res.mlrIPC += ipc
		if res.minMLR < 0 || ipc < res.minMLR {
			res.minMLR = ipc
		}
	}
	for _, vm := range s.host.VMs() {
		res.fleetIPC += vm.Last().IPC()
	}
	if lastMover != "" {
		res.moverWays = ctl.Ways(lastMover)
	}
	res.remote = s.host.NUMA().RemoteAccesses(1)
	res.penalty = s.host.NUMA().Config().RemotePenalty
	return res, nil
}

// fleetView builds the placement view the coordinator would assemble
// from this host's report: every workload's category, allocation, and
// contracted baseline, plus the per-socket LLC associativity.
func fleetView(agent string, m *core.MultiController) placement.AgentView {
	v := placement.AgentView{Agent: agent, TotalWays: m.TotalWays()}
	for _, st := range m.Snapshot() {
		v.Workloads = append(v.Workloads, placement.WorkloadView{
			Name:     st.Name,
			Socket:   st.Socket,
			Category: st.State.String(),
			Ways:     st.Ways,
			Baseline: st.Baseline,
		})
	}
	return v
}
