package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// NUMAPlacement contrasts local vs. remote memory placement on a
// two-socket host. The cache-sensitive target runs on socket 1 in both
// configurations; only where its frames live changes. With local
// memory every LLC miss costs the local DRAM latency; with its frames
// on socket 0 every miss additionally pays the cross-socket penalty —
// dCat can shield the target's ways from its socket's neighbours, but
// no cache partition recovers a bad placement, which is exactly why
// the fleet coordinator must reason about topology.
func NUMAPlacement(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.Sockets = 2
	if opts.RemotePenalty == 0 {
		opts.RemotePenalty = memsys.DefaultRemotePenalty
	}

	type result struct {
		lat, ipc float64
		ways     int
		remote   uint64
		penalty  uint64
	}
	// memSocket is where the target's frames are allocated; the target
	// itself always executes on socket 1.
	run := func(memSocket int) (result, error) {
		specs := []vmSpec{
			{
				name: "target", socket: 1, baseline: 3,
				gen: func(h *host.Host) (workload.Generator, error) {
					return workload.NewMLR(8<<20, addr.PageSize4K, h.AllocatorOn(memSocket), opts.Seed)
				},
			},
			{
				name: "mload", socket: 0, baseline: 3,
				gen: func(h *host.Host) (workload.Generator, error) {
					return workload.NewMLOAD(60<<20, addr.PageSize4K, h.AllocatorOn(0))
				},
			},
		}
		// Two lookbusy fillers per socket, each touching local memory,
		// so both controllers have a population to manage.
		for socket := 0; socket < 2; socket++ {
			for i := 0; i < 2; i++ {
				socket := socket
				specs = append(specs, vmSpec{
					name: fmt.Sprintf("lb-s%d-%d", socket, i+1), socket: socket, baseline: 3,
					gen: func(h *host.Host) (workload.Generator, error) {
						return workload.NewLookbusy(h.AllocatorOn(socket))
					},
				})
			}
		}
		s, err := newScenario(opts, specs)
		if err != nil {
			return result{}, err
		}
		ctl, err := s.run(ModeDCat, core.DefaultConfig(), opts.SteadyIntervals, nil)
		if err != nil {
			return result{}, err
		}
		vm, ok := s.host.VM("target")
		if !ok {
			return result{}, fmt.Errorf("experiments: target VM missing")
		}
		nsys := s.host.NUMA()
		return result{
			lat:     vm.Last().AvgAccessLatency(),
			ipc:     vm.Last().IPC(),
			ways:    ctl.Ways("target"),
			remote:  nsys.RemoteAccesses(1),
			penalty: nsys.RemotePenaltyCycles(1),
		}, nil
	}

	local, err := run(1)
	if err != nil {
		return nil, err
	}
	remote, err := run(0)
	if err != nil {
		return nil, err
	}

	tab := telemetry.NewTable("MLR-8MB on socket 1 under dCat, by memory placement",
		"placement", "latency(cycles)", "IPC", "ways", "remote-accesses", "penalty-cycles")
	tab.AddRow("local (socket 1)", fmt.Sprintf("%.1f", local.lat), fmt.Sprintf("%.3f", local.ipc),
		fmt.Sprintf("%d", local.ways), fmt.Sprintf("%d", local.remote), fmt.Sprintf("%d", local.penalty))
	tab.AddRow("remote (socket 0)", fmt.Sprintf("%.1f", remote.lat), fmt.Sprintf("%.3f", remote.ipc),
		fmt.Sprintf("%d", remote.ways), fmt.Sprintf("%d", remote.remote), fmt.Sprintf("%d", remote.penalty))
	return &TableResult{
		ID:    "numa-placement",
		Title: "Local vs remote memory placement on a 2-socket host",
		Tab:   tab,
		Notes: []string{
			fmt.Sprintf("remote DRAM penalty: %d cycles; per-socket CAT domains, one dCat loop per LLC", opts.RemotePenalty),
			fmt.Sprintf("target latency ratio remote/local: %s", pct(remote.lat/local.lat)),
		},
	}, nil
}
