package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/ucp"
	"repro/internal/workload"
)

// ComparisonUCP pits dCat against Utility-based Cache Partitioning
// (Qureshi & Patt '06) — the classic throughput-maximizing partitioner
// the paper positions itself against (§2.2: prior schemes improve
// overall performance but give no per-tenant guarantee).
//
// The scenario is built to expose the difference: a tenant with a
// modest working set ("victim") shares the socket with a tenant whose
// utility curve is much steeper ("whale") plus background VMs. UCP
// hands the whale nearly everything, driving the victim below the
// performance its contracted baseline would have delivered; dCat grows
// the whale just as eagerly but never lets the victim's allocation
// drop below its baseline once it is using it.
func ComparisonUCP(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	const baseline = 4

	// Measure each tenant's baseline IPC first: a run under static
	// partitioning at the contracted ways.
	build := func() []vmSpec {
		return append([]vmSpec{
			mlrSpec("victim", 6<<20, baseline, opts.Seed),
			mlrSpec("whale", 30<<20, baseline, opts.Seed+1),
		}, lookbusySpecs(2, baseline)...)
	}
	baselineIPC := map[string]float64{}
	{
		s, err := newScenario(opts, build())
		if err != nil {
			return nil, err
		}
		if _, err := s.run(ModeStatic, core.DefaultConfig(), opts.SteadyIntervals, nil); err != nil {
			return nil, err
		}
		for _, vm := range s.host.VMs() {
			baselineIPC[vm.Name] = vm.Last().IPC()
		}
	}

	type outcome struct {
		victimWays, whaleWays   int
		victimRatio, whaleRatio float64 // IPC / baseline IPC
	}

	// Both arms run in the same controller harness; the UCP arm swaps
	// the allocation policy and starts from UCP's even split.
	runArm := func(useDCat bool) (outcome, error) {
		s, err := newScenario(opts, build())
		if err != nil {
			return outcome{}, err
		}
		cfg := core.DefaultConfig()
		if !useDCat {
			if err := s.underUCP(&cfg); err != nil {
				return outcome{}, err
			}
		}
		ctl, err := s.run(ModeDCat, cfg, opts.SteadyIntervals, nil)
		if err != nil {
			return outcome{}, err
		}
		v, _ := s.host.VM("victim")
		w, _ := s.host.VM("whale")
		return outcome{
			victimWays:  ctl.Ways("victim"),
			whaleWays:   ctl.Ways("whale"),
			victimRatio: v.Last().IPC() / baselineIPC["victim"],
			whaleRatio:  w.Last().IPC() / baselineIPC["whale"],
		}, nil
	}

	dc, err := runArm(true)
	if err != nil {
		return nil, err
	}
	uc, err := runArm(false)
	if err != nil {
		return nil, err
	}
	dcRecovery, err := recoveryIntervals(opts, true)
	if err != nil {
		return nil, err
	}
	ucRecovery, err := recoveryIntervals(opts, false)
	if err != nil {
		return nil, err
	}

	tab := telemetry.NewTable(
		fmt.Sprintf("dCat vs UCP (victim MLR-6MB and whale MLR-30MB, baseline %d ways each)", baseline),
		"controller", "victim ways", "victim IPC/baseline", "whale ways", "whale IPC/baseline",
		"wake-up recovery (intervals)")
	tab.AddRow("dcat", fmt.Sprintf("%d", dc.victimWays), fmt.Sprintf("%.2f", dc.victimRatio),
		fmt.Sprintf("%d", dc.whaleWays), fmt.Sprintf("%.2f", dc.whaleRatio),
		fmt.Sprintf("%d", dcRecovery))
	tab.AddRow("ucp", fmt.Sprintf("%d", uc.victimWays), fmt.Sprintf("%.2f", uc.victimRatio),
		fmt.Sprintf("%d", uc.whaleWays), fmt.Sprintf("%.2f", uc.whaleRatio),
		fmt.Sprintf("%d", ucRecovery))
	notes := []string{
		fmt.Sprintf("steady state: dCat victim %.2fx vs UCP %.2fx of baseline performance — both allocate sensibly here, but UCP's split is whatever utility dictates, with no contracted floor (§2.2)",
			dc.victimRatio, uc.victimRatio),
		fmt.Sprintf("allocation restore after idle->wake: dCat %d interval(s) (priority Reclaim); UCP %d (must re-earn utility)",
			dcRecovery, ucRecovery),
		"UCP also needs per-workload shadow-tag monitors (UMON) — hardware commodity parts lack; dCat runs on stock counters",
	}
	return &TableResult{ID: "comparison-ucp", Title: "dCat vs utility-based cache partitioning", Tab: tab, Notes: notes}, nil
}

// underUCP prepares the scenario for a run under the UCP policy: every
// VM's access stream is tapped by a shadow-tag monitor, cfg gets the
// policy that reads them, and — UCP having no contracted baseline —
// every VM starts from the even split of the cache, the partitioning
// UCP's first epoch departs from.
func (s *scenario) underUCP(cfg *core.Config) error {
	llc := s.host.System().Config().LLC
	mons := make(map[string]*ucp.Monitor, len(s.specs))
	for _, vm := range s.host.VMs() {
		mon, err := ucp.NewMonitor(llc.Sets(), llc.Ways, 32)
		if err != nil {
			return err
		}
		vm.SetObserver(mon)
		mons[vm.Name] = mon
	}
	for i := range s.specs {
		s.specs[i].baseline = llc.Ways / len(s.specs)
	}
	cfg.NewPolicy = func() policy.AllocationPolicy {
		return ucp.NewPolicy(func(name string) *ucp.Monitor { return mons[name] }, 1)
	}
	return nil
}

// recoveryIntervals runs the same mix with a victim that idles for half
// the run and then wakes; it returns how many intervals after waking
// the victim needs to get its contracted allocation back (0 = never).
// dCat restores it by priority Reclaim the moment the phase change is
// seen; UCP restores it only once the victim has re-earned the utility.
func recoveryIntervals(opts Options, useDCat bool) (int, error) {
	const baseline = 4
	wake := opts.SteadyIntervals
	specs := append([]vmSpec{
		{
			name:     "victim",
			baseline: baseline,
			gen: func(h *host.Host) (workload.Generator, error) {
				mlr, err := workload.NewMLR(6<<20, addr.PageSize4K, h.Allocator(), opts.Seed)
				if err != nil {
					return nil, err
				}
				return workload.NewPhased("sleeper",
					workload.Stage{Gen: workload.Idle{}, Intervals: wake},
					workload.Stage{Gen: mlr})
			},
		},
		mlrSpec("whale", 30<<20, baseline, opts.Seed+1),
	}, lookbusySpecs(2, baseline)...)
	s, err := newScenario(opts, specs)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig()
	if !useDCat {
		if err := s.underUCP(&cfg); err != nil {
			return 0, err
		}
	}
	recovered := 0
	_, err = s.run(ModeDCat, cfg, wake+opts.SteadyIntervals,
		func(interval int, ctl *core.Controller) {
			if recovered == 0 && interval > wake && ctl.Ways("victim") >= baseline {
				recovered = interval - wake
			}
		})
	return recovered, err
}
