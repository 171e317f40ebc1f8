package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heracles"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ComparisonHeracles pits dCat against a simplified Heracles cache
// subcontroller (Lo et al. '15) on a mix Heracles was not built for:
// one latency-critical Redis plus three best-effort tenants of very
// different cache behaviour (a cache-hungry MLR, a streaming MLOAD,
// and a CPU-bound service).
//
// Heracles protects the LC workload but lumps every best-effort tenant
// into ONE partition — inside it, the streamer tramples the MLR with
// no recourse. dCat gives every tenant its own guaranteed baseline and
// demotes the streamer (§7: "In a public cloud each server can host
// more than two workloads").
func ComparisonHeracles(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	specs := func() []vmSpec {
		return []vmSpec{
			{name: "redis", baseline: 4, gen: func(h *host.Host) (workload.Generator, error) {
				return workload.NewRedis(h.Allocator(), opts.Seed)
			}},
			mlrSpec("mlr", 8<<20, 4, opts.Seed+1),
			mloadSpec("mload", 60<<20, 4),
			{name: "svc", baseline: 4, gen: func(h *host.Host) (workload.Generator, error) {
				return workload.NewLookbusy(h.Allocator())
			}},
		}
	}

	// Calibrate the Heracles SLO: Redis IPC with a static half-cache
	// partition and no interference.
	var targetIPC float64
	{
		s, err := newScenario(opts, specs()[:1])
		if err != nil {
			return nil, err
		}
		if _, err := s.run(ModeShared, core.DefaultConfig(), opts.SteadyIntervals, nil); err != nil {
			return nil, err
		}
		vm, _ := s.host.VM("redis")
		targetIPC = 0.9 * vm.Last().IPC()
	}

	type outcome struct{ redis, mlr, mload float64 }
	measure := func(s *scenario) outcome {
		var o outcome
		if vm, ok := s.host.VM("redis"); ok {
			o.redis = vm.Last().IPC()
		}
		if vm, ok := s.host.VM("mlr"); ok {
			o.mlr = vm.Last().IPC()
		}
		if vm, ok := s.host.VM("mload"); ok {
			o.mload = vm.Last().IPC()
		}
		return o
	}

	// dCat run.
	sd, err := newScenario(opts, specs())
	if err != nil {
		return nil, err
	}
	if _, err := sd.run(ModeDCat, core.DefaultConfig(), opts.SteadyIntervals, nil); err != nil {
		return nil, err
	}
	dcat := measure(sd)

	// Heracles run: two controller targets — the LC tenant, and ONE
	// best-effort partition spanning every other VM's cores — starting
	// from Heracles' half-and-half split.
	sh, err := newScenario(opts, specs())
	if err != nil {
		return nil, err
	}
	mgr, err := sh.host.CATManager(0)
	if err != nil {
		return nil, err
	}
	half := mgr.TotalWays() / 2
	lc := core.Target{Name: "redis", BaselineWays: half}
	be := core.Target{Name: "best-effort", BaselineWays: half}
	for _, vm := range sh.host.VMs() {
		if vm.Name == lc.Name {
			lc.Cores = vm.Cores
		} else {
			be.Cores = append(be.Cores, vm.Cores...)
		}
	}
	pol, err := heracles.NewPolicy(heracles.DefaultConfig(targetIPC), lc.Name)
	if err != nil {
		return nil, err
	}
	hcfg := core.DefaultConfig()
	hcfg.NewPolicy = func() policy.AllocationPolicy { return pol }
	hctl, err := core.NewMulti(hcfg, sh.host.Counters(),
		[]core.SocketSpec{{Mgr: mgr, Targets: []core.Target{lc, be}}})
	if err != nil {
		return nil, err
	}
	sh.host.RunIntervals(opts.SteadyIntervals, func(int) {
		if err := hctl.Tick(); err != nil {
			panic(err)
		}
	})
	her := measure(sh)

	tab := telemetry.NewTable(
		fmt.Sprintf("dCat vs Heracles (LC Redis target IPC %.3f; BE: MLR-8MB, MLOAD-60MB, lookbusy)", targetIPC),
		"controller", "redis IPC", "mlr IPC", "mload IPC")
	tab.AddRow("dcat", fmt.Sprintf("%.4f", dcat.redis), fmt.Sprintf("%.4f", dcat.mlr),
		fmt.Sprintf("%.4f", dcat.mload))
	tab.AddRow("heracles", fmt.Sprintf("%.4f", her.redis), fmt.Sprintf("%.4f", her.mlr),
		fmt.Sprintf("%.4f", her.mload))
	notes := []string{
		fmt.Sprintf("both protect the LC tenant (redis %.4f vs %.4f IPC), but inside Heracles' single best-effort partition the streamer costs the MLR %s of the IPC dCat gives it (no intra-BE isolation, §7)",
			dcat.redis, her.redis, pct(her.mlr/dcat.mlr)),
		fmt.Sprintf("Heracles also needed the calibrated IPC target (%.3f); dCat derived its floors from the contracted baselines alone", targetIPC),
	}
	return &TableResult{ID: "comparison-heracles", Title: "dCat vs a two-class Heracles controller", Tab: tab, Notes: notes}, nil
}
