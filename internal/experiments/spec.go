package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// specScenario builds the paper's §5.2 mix: the benchmark under test in
// one VM, two MLOAD-60MB noisy neighbours, and two lookbusy polite
// neighbours — five VMs with a baseline of 4 ways (9 MB) each.
func specScenario(opts Options, profile workload.SpecProfile) []vmSpec {
	target := vmSpec{
		name:     "target",
		baseline: 4,
		gen: func(h *host.Host) (workload.Generator, error) {
			return workload.NewSpec(profile, h.Allocator(), opts.Seed)
		},
	}
	return append([]vmSpec{
		target,
		mloadSpec("noisy1", 60<<20, 4),
		mloadSpec("noisy2", 60<<20, 4),
	}, lookbusySpecs(2, 4)...)
}

// specRun executes one benchmark under one mode and returns the
// target's steady-state IPC (performance = 1/runtime ∝ IPC) and, for
// dCat runs, the final way allocation.
func specRun(opts Options, profile workload.SpecProfile, mode Mode) (ipc float64, ways int, err error) {
	s, err := newScenario(opts, specScenario(opts, profile))
	if err != nil {
		return 0, 0, err
	}
	maxWays := 0
	ctl, err := s.run(mode, core.DefaultConfig(), opts.SteadyIntervals,
		func(_ int, ctl *core.Controller) {
			if ctl != nil {
				if w := ctl.Ways("target"); w > maxWays {
					maxWays = w
				}
			}
		})
	if err != nil {
		return 0, 0, err
	}
	_ = ctl
	vm, _ := s.host.VM("target")
	// Average the last third of the run: SPEC scores are whole-run
	// times, and the early intervals are dominated by warmup.
	m := vm.Last()
	return m.IPC(), maxWays, nil
}

// Fig17SPEC reproduces paper Fig 17 and Table 3: the 20 SPEC CPU2006
// profiles under shared cache, static CAT, and dCat, with performance
// (reciprocal runtime) normalized to the shared-cache run, plus the
// ceiling way allocation dCat granted each benchmark.
//
// The sweep's 60 simulations (20 profiles x 3 modes) are independent —
// each builds its own scenario from opts.Seed — so profiles run on
// whatever the shared worker budget allows (serially when run outside
// RunAll), with rows assembled in profile order afterwards. This
// experiment is the evaluation's long pole; without the inner sweep
// going wide, experiment-level parallelism alone cannot beat its wall
// time.
func Fig17SPEC(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tab := telemetry.NewTable("SPEC CPU2006 normalized performance (to shared cache)",
		"benchmark", "static/shared", "dcat/shared", "dcat/static", "dcat ways (max)")
	profiles := workload.Profiles()
	type specRow struct {
		ns, nd float64
		ways   int
	}
	rows := make([]specRow, len(profiles))
	err := opts.sweep(len(profiles), func(i int) error {
		p := profiles[i]
		shared, _, err := specRun(opts, p, ModeShared)
		if err != nil {
			return err
		}
		static, _, err := specRun(opts, p, ModeStatic)
		if err != nil {
			return err
		}
		dcat, ways, err := specRun(opts, p, ModeDCat)
		if err != nil {
			return err
		}
		rows[i] = specRow{ns: static / shared, nd: dcat / shared, ways: ways}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var statics, dcats []float64
	for i, p := range profiles {
		r := rows[i]
		statics = append(statics, r.ns)
		dcats = append(dcats, r.nd)
		tab.AddRow(p.Benchmark,
			fmt.Sprintf("%.2f", r.ns), fmt.Sprintf("%.2f", r.nd),
			fmt.Sprintf("%.2f", r.nd/r.ns), fmt.Sprintf("%d", r.ways))
	}
	gmStatic := telemetry.GeoMean(statics)
	gmDcat := telemetry.GeoMean(dcats)
	tab.AddRow("geomean", fmt.Sprintf("%.2f", gmStatic), fmt.Sprintf("%.2f", gmDcat),
		fmt.Sprintf("%.2f", gmDcat/gmStatic), "")
	notes := []string{
		fmt.Sprintf("geomean: dCat %s over shared cache (paper: +25%%), %s over static CAT (paper: +15.7%%)",
			pct(gmDcat), pct(gmDcat/gmStatic)),
	}
	return &TableResult{
		ID:    "fig17",
		Title: "SPEC CPU2006 with dCat (includes Table 3 way assignments)",
		Tab:   tab,
		Notes: notes,
	}, nil
}
