package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// mlrSpec returns an MLR tenant spec.
func mlrSpec(name string, ws uint64, baseline int, seed int64) vmSpec {
	return vmSpec{
		name:     name,
		baseline: baseline,
		gen: func(h *host.Host) (workload.Generator, error) {
			return workload.NewMLR(ws, addr.PageSize4K, h.Allocator(), seed)
		},
	}
}

// runTimeline executes specs under dCat, recording ways and normalized
// IPC series for the named targets each interval.
func runTimeline(opts Options, cfg core.Config, specs []vmSpec, targets []string,
	intervals int) (*telemetry.Recorder, *core.Controller, *scenario, error) {
	s, err := newScenario(opts, specs)
	if err != nil {
		return nil, nil, nil, err
	}
	rec := telemetry.NewRecorder()
	ctl, err := s.run(ModeDCat, cfg, intervals, func(interval int, ctl *core.Controller) {
		snap := ctl.Snapshot()
		byName := map[string]core.Status{}
		for _, st := range snap {
			byName[st.Name] = st
		}
		for _, tgt := range targets {
			st := byName[tgt]
			rec.Record("ways-"+tgt, float64(interval), float64(st.Ways))
			rec.Record("normipc-"+tgt, float64(interval), st.NormIPC)
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rec, ctl, s, nil
}

// Table1PerformanceTable reproduces paper Table 1: the per-phase
// performance table dCat learns for a cache-sensitive workload,
// with its baseline and preferred entries marked.
func Table1PerformanceTable(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	specs := append([]vmSpec{mlrSpec("target", 8<<20, 3, opts.Seed)}, lookbusySpecs(5, 3)...)
	_, ctl, _, err := runTimeline(opts, core.DefaultConfig(), specs, []string{"target"},
		opts.SteadyIntervals)
	if err != nil {
		return nil, err
	}
	table, ok := ctl.Table("target")
	if !ok {
		return nil, fmt.Errorf("experiments: target table missing")
	}
	pref, _ := table.Preferred(core.DefaultConfig().IPCImpThr / 2)
	tab := telemetry.NewTable("Performance table for the MLR-8MB phase",
		"cache-ways", "normalized IPC", "mark")
	for _, w := range table.Ways() {
		mark := ""
		switch {
		case w == 3:
			mark = "baseline"
		case w == pref:
			mark = "preferred"
		}
		v, _ := table.At(w)
		tab.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%.2f", v), mark)
	}
	return &TableResult{
		ID:    "table1",
		Title: "Performance table for a workload phase",
		Tab:   tab,
		Notes: []string{fmt.Sprintf("preferred allocation: %d ways", pref)},
	}, nil
}

// Fig8MissThreshold reproduces paper Fig 8: sweeping llc_miss_rate_thr
// trades allocation footprint against achieved latency. Baseline is 2
// ways as in the paper.
func Fig8MissThreshold(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tab := telemetry.NewTable("MLR-8MB under dCat vs llc_miss_rate_thr",
		"threshold", "final ways", "latency(cycles)")
	type point struct{ ways, lat float64 }
	var pts []point
	for _, thr := range []float64{0.01, 0.03, 0.05, 0.10, 0.20} {
		cfg := core.DefaultConfig()
		cfg.LLCMissRateThr = thr
		specs := append([]vmSpec{mlrSpec("target", 8<<20, 2, opts.Seed)}, lookbusySpecs(5, 2)...)
		_, ctl, s, err := runTimeline(opts, cfg, specs, []string{"target"}, opts.SteadyIntervals)
		if err != nil {
			return nil, err
		}
		vm, _ := s.host.VM("target")
		lat := vm.Last().AvgAccessLatency()
		pts = append(pts, point{float64(ctl.Ways("target")), lat})
		tab.AddRow(fmt.Sprintf("%.0f%%", thr*100),
			fmt.Sprintf("%d", ctl.Ways("target")), fmt.Sprintf("%.1f", lat))
	}
	notes := []string{}
	if pts[0].ways >= pts[len(pts)-1].ways && pts[0].lat <= pts[len(pts)-1].lat {
		notes = append(notes, "smaller thresholds claim more ways and achieve lower latency (paper shape)")
	} else {
		notes = append(notes, "WARNING: threshold sweep did not produce the paper's monotone shape")
	}
	return &TableResult{ID: "fig8", Title: "Impact of cache miss threshold", Tab: tab, Notes: notes}, nil
}

// Fig9IPCThreshold reproduces paper Fig 9: sweeping ipc_imp_thr — the
// sensitivity knob for keeping newly granted ways.
func Fig9IPCThreshold(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tab := telemetry.NewTable("MLR-8MB under dCat vs ipc_imp_thr", "threshold", "final ways")
	var ways []int
	for _, thr := range []float64{0.03, 0.05, 0.10, 0.20, 0.40} {
		cfg := core.DefaultConfig()
		cfg.IPCImpThr = thr
		// Disable the miss-rate stop so the IPC knob alone decides, as
		// in the paper's isolation of the parameter.
		cfg.LLCMissRateThr = 0.005
		specs := append([]vmSpec{mlrSpec("target", 8<<20, 2, opts.Seed)}, lookbusySpecs(5, 2)...)
		_, ctl, _, err := runTimeline(opts, cfg, specs, []string{"target"}, opts.SteadyIntervals)
		if err != nil {
			return nil, err
		}
		ways = append(ways, ctl.Ways("target"))
		tab.AddRow(fmt.Sprintf("%.0f%%", thr*100), fmt.Sprintf("%d", ctl.Ways("target")))
	}
	notes := []string{}
	if ways[0] >= ways[len(ways)-1] {
		notes = append(notes, "lower improvement thresholds hold more ways (paper: 9 ways at 3% down to baseline at 40%)")
	} else {
		notes = append(notes, "WARNING: ipc_imp_thr sweep did not produce the paper's monotone shape")
	}
	return &TableResult{ID: "fig9", Title: "Impact of IPC improvement threshold", Tab: tab, Notes: notes}, nil
}

// Fig10DynamicAllocation reproduces paper Fig 10: way allocation and
// normalized IPC over time for MLR working sets from 4 to 16 MB among
// five lookbusy neighbours.
func Fig10DynamicAllocation(opts Options) (*FigureResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rec := telemetry.NewRecorder()
	notes := []string{}
	for _, wsMB := range []uint64{4, 8, 12, 16} {
		specs := append([]vmSpec{mlrSpec("target", wsMB<<20, 3, opts.Seed)}, lookbusySpecs(5, 3)...)
		sub, ctl, _, err := runTimeline(opts, core.DefaultConfig(), specs, []string{"target"},
			opts.TimelineIntervals)
		if err != nil {
			return nil, err
		}
		w, _ := sub.Series("ways-target")
		n, _ := sub.Series("normipc-target")
		for _, p := range w.Points {
			rec.Record(fmt.Sprintf("ways-%dMB", wsMB), p.X, p.Y)
		}
		for _, p := range n.Points {
			rec.Record(fmt.Sprintf("normipc-%dMB", wsMB), p.X, p.Y)
		}
		notes = append(notes, fmt.Sprintf("MLR-%dMB converged at %d ways, normalized IPC %.2f",
			wsMB, ctl.Ways("target"), n.Last().Y))
	}
	return &FigureResult{ID: "fig10", Title: "Cache-way allocation and normalized IPC for MLR", Rec: rec, Notes: notes}, nil
}

// Fig11NormalizedLatency reproduces paper Fig 11: MLR latency under
// static CAT and under dCat, normalized to a full-cache run.
func Fig11NormalizedLatency(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tab := telemetry.NewTable("MLR latency normalized to full cache",
		"working set", "static CAT", "dCat")
	var worstStatic, worstDcat float64
	for _, wsMB := range []uint64{4, 8, 12, 16} {
		full, err := mlrLatency(opts, wsMB<<20, ModeShared, false)
		if err != nil {
			return nil, err
		}
		static, err := mlrLatency(opts, wsMB<<20, ModeStatic, true)
		if err != nil {
			return nil, err
		}
		dcat, err := mlrLatency(opts, wsMB<<20, ModeDCat, true)
		if err != nil {
			return nil, err
		}
		ns, nd := static/full, dcat/full
		if ns > worstStatic {
			worstStatic = ns
		}
		if nd > worstDcat {
			worstDcat = nd
		}
		tab.AddRow(fmt.Sprintf("%dMB", wsMB), fmt.Sprintf("%.2f", ns), fmt.Sprintf("%.2f", nd))
	}
	notes := []string{fmt.Sprintf(
		"worst-case normalized latency: static %.2fx vs dCat %.2fx (paper: dCat slightly above 1, static far higher)",
		worstStatic, worstDcat)}
	return &TableResult{ID: "fig11", Title: "Normalized data access latency for MLR", Tab: tab, Notes: notes}, nil
}

// mlrLatency runs one MLR working set under a mode and returns its
// final-interval average access latency. withNeighbors adds the five
// lookbusy VMs (the full-cache reference runs alone).
func mlrLatency(opts Options, ws uint64, mode Mode, withNeighbors bool) (float64, error) {
	specs := []vmSpec{mlrSpec("target", ws, 3, opts.Seed)}
	if withNeighbors {
		specs = append(specs, lookbusySpecs(5, 3)...)
	}
	s, err := newScenario(opts, specs)
	if err != nil {
		return 0, err
	}
	if _, err := s.run(mode, core.DefaultConfig(), opts.SteadyIntervals, nil); err != nil {
		return 0, err
	}
	vm, _ := s.host.VM("target")
	return vm.Last().AvgAccessLatency(), nil
}

// Fig12TableReuse reproduces paper Fig 12: a workload stops and later
// restarts the same phase; dCat recognizes it and grants the preferred
// allocation directly instead of rediscovering one way per round.
func Fig12TableReuse(opts Options) (*FigureResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	runLen := opts.TimelineIntervals / 2
	idleLen := 4
	target := vmSpec{
		name:     "target",
		baseline: 3,
		gen: func(h *host.Host) (workload.Generator, error) {
			run1, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), opts.Seed)
			if err != nil {
				return nil, err
			}
			// The second run revisits the same data (same phase).
			return workload.NewPhased("mlr-restart",
				workload.Stage{Gen: run1, Intervals: runLen},
				workload.Stage{Gen: workload.Idle{}, Intervals: idleLen},
				workload.Stage{Gen: run1})
		},
	}
	specs := append([]vmSpec{target}, lookbusySpecs(5, 3)...)
	rec, _, _, err := runTimeline(opts, core.DefaultConfig(), specs, []string{"target"},
		runLen+idleLen+runLen)
	if err != nil {
		return nil, err
	}
	first, second := reuseConvergence(rec, runLen, idleLen)
	notes := []string{fmt.Sprintf(
		"first run took %d intervals to reach the allocation the restart restored in %d (paper Fig 12: immediate)",
		first, second)}
	return &FigureResult{ID: "fig12", Title: "Performance-table reuse across a stop/restart", Rec: rec, Notes: notes}, nil
}

// reuseConvergence measures, for a run/idle/run timeline, how many
// intervals each busy run needed to reach the second run's settled
// allocation. Table reuse should make the second number much smaller.
func reuseConvergence(rec *telemetry.Recorder, runLen, idleLen int) (first, second int) {
	w, _ := rec.Series("ways-target")
	target := w.Last().Y
	for _, p := range w.Points {
		if int(p.X) <= runLen && p.Y >= target && first == 0 {
			first = int(p.X)
		}
		if int(p.X) > runLen+idleLen && p.Y >= target && second == 0 {
			second = int(p.X) - (runLen + idleLen)
		}
	}
	return first, second
}

// Fig13Streaming reproduces paper Fig 13: MLOAD-60MB probes up to the
// streaming threshold (3x baseline), shows no IPC gain, is classified
// Streaming, and is demoted to one way.
func Fig13Streaming(opts Options) (*FigureResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	specs := append([]vmSpec{mloadSpec("target", 60<<20, 3)}, lookbusySpecs(5, 3)...)
	rec, ctl, _, err := runTimeline(opts, core.DefaultConfig(), specs, []string{"target"},
		opts.TimelineIntervals)
	if err != nil {
		return nil, err
	}
	w, _ := rec.Series("ways-target")
	peak := 0.0
	for _, p := range w.Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	st, _ := ctl.StateOf("target")
	notes := []string{
		fmt.Sprintf("peak probe allocation %d ways (streaming threshold 3x3=9), final state %v at %d way(s)",
			int(peak), st, ctl.Ways("target")),
	}
	return &FigureResult{ID: "fig13", Title: "Cache-way allocation and normalized IPC for MLOAD", Rec: rec, Notes: notes}, nil
}

// Fig14TwoReceivers reproduces paper Fig 14: two cache-hungry MLRs
// (8 MB and 12 MB) under the max-performance policy. They grow evenly
// while the pool lasts; once it drains, the performance tables shift
// ways toward the workload with more to gain.
func Fig14TwoReceivers(opts Options) (*FigureResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Policy = core.MaxPerformance
	specs := append([]vmSpec{
		mlrSpec("mlr8", 8<<20, 3, opts.Seed),
		mlrSpec("mlr12", 12<<20, 3, opts.Seed+1),
	}, lookbusySpecs(4, 3)...)
	rec, ctl, _, err := runTimeline(opts, cfg, specs, []string{"mlr8", "mlr12"},
		opts.TimelineIntervals)
	if err != nil {
		return nil, err
	}
	n8, _ := rec.Series("normipc-mlr8")
	n12, _ := rec.Series("normipc-mlr12")
	notes := []string{fmt.Sprintf(
		"both grow in lockstep while the pool lasts (paper: equal size each step until 8/8); final MLR-8MB %d ways (%.2fx), MLR-12MB %d ways (%.2fx)",
		ctl.Ways("mlr8"), n8.Last().Y, ctl.Ways("mlr12"), n12.Last().Y),
		"at 2.25 MB per way both working sets fit at the even split, so the optimizer has nothing to shift; see ablation-policy for the §3.5 reclaim case where the tables do redistribute",
	}
	return &FigureResult{ID: "fig14", Title: "Two memory-intensive VMs under max-performance", Rec: rec, Notes: notes}, nil
}

// Fig15MixedTimeline reproduces paper Fig 15: MLR-8MB and MLOAD-60MB
// growing together; the Unknown MLOAD takes priority for the last free
// way, is exposed as streaming, and releases everything back — which
// the MLR then picks up.
func Fig15MixedTimeline(opts Options) (*FigureResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	specs := append([]vmSpec{
		mlrSpec("mlr", 8<<20, 3, opts.Seed),
		mloadSpec("mload", 60<<20, 3),
	}, lookbusySpecs(5, 1)...)
	rec, ctl, _, err := runTimeline(opts, core.DefaultConfig(), specs, []string{"mlr", "mload"},
		opts.TimelineIntervals)
	if err != nil {
		return nil, err
	}
	stMLR, _ := ctl.StateOf("mlr")
	stML, _ := ctl.StateOf("mload")
	n, _ := rec.Series("normipc-mlr")
	notes := []string{
		fmt.Sprintf("final: MLR %d ways (%v, normalized IPC %.2f); MLOAD %d ways (%v)",
			ctl.Ways("mlr"), stMLR, n.Last().Y, ctl.Ways("mload"), stML),
	}
	return &FigureResult{ID: "fig15", Title: "Allocation timeline for MLR + MLOAD", Rec: rec, Notes: notes}, nil
}

// Fig16MixedLatency reproduces paper Fig 16: final data-access latency
// of the Fig 15 pair under static CAT and under dCat, normalized to
// each workload's full-cache run — dCat speeds up MLR dramatically
// without hurting the MLOAD neighbour.
func Fig16MixedLatency(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	run := func(mode Mode) (mlrLat, mloadLat float64, err error) {
		specs := append([]vmSpec{
			mlrSpec("mlr", 8<<20, 3, opts.Seed),
			mloadSpec("mload", 60<<20, 3),
		}, lookbusySpecs(5, 1)...)
		s, err := newScenario(opts, specs)
		if err != nil {
			return 0, 0, err
		}
		if _, err := s.run(mode, core.DefaultConfig(), opts.SteadyIntervals, nil); err != nil {
			return 0, 0, err
		}
		a, _ := s.host.VM("mlr")
		b, _ := s.host.VM("mload")
		return a.Last().AvgAccessLatency(), b.Last().AvgAccessLatency(), nil
	}
	fullRun := func(ws uint64, mload bool) (float64, error) {
		var spec vmSpec
		if mload {
			spec = mloadSpec("t", ws, 3)
		} else {
			spec = mlrSpec("t", ws, 3, opts.Seed)
		}
		s, err := newScenario(opts, []vmSpec{spec})
		if err != nil {
			return 0, err
		}
		if _, err := s.run(ModeShared, core.DefaultConfig(), opts.SteadyIntervals, nil); err != nil {
			return 0, err
		}
		vm, _ := s.host.VM("t")
		return vm.Last().AvgAccessLatency(), nil
	}
	fullMLR, err := fullRun(8<<20, false)
	if err != nil {
		return nil, err
	}
	fullMLOAD, err := fullRun(60<<20, true)
	if err != nil {
		return nil, err
	}
	sMLR, sMLOAD, err := run(ModeStatic)
	if err != nil {
		return nil, err
	}
	dMLR, dMLOAD, err := run(ModeDCat)
	if err != nil {
		return nil, err
	}
	tab := telemetry.NewTable("Latency normalized to each workload's full-cache run",
		"workload", "static CAT", "dCat")
	tab.AddRow("MLR-8MB", fmt.Sprintf("%.2f", sMLR/fullMLR), fmt.Sprintf("%.2f", dMLR/fullMLR))
	tab.AddRow("MLOAD-60MB", fmt.Sprintf("%.2f", sMLOAD/fullMLOAD), fmt.Sprintf("%.2f", dMLOAD/fullMLOAD))
	notes := []string{
		fmt.Sprintf("MLR speedup from dCat over static CAT: %s (paper: ~175%%), MLOAD change: %s (paper: unharmed)",
			pct(sMLR/dMLR), pct(sMLOAD/dMLOAD)),
	}
	return &TableResult{ID: "fig16", Title: "Normalized latency with dCat for MLR and MLOAD", Tab: tab, Notes: notes}, nil
}
