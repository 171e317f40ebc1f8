package experiments

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/heracles"
	"repro/internal/host"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// PolicyComparison runs one recurring-phase scenario under every
// allocation policy the controller can host — the pluggable reactive /
// predictive / lfoc engines plus the Heracles and UCP adapters — and
// tabulates how each handles a tenant with a periodic wake/sleep
// pattern. One MLR repeatedly runs its phase, idles, and restarts it;
// lookbusy neighbours fill the rest of the socket.
//
// The interesting column is the final recurrence: by then the
// predictive policy's sequence model has seen the idle→busy transition
// enough times to act, so it pre-grants the remembered preferred
// allocation during the preceding idle window and sustains it through
// the phase change — the tenant wakes already holding its working
// set's ways, with no reclaim dip and no re-growth, while reactive
// pays the dip and re-measures before the performance-table jump
// restores the allocation.
func PolicyComparison(opts Options) (*TableResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	const baseline = 3
	// Four busy runs: the model needs two observed idle→busy
	// transitions before the third idle window's prediction clears
	// MinSamples, so the pre-grant covers idle 3 and the sustain fires
	// at wake 4.
	runLen := opts.TimelineIntervals / 3
	if runLen < 7 {
		runLen = 7
	}
	const idleLen, runs = 4, 4
	total := runs*runLen + (runs-1)*idleLen
	wake := total - runLen // last interval before the final busy run

	build := func() []vmSpec {
		target := vmSpec{
			name:     "target",
			baseline: baseline,
			gen: func(h *host.Host) (workload.Generator, error) {
				run1, err := workload.NewMLR(8<<20, addr.PageSize4K, h.Allocator(), opts.Seed)
				if err != nil {
					return nil, err
				}
				// Every busy stage revisits the same data: one recurring
				// phase with idle gaps.
				stages := make([]workload.Stage, 0, 2*runs-1)
				for i := 0; i < runs; i++ {
					if i > 0 {
						stages = append(stages, workload.Stage{Gen: workload.Idle{}, Intervals: idleLen})
					}
					stages = append(stages, workload.Stage{Gen: run1, Intervals: runLen})
				}
				return workload.NewPhased("mlr-recurring", stages...)
			},
		}
		return append([]vmSpec{target}, lookbusySpecs(5, baseline)...)
	}

	type outcome struct {
		finalWays int
		recover   int // intervals after the last wake to reach prefWays (0 = never)
		dip       int // minimum ways held during the final busy run
		meanNIPC  float64
		hits      int
		misses    int
		predicted bool
	}

	// runOne executes the scenario under one policy; prep (optional)
	// hooks the built scenario before the run (the UCP adapter attaches
	// its shadow-tag monitors there). prefWays=0 means "measure, don't
	// judge recovery" (the reactive pass that defines the target).
	runOne := func(cfg core.Config, prefWays int,
		prep func(s *scenario, cfg *core.Config) error) (outcome, error) {
		s, err := newScenario(opts, build())
		if err != nil {
			return outcome{}, err
		}
		if prep != nil {
			if err := prep(s, &cfg); err != nil {
				return outcome{}, err
			}
		}
		var (
			o         outcome
			sumNIPC   float64
			nipcTicks int
		)
		o.dip = int(^uint(0) >> 1)
		ctl, err := s.run(ModeDCat, cfg, total, func(interval int, ctl *core.Controller) {
			if interval <= wake {
				return
			}
			w := ctl.Ways("target")
			if w < o.dip {
				o.dip = w
			}
			if o.recover == 0 && prefWays > 0 && w >= prefWays {
				o.recover = interval - wake
			}
			for _, st := range ctl.Snapshot() {
				if st.Name == "target" {
					sumNIPC += st.NormIPC
					nipcTicks++
				}
			}
		})
		if err != nil {
			return outcome{}, err
		}
		o.finalWays = ctl.Ways("target")
		if nipcTicks > 0 {
			o.meanNIPC = sumNIPC / float64(nipcTicks)
		}
		return o, nil
	}

	// The reactive pass defines the scenario's preferred allocation:
	// whatever the stock allocator settles the final run at.
	reactive, err := runOne(core.DefaultConfig(), 0, nil)
	if err != nil {
		return nil, err
	}
	prefWays := reactive.finalWays
	reactive, err = runOne(core.DefaultConfig(), prefWays, nil)
	if err != nil {
		return nil, err
	}

	outcomes := map[string]outcome{"reactive": reactive}
	order := []string{"reactive", "predictive", "lfoc", "heracles", "ucp"}

	{ // predictive: capture the instance so the table can report hits.
		var pred *policy.Predictive
		cfg := core.DefaultConfig()
		cfg.NewPolicy = func() policy.AllocationPolicy {
			pred = policy.NewPredictive(policy.DefaultPredictiveConfig())
			return pred
		}
		o, err := runOne(cfg, prefWays, nil)
		if err != nil {
			return nil, err
		}
		o.hits, o.misses = pred.Stats()
		o.predicted = true
		outcomes["predictive"] = o
	}
	{
		cfg := core.DefaultConfig()
		cfg.NewPolicy = func() policy.AllocationPolicy { return policy.NewLFOC() }
		o, err := runOne(cfg, prefWays, nil)
		if err != nil {
			return nil, err
		}
		outcomes["lfoc"] = o
	}
	{
		// Heracles regulates the target against the IPC its contracted
		// static partition delivers (the SLO a provider could promise).
		s, err := newScenario(opts, build())
		if err != nil {
			return nil, err
		}
		if _, err := s.run(ModeStatic, core.DefaultConfig(), runLen, nil); err != nil {
			return nil, err
		}
		vm, _ := s.host.VM("target")
		targetIPC := vm.Last().IPC()
		pol, err := heracles.NewPolicy(heracles.DefaultConfig(targetIPC), "target")
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.NewPolicy = func() policy.AllocationPolicy { return pol }
		o, err := runOne(cfg, prefWays, nil)
		if err != nil {
			return nil, err
		}
		outcomes["heracles"] = o
	}
	{
		o, err := runOne(core.DefaultConfig(), prefWays, (*scenario).underUCP)
		if err != nil {
			return nil, err
		}
		outcomes["ucp"] = o
	}

	tab := telemetry.NewTable(
		fmt.Sprintf("recurring-phase tenant (preferred allocation %d ways), final busy run", prefWays),
		"policy", "final ways", "recover(intervals)", "wake dip(ways)", "mean norm IPC", "predictions(hit/miss)")
	for _, name := range order {
		o := outcomes[name]
		rec := "-"
		if o.recover > 0 {
			rec = fmt.Sprintf("%d", o.recover)
		}
		pred := "-"
		if o.predicted {
			pred = fmt.Sprintf("%d/%d", o.hits, o.misses)
		}
		// Independent policies never sit at exactly the contracted ways,
		// so the controller never measures a baseline IPC for them and
		// the normalized series is undefined.
		nipc := "-"
		if o.meanNIPC > 0 {
			nipc = fmt.Sprintf("%.2f", o.meanNIPC)
		}
		tab.AddRow(name, fmt.Sprintf("%d", o.finalWays), rec,
			fmt.Sprintf("%d", o.dip), nipc, pred)
	}

	notes := []string{
		fmt.Sprintf("recurring phase (MLR-8MB, %d run/idle cycles): reactive recovers the %d-way preferred allocation %s interval(s) after the last wake; predictive in %s (pre-grant during idle + sustained phase change)",
			runs, prefWays, fmtRecover(reactive.recover), fmtRecover(outcomes["predictive"].recover)),
	}
	p, r := outcomes["predictive"], reactive
	if p.recover > 0 && (r.recover == 0 || p.recover < r.recover) {
		notes = append(notes, fmt.Sprintf("predictive beats reactive to the preferred allocation (%s vs %s intervals) and holds %d ways through the wake where reactive dips to %d",
			fmtRecover(p.recover), fmtRecover(r.recover), p.dip, r.dip))
	} else {
		notes = append(notes, "WARNING: predictive did not reach the preferred allocation ahead of reactive on this scenario")
	}
	notes = append(notes,
		"heracles tracks its IPC target, not phase structure; ucp re-earns utility after every wake; lfoc matches reactive here (the target clusters cache-sensitive) — see each policy's own comparison experiment for its native scenario")
	return &TableResult{
		ID:    "policy-comparison",
		Title: "Allocation policies on a recurring-phase tenant",
		Tab:   tab,
		Notes: notes,
	}, nil
}

func fmtRecover(r int) string {
	if r <= 0 {
		return "never"
	}
	return fmt.Sprintf("%d", r)
}
