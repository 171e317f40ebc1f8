// Package experiments reproduces every table and figure of the dCat
// paper's evaluation (§2 motivation and §5 evaluation) on the simulated
// substrate. Each experiment builds the paper's VM mix, runs it under
// one or more cache-management modes, and emits either a time series
// (figures) or a results table (tables).
//
// Modes:
//
//   - ModeShared: no CAT — every core may fill the whole LLC.
//   - ModeStatic: CAT applied once with each tenant's baseline ways.
//   - ModeDCat: the dCat controller re-partitions every interval.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Mode selects the cache-management configuration under test.
type Mode int

const (
	// ModeShared leaves the LLC fully shared (no CAT).
	ModeShared Mode = iota
	// ModeStatic applies each tenant's baseline ways once, statically.
	ModeStatic
	// ModeDCat runs the dCat controller every interval.
	ModeDCat
)

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case ModeShared:
		return "shared"
	case ModeStatic:
		return "static"
	case ModeDCat:
		return "dcat"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options scale the simulations.
type Options struct {
	// Cycles is each core's cycle budget per interval (simulated
	// second). Larger values reduce measurement noise.
	Cycles uint64
	// TimelineIntervals is the length of timeline figures (Figs 10-15).
	TimelineIntervals int
	// SteadyIntervals is how long steady-state experiments run before
	// their final measurement.
	SteadyIntervals int
	// Seed drives frame placement and workload randomness.
	Seed int64
	// Jobs bounds intra-experiment parallelism for sweep-style
	// experiments (the SPEC sweep runs 60 independent simulations) when
	// the experiment is run directly; <=1 means serial. Under RunAll
	// the engine's shared worker budget takes over instead — see
	// Options.sweep. Each sweep point builds its own host from Seed,
	// and results are collected in sweep order, so rendered output is
	// independent of parallelism either way.
	Jobs int

	// pool, when set by RunAll, is the engine-wide worker budget that
	// sweeps draw from instead of Jobs.
	pool *workerPool
}

// sweep runs fn(0..n-1) for a sweep-style experiment: bounded by the
// engine's shared worker budget when one is attached (the experiment's
// own slot plus any idle slots), by Jobs otherwise.
func (o Options) sweep(n int, fn func(i int) error) error {
	if o.pool != nil {
		return o.pool.sweep(n, fn)
	}
	return sweepParallel(o.Jobs, n, fn)
}

// Default returns full-fidelity settings (dcat-bench).
func Default() Options {
	return Options{Cycles: 20_000_000, TimelineIntervals: 26, SteadyIntervals: 20, Seed: 1}
}

// Quick returns reduced settings for tests and -short benches.
func Quick() Options {
	return Options{Cycles: 6_000_000, TimelineIntervals: 22, SteadyIntervals: 14, Seed: 1}
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if o.Cycles < 1_000_000 {
		return fmt.Errorf("experiments: cycle budget %d too small for stable statistics", o.Cycles)
	}
	if o.TimelineIntervals < 10 || o.SteadyIntervals < 5 {
		return fmt.Errorf("experiments: interval counts too small: %+v", o)
	}
	return nil
}

// FigureResult is a reproduced figure: one or more named series.
type FigureResult struct {
	ID    string
	Title string
	Rec   *telemetry.Recorder
	Notes []string
}

// Render writes the figure as labelled CSV plus notes.
func (f *FigureResult) Render(sb *strings.Builder) {
	fmt.Fprintf(sb, "== %s: %s ==\n", f.ID, f.Title)
	f.Rec.WriteCSV(sb)
	for _, n := range f.Notes {
		fmt.Fprintf(sb, "note: %s\n", n)
	}
}

// TableResult is a reproduced table.
type TableResult struct {
	ID    string
	Title string
	Tab   *telemetry.Table
	Notes []string
}

// Render writes the table as aligned text plus notes.
func (t *TableResult) Render(sb *strings.Builder) {
	fmt.Fprintf(sb, "== %s: %s ==\n", t.ID, t.Title)
	t.Tab.Render(sb)
	for _, n := range t.Notes {
		fmt.Fprintf(sb, "note: %s\n", n)
	}
}

// vmSpec declares one tenant of a scenario.
type vmSpec struct {
	name     string
	cores    int
	socket   int // placement
	gen      func(h *host.Host) (workload.Generator, error)
	baseline int
}

// scenario is a configured host plus the tenant specs (and their
// contracted baselines) needed to run it under any mode.
type scenario struct {
	host  *host.Host
	specs []vmSpec
}

// newScenario builds a host (paper's Xeon E5 sockets) and its VMs. The
// host has as many sockets as the specs place VMs on: one unless a
// spec names another.
func newScenario(opts Options, specs []vmSpec) (*scenario, error) {
	cfg := host.DefaultConfig()
	cfg.CyclesPerInterval = opts.Cycles
	cfg.Seed = opts.Seed
	for _, s := range specs {
		cfg.Sockets = max(cfg.Sockets, s.socket+1)
	}
	h, err := host.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		gen, err := s.gen(h)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", s.name, err)
		}
		cores := s.cores
		if cores == 0 {
			cores = 2 // the paper's 2-vCPU VMs
		}
		if _, err := h.AddVMOn(s.socket, s.name, cores, gen); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	return &scenario{host: h, specs: specs}, nil
}

// run executes the scenario for n intervals under the given mode,
// invoking onTick after every interval. The returned controller set —
// one loop per populated socket — is nil in ModeShared; in ModeStatic it
// only holds the baselines it installed.
func (s *scenario) run(mode Mode, ctlCfg core.Config, n int, onTick func(interval int, ctl *core.MultiController)) (*core.MultiController, error) {
	var ctl *core.MultiController
	switch mode {
	case ModeShared:
		// Leave default full masks.
	case ModeStatic, ModeDCat:
		baselines := make(map[string]int, len(s.specs))
		for _, spec := range s.specs {
			baselines[spec.name] = spec.baseline
		}
		var err error
		if ctl, err = s.host.Controllers(ctlCfg, baselines); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown mode %d", mode)
	}
	s.host.RunIntervals(n, func(interval int) {
		if mode == ModeDCat {
			// Controller errors are programming errors in this closed
			// system; surface loudly.
			if err := ctl.Tick(); err != nil {
				panic(err)
			}
		}
		if onTick != nil {
			onTick(interval, ctl)
		}
	})
	return ctl, nil
}

// lookbusySpec returns n lookbusy tenant specs named lb1..lbN.
func lookbusySpecs(n, baseline int) []vmSpec {
	specs := make([]vmSpec, n)
	for i := range specs {
		specs[i] = vmSpec{
			name:     fmt.Sprintf("lb%d", i+1),
			baseline: baseline,
			gen: func(h *host.Host) (workload.Generator, error) {
				return workload.NewLookbusy(h.Allocator())
			},
		}
	}
	return specs
}

// mloadSpec returns a streaming noisy-neighbour tenant.
func mloadSpec(name string, ws uint64, baseline int) vmSpec {
	return vmSpec{
		name:     name,
		baseline: baseline,
		gen: func(h *host.Host) (workload.Generator, error) {
			return workload.NewMLOAD(ws, addr.PageSize4K, h.Allocator())
		},
	}
}

// pct formats a ratio as a signed percentage ("+25.0%").
func pct(ratio float64) string {
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}
