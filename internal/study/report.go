package study

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/telemetry"
)

// RunOptions configure a study-file execution.
type RunOptions struct {
	// Sweep, when set, runs fn(0..n-1) with the caller's parallelism
	// (the experiment engine's worker pool); nil runs serially. Results
	// are always assembled in scenario-index order, so the rendered
	// output is byte-identical at any parallelism.
	Sweep func(n int, fn func(i int) error) error
	// OutDir, when set, receives one directory per study containing a
	// detail file per scenario, plus the cross-study table at the root.
	OutDir string
}

// Result is a completed study file: every scenario's result in
// expansion order, plus the cross-study comparison table.
type Result struct {
	File      *File
	Scenarios []*ScenarioResult
}

// Run executes every scenario of a validated study file and writes the
// result directories when requested.
func Run(f *File, ro RunOptions) (*Result, error) {
	scenarios := f.Expand()
	sweep := ro.Sweep
	if sweep == nil {
		sweep = func(n int, fn func(i int) error) error {
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	results := make([]*ScenarioResult, len(scenarios))
	if err := sweep(len(scenarios), func(i int) error {
		r, err := runScenario(scenarios[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	res := &Result{File: f, Scenarios: results}
	if ro.OutDir != "" {
		if err := res.Write(ro.OutDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table builds the cross-study comparison table, one row per scenario
// in expansion order. All values are formatted with fixed precision,
// so the render is byte-stable for a given file and seed — the
// property the -j determinism guard relies on.
func (r *Result) Table() *telemetry.Table {
	tab := telemetry.NewTable(fmt.Sprintf("Study %s: cross-study comparison", r.File.Name),
		"study", "scenario", "fleet IPC", "MPKI", "transitions", "phases",
		"arrivals", "departs", "rejected", "migrations", "moves", "grace-viol")
	for _, s := range r.Scenarios {
		tab.AddRow(s.Scenario.Study, s.Scenario.ID,
			fmt.Sprintf("%.3f", s.FleetIPC),
			fmt.Sprintf("%.3f", s.MPKI),
			fmt.Sprintf("%d", s.Transitions),
			fmt.Sprintf("%d", s.PhaseChanges),
			fmt.Sprintf("%d", s.Arrivals),
			fmt.Sprintf("%d", s.Departures),
			fmt.Sprintf("%d", s.Rejected),
			fmt.Sprintf("%d", s.Migrations),
			fmt.Sprintf("%d", s.Moves),
			fmt.Sprintf("%d", s.GraceViolations))
	}
	return tab
}

// Render writes the cross-study table as aligned text.
func (r *Result) Render(sb *strings.Builder) {
	r.Table().Render(sb)
}

// Write lays out the result directories:
//
//	<dir>/table.txt            cross-study comparison table
//	<dir>/<study>/<id>.txt     per-scenario detail
func (r *Result) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	var sb strings.Builder
	r.Render(&sb)
	if err := os.WriteFile(filepath.Join(dir, "table.txt"), []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	for _, s := range r.Scenarios {
		sdir := filepath.Join(dir, s.Scenario.Study)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return fmt.Errorf("study: %w", err)
		}
		path := filepath.Join(sdir, s.Scenario.ID+".txt")
		if err := os.WriteFile(path, []byte(s.Detail), 0o644); err != nil {
			return fmt.Errorf("study: %w", err)
		}
	}
	return nil
}

// Plan renders the dry-run view: the validated expansion, scenario by
// scenario, without running anything. dcat-bench prints this under
// -study-dry-run.
func Plan(f *File) string {
	var sb strings.Builder
	scenarios := f.Expand()
	fmt.Fprintf(&sb, "study file %q: %d studies, %d scenarios (machine %s, %d cycles/interval, seed %d)\n",
		f.Name, len(f.Studies), len(scenarios), f.Base.Machine, f.Base.Cycles, f.Base.Seed)
	for _, sc := range scenarios {
		extras := ""
		if sc.Churn.Enabled() {
			extras += fmt.Sprintf(" churn(every=%d,life=%d,max=%d,migrate=%d)",
				sc.Churn.ArrivalsEvery, sc.Churn.Lifetime, sc.Churn.MaxLive, sc.Churn.MigrateEvery)
		}
		if sc.Placement {
			extras += " placement"
		}
		if sc.Policy != "" {
			extras += " policy=" + sc.Policy
		}
		fmt.Fprintf(&sb, "  [%3d] %s/%s: fleet=%d sockets=%d mix=%s arrival=%s intervals=%d seed=%d%s\n",
			sc.Index, sc.Study, sc.ID, sc.Fleet, sc.Sockets, sc.Mix, sc.Arrival, sc.Intervals, sc.Seed, extras)
	}
	return sb.String()
}
