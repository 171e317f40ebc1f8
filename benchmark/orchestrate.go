package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
)

// lastLine returns the last non-empty line of a child's output.
func lastLine(output []byte) []byte {
	output = bytes.TrimRight(output, "\n")
	if i := bytes.LastIndexByte(output, '\n'); i >= 0 {
		return output[i+1:]
	}
	return output
}

// spawn runs one workload in a fresh child process re-exec'd from this
// binary: every repeat starts from a cold heap and a cold page cache of
// its own making. The child ends its output with its outcome as JSON.
func spawn(ctx context.Context, cfg runConfig, workload string, trace bool, extra ...string) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{
		"--child",
		"--workload", workload,
		"--seed", strconv.FormatInt(cfg.Seed, 10),
		"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"--trace", t,
		"--out", cfg.OutDir,
		"--scratch", cfg.Scratch,
	}
	if cfg.SkipExpected {
		args = append(args, "--update-expected")
	}
	args = append(args, extra...)
	// An interrupted parent takes its child down with it.
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d trace %s done\n", workload, cfg.Seed, t)
	if runErr != nil {
		return nil, fmt.Errorf("%s: child failed: %w", workload, runErr)
	}
	var out outcome
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &out); err != nil {
		return nil, fmt.Errorf("%s: child's outcome: %w", workload, err)
	}
	return &out, nil
}

// agg is one metric's values over the repeats of one set.
type agg struct {
	name   string
	unit   string
	n      int
	vals   []float64
	thin   bool
	median float64
	// spread is (max-min)/median over the repeats.
	spread float64
}

func aggregate(runs []*outcome) []agg {
	if len(runs) == 0 {
		return nil
	}
	var out []agg
	for _, first := range runs[0].Metrics {
		a := agg{name: first.Name}
		for _, r := range runs {
			m, ok := r.get(first.Name)
			if !ok {
				continue
			}
			a.unit, a.n = m.Unit, m.N
			a.thin = a.thin || m.Thin
			a.vals = append(a.vals, m.Value)
		}
		a.median = median(a.vals)
		lo, hi := a.vals[0], a.vals[0]
		for _, v := range a.vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if a.median != 0 {
			a.spread = (hi - lo) / math.Abs(a.median)
		}
		out = append(out, a)
	}
	return out
}

// setResult is one full set: every workload, repeats times.
type setResult struct {
	byWorkload map[string][]agg
	digests    map[string]string
	failures   []string
}

func runSet(ctx context.Context, cfg runConfig, repeats int) setResult {
	res := setResult{byWorkload: make(map[string][]agg), digests: make(map[string]string)}
	for _, w := range workloads {
		var runs []*outcome
		for r := 0; r < repeats; r++ {
			c, err := spawn(ctx, cfg, w.Name, false)
			if err != nil {
				res.failures = append(res.failures, err.Error())
				continue
			}
			for _, p := range c.Problems {
				res.failures = append(res.failures, fmt.Sprintf("%s repeat %d: %s", w.Name, r+1, p))
			}
			if len(runs) > 0 && c.Digest != runs[0].Digest {
				res.failures = append(res.failures, fmt.Sprintf("%s repeat %d: digest %s differs from repeat 1's %s", w.Name, r+1, c.Digest, runs[0].Digest))
			}
			runs = append(runs, c)
		}
		if len(runs) == 0 {
			continue
		}
		res.digests[w.Name] = runs[0].Digest
		res.byWorkload[w.Name] = aggregate(runs)
	}
	return res
}

func findAgg(aggs []agg, name string) (agg, bool) {
	for _, a := range aggs {
		if a.name == name {
			return a, true
		}
	}
	return agg{}, false
}

func printSet(title string, res setResult) {
	fmt.Printf("\n== %s ==\n", title)
	for _, w := range workloads {
		aggs := res.byWorkload[w.Name]
		if aggs == nil {
			continue
		}
		fmt.Printf("\n%s  (digest %.16s…)\n  throughput_per_s counts %s; latency_ms times %s\n", w.Name, res.digests[w.Name], w.Work, w.Operation)
		fmt.Printf("  %-34s %-6s %10s %16s %9s\n", "metric", "unit", "samples", "median", "spread")
		for _, a := range aggs {
			note := ""
			if a.thin {
				note = "  (thin: too few samples beyond the percentile)"
			}
			fmt.Printf("  %-34s %-6s %10d %16.6g %8.2f%%%s\n", a.name, a.unit, a.n, a.median, 100*a.spread, note)
		}
	}
}

// boundOf returns an end-to-end metric's regression bound and direction.
func boundOf(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// compareSets is --check-repeat: two sets of the same binary must agree
// within each end-to-end metric's own bound, and exactly on the digests
// (which cover every simulated statistic). It returns the disagreements.
func compareSets(a, b setResult) []string {
	var bad []string
	fmt.Printf("\n== check-repeat: set 1 vs set 2 ==\n")
	fmt.Printf("  %-13s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "set 1", "set 2", "delta", "bound", "verdict")
	for _, w := range workloads {
		if a.digests[w.Name] != b.digests[w.Name] {
			bad = append(bad, fmt.Sprintf("%s: digest %s vs %s", w.Name, a.digests[w.Name], b.digests[w.Name]))
		}
		for _, x := range a.byWorkload[w.Name] {
			d, ok := boundOf(x.name)
			if !ok {
				continue
			}
			y, ok := findAgg(b.byWorkload[w.Name], x.name)
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: %s missing from set 2", w.Name, x.name))
				continue
			}
			// Positive delta = set 2 is worse.
			delta := (y.median - x.median) / math.Abs(x.median)
			if d.Better == "higher" {
				delta = -delta
			}
			verdict := "agree"
			switch {
			case math.Abs(delta) > d.Bound:
				verdict = "DISAGREE"
				bad = append(bad, fmt.Sprintf("%s: %s medians %g vs %g differ by %.1f%%, bound %.1f%%",
					w.Name, x.name, x.median, y.median, 100*math.Abs(delta), 100*d.Bound))
			case x.spread > d.Bound || y.spread > d.Bound:
				// The medians agree, but the runs scatter wider than the
				// bound: this benchmark could not resolve a regression of
				// that size here, so it must not claim "unchanged".
				verdict = "unresolved (spread exceeds bound)"
			}
			fmt.Printf("  %-13s %-22s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n",
				w.Name, x.name, x.median, y.median, 100*delta, 100*d.Bound, verdict)
		}
	}
	return bad
}

// expectedPath finds expected.json beside the benchmark's sources.
func expectedPath() string {
	if _, err := os.Stat("expected.json"); err == nil {
		return "expected.json"
	}
	return filepath.Join("benchmark", "expected.json")
}

func writeExpected(cfg runConfig, digests map[string]string) error {
	e := expectedFile{Seed: cfg.Seed, Seconds: cfg.Seconds, Digests: digests}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(), append(data, '\n'), 0o644)
}

// orchestrate is the all-workloads mode.
func orchestrate(cfg runConfig, repeats int, check, update bool) int {
	if repeats < 1 {
		repeats = 1
	}
	fmt.Print(header(cfg))
	fmt.Printf("# %d repeats per workload, each in a fresh child process; spread = (max-min)/median over repeats\n", repeats)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	first := runSet(ctx, cfg, repeats)
	printSet("end-to-end, untraced (set 1)", first)
	failures := first.failures
	if check {
		second := runSet(ctx, cfg, repeats)
		printSet("end-to-end, untraced (set 2)", second)
		failures = append(failures, second.failures...)
		failures = append(failures, compareSets(first, second)...)
	}

	if cfg.Trace {
		fmt.Printf("\n== per-layer, one traced run per workload ==\n")
		layer := make(map[string]bool, len(perLayer))
		for _, d := range perLayer {
			layer[d.Name] = true
		}
		for _, w := range workloads {
			c, err := spawn(ctx, cfg, w.Name, true)
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			for _, p := range c.Problems {
				failures = append(failures, fmt.Sprintf("%s traced: %s", w.Name, p))
			}
			if d := first.digests[w.Name]; d != "" && c.Digest != d {
				failures = append(failures, fmt.Sprintf("%s traced: digest %s differs from the untraced runs' %s", w.Name, c.Digest, d))
			}
			fmt.Printf("\n%s  (spans: %s)\n", w.Name, filepath.Join(cfg.OutDir, "trace-"+w.Name+".json"))
			if base, ok := findAgg(first.byWorkload[w.Name], "throughput_per_s"); ok && base.median != 0 {
				traced := c.value("throughput_per_s")
				fmt.Printf("  tracing overhead: throughput_per_s traced %.6g vs untraced median %.6g = %+.2f%%\n",
					traced, base.median, 100*(base.median-traced)/base.median)
			}
			var names []string
			for _, m := range c.Metrics {
				if layer[m.Name] {
					names = append(names, m.Name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				m, _ := c.get(name)
				if m.Value == 0 && m.N == 0 {
					continue // layer not exercised here
				}
				note := ""
				if m.Thin {
					note = "  (thin)"
				}
				fmt.Printf("  %-38s %-6s %10d %16.6g%s\n", m.Name, m.Unit, m.N, m.Value, note)
			}
		}
	}

	if cfg.CPUProfile != "" || cfg.MemProfile != "" {
		// Profiles come from an extra, unreported run per workload, so the
		// profiler's own cost never reaches a printed number.
		for _, w := range workloads {
			var extra []string
			if cfg.CPUProfile != "" {
				extra = append(extra, "--cpuprofile", cfg.CPUProfile)
			}
			if cfg.MemProfile != "" {
				extra = append(extra, "--memprofile", cfg.MemProfile)
			}
			if _, err := spawn(ctx, cfg, w.Name, false, extra...); err != nil {
				failures = append(failures, err.Error())
			}
		}
		fmt.Printf("\nprofiles written under %s %s\n", cfg.CPUProfile, cfg.MemProfile)
	}

	if update {
		if len(failures) > 0 {
			fmt.Fprintln(os.Stderr, "benchmark: not updating expected.json: the run had failures")
		} else if err := writeExpected(cfg, first.digests); err != nil {
			failures = append(failures, err.Error())
		} else {
			fmt.Printf("\nwrote %s\n", expectedPath())
		}
	}

	if len(failures) > 0 {
		fmt.Printf("\nFAILED: %d check(s)\n", len(failures))
		for _, f := range failures {
			fmt.Printf("  - %s\n", f)
		}
		return 1
	}
	fmt.Printf("\nall checks passed\n")
	return 0
}
