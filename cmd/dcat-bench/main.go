// Command dcat-bench regenerates every table and figure of the dCat
// paper's evaluation on the simulated substrate and prints them in
// paper order.
//
//	dcat-bench                 # run everything at full fidelity
//	dcat-bench -quick          # reduced scale (~4x faster)
//	dcat-bench -j 8            # run up to 8 experiments in parallel
//	dcat-bench -run fig10,fig17
//	dcat-bench -out results/   # also save one file per experiment
//	dcat-bench -study studies.json             # also run a declarative study sweep
//	dcat-bench -study studies.json -study-dry-run  # validate + print the plan only
//	dcat-bench -list
//
// Experiment text goes to stdout in paper order (byte-identical for
// any -j, since experiments are seed-isolated and results are rendered
// in registry order); progress, timings, and the run summary go to
// stderr. Failing experiments do not abort the run — every failure is
// collected and reported, and the exit status is non-zero if any
// experiment failed. -failfast restores stop-at-first-error behaviour
// by cancelling unstarted experiments once one fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/study"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced simulation scale")
		run      = flag.String("run", "", "comma-separated experiment ids (default: all)")
		out      = flag.String("out", "", "directory to save per-experiment outputs")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "experiments to run in parallel")
		failFast = flag.Bool("failfast", false, "cancel pending experiments after the first failure")
		studyPth = flag.String("study", "", "also run this declarative study file (see docs/EXPERIMENTS.md) as the 'study' experiment")
		studyDry = flag.Bool("study-dry-run", false, "validate the -study file, print its scenario plan, and exit without running anything")
		studyOut = flag.String("study-out", "study_results", "directory for per-study result dirs and the cross-study table (with -study)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit (pprof)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := realMain(ctx, config{
		quick:      *quick,
		run:        *run,
		out:        *out,
		list:       *list,
		jobs:       *jobs,
		failFast:   *failFast,
		study:      *studyPth,
		studyDry:   *studyDry,
		studyOut:   *studyOut,
		cpuProfile: *cpuProf,
		memProfile: *memProf,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dcat-bench:", err)
		os.Exit(1)
	}
}

type config struct {
	quick      bool
	run        string
	out        string
	list       bool
	jobs       int
	failFast   bool
	study      string
	studyDry   bool
	studyOut   string
	cpuProfile string
	memProfile string
}

func realMain(ctx context.Context, cfg config) error {
	if cfg.studyDry {
		if cfg.study == "" {
			return fmt.Errorf("-study-dry-run needs -study <file>")
		}
		f, err := study.Load(cfg.study)
		if err != nil {
			return err
		}
		fmt.Print(study.Plan(f))
		return nil
	}
	if cfg.list {
		for _, r := range experiments.All() {
			fmt.Printf("%-20s %s\n", r.ID, r.Title)
		}
		return nil
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memProfile != "" {
		defer func() {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dcat-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dcat-bench:", err)
			}
		}()
	}
	opts := experiments.Default()
	if cfg.quick {
		opts = experiments.Quick()
	}
	// opts.Jobs stays unset: RunAll attaches the shared -j worker
	// budget, so in-experiment sweeps widen onto idle slots instead of
	// multiplying the parallelism per layer.
	//
	// The study experiment exists only when -study names a study file;
	// it appends after the registry so the default output is untouched.
	// Validation happens up front (the dry-run contract: a malformed
	// file fails before any experiment runs), and the loaded file is
	// re-read by the runner so it behaves like any other experiment.
	extra := map[string]experiments.Runner{}
	if cfg.study != "" {
		if _, err := study.Load(cfg.study); err != nil {
			return err
		}
		r := experiments.StudyRunner(cfg.study, cfg.studyOut)
		extra[r.ID] = r
	}
	var runners []experiments.Runner
	if cfg.run == "" {
		runners = experiments.All()
		for _, r := range extra {
			runners = append(runners, r)
		}
	} else {
		for _, id := range strings.Split(cfg.run, ",") {
			id = strings.TrimSpace(id)
			if r, ok := extra[id]; ok {
				runners = append(runners, r)
				continue
			}
			r, err := experiments.ByID(id)
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
	}

	start := time.Now()
	results := experiments.RunAll(ctx, runners, opts, experiments.EngineConfig{
		Jobs:     cfg.jobs,
		FailFast: cfg.failFast,
		Progress: func(r experiments.RunResult) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "dcat-bench: %s failed after %.1fs: %v\n",
					r.Runner.ID, r.Elapsed.Seconds(), r.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "dcat-bench: %s done in %.1fs\n",
				r.Runner.ID, r.Elapsed.Seconds())
		},
	})
	total := time.Since(start)

	var failed []experiments.RunResult
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r)
			continue
		}
		fmt.Print(r.Output)
		if cfg.out != "" {
			path := filepath.Join(cfg.out, r.Runner.ID+".txt")
			if err := os.WriteFile(path, []byte(r.Output), 0o644); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(os.Stderr, "dcat-bench: %d experiments, %d failed, %.1fs total (j=%d)\n",
		len(results), len(failed), total.Seconds(), cfg.jobs)
	if len(failed) > 0 {
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "dcat-bench: FAILED %s: %v\n", r.Runner.ID, r.Err)
		}
		return fmt.Errorf("%d of %d experiments failed", len(failed), len(results))
	}
	return nil
}
