package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// workloadDef is one named workload. The names are the contract.
type workloadDef struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json repeats.
	Why string
	// Work is the unit throughput_per_s counts on this workload and
	// Operation the one latency_ms_p50/p90 time.
	Work      string
	Operation string
	// setup builds the rig, warm-up included; it is timed as setup_s.
	setup func(*runCtx) (instance, error)
}

// instance is one set-up rig.
type instance interface {
	// run executes the timed region and fills the end-to-end metrics,
	// attempted/failed counts, digest and verification problems.
	run(*outcome) error
	// layers computes the per-layer metrics of a traced run (extra
	// direct measurements plus span arithmetic); it runs after run.
	layers(*outcome) error
	// close releases everything the rig holds (servers, files).
	close()
}

// runCtx is what a workload's set-up sees.
type runCtx struct {
	cfg runConfig
	tr  *tracer // nil on untraced runs
	dir string  // per-run scratch directory
	// wrap reports whether the timing wrappers go in (traced runs, and
	// the tests that prove the wrappers inert).
	wrap bool
}

var workloads = []workloadDef{
	{
		Name:      "sim-steady",
		Why:       "full paper socket, 9 tenants, warm LLC: over 99% of time is workload, memsys and cache, so simulator speed-ups must show here and controller or fleet changes must not",
		Work:      "simulated accesses",
		Operation: "one interval (RunInterval+Tick)",
		setup:     setupSimSteady,
	},
	{
		Name:      "sim-churn",
		Why:       "study.Run over short churned 2-socket scenarios under 3 policies: hot-plug, departure, migration, NUMA pass and per-scenario set-up, where a steady-state gain that costs set-up shows",
		Work:      "simulated scenario-intervals",
		Operation: "one scenario",
		setup:     setupSimChurn,
	},
	{
		Name:      "ctl-phases",
		Why:       "controller alone on its deployment path (resctrl tree, journal + trace file, closed-form counters): core/policy/obs/cat do all the work, cache/memsys none; the daemon-overhead claim",
		Work:      "controller ticks, equal counts under reactive, predictive and lfoc",
		Operation: "one controller tick",
		setup:     setupCtlPhases,
	},
	{
		Name:      "fleet-ingest",
		Why:       "write path: 2 closed-loop clients play 32 agents reporting and uploading 32-event batches to coordinator + recorder (placement off): decode, registry lock, tenant rings, append+fsync",
		Work:      "events durably appended",
		Operation: "one agent report, client-observed",
		setup:     setupFleetIngest,
	},
	{
		Name:      "fleet-mixed",
		Why:       "reads beside writes with placement on: an open-loop agent stream and a closed-loop operator query mix share the recorder mutex, so queries stall uploads and placement heat stalls reports",
		Work:      "operator queries answered",
		Operation: "one recorder-backed operator query, client-observed",
		setup:     setupFleetMixed,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne sets a workload up (SetupRepeats times; the median is
// setup_s), measures its timed region once, verifies its outputs and,
// on a traced run, derives the per-layer metrics and writes the span
// file.
func runOne(cfg runConfig) (*outcome, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.SetupRepeats < 1 {
		cfg.SetupRepeats = 1
	}
	dir, err := cfg.scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{cfg: cfg, wrap: cfg.Trace || cfg.WrapOnly}
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < cfg.SetupRepeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			// Give the discarded rig back before timing the next one, so
			// every repeat starts from the same heap.
			runtime.GC()
		}
		rc.dir = filepath.Join(dir, fmt.Sprintf("rig%d", i))
		if err := os.MkdirAll(rc.dir, 0o755); err != nil {
			return nil, err
		}
		if cfg.Trace {
			rc.tr = newTracer() // spans of discarded rigs are not kept
		}
		start := time.Now()
		inst, err = w.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	out := &outcome{Workload: w.Name}
	out.set("setup_s", median(setups), len(setups))

	stopProfile, err := startCPUProfile(cfg)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rc.tr.markTimed()
	err = inst.run(out)
	runtime.ReadMemStats(&after)
	stopProfile()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if err := writeMemProfile(cfg); err != nil {
		return nil, err
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operations attempted", w.Name)
	}
	if out.Failed > 0 {
		out.problemf("%d of %d operations failed", out.Failed, out.Attempted)
	}
	if !cfg.Small {
		for _, name := range []string{"latency_ms_p50", "latency_ms_p90"} {
			if m, _ := out.get(name); m.Thin {
				out.problemf("%s rests on %d samples: fewer than %d beyond the percentile", name, m.N, minBeyond)
			}
		}
	}

	if cfg.Trace {
		if err := inst.layers(out); err != nil {
			return nil, fmt.Errorf("%s: per-layer metrics: %w", w.Name, err)
		}
		out.set("runtime.peak_rss_mb", peakRSSMB(), 0)
		out.set("runtime.heap_peak_mb", float64(after.HeapSys)/(1<<20), 0)
		out.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(out.Attempted), out.Attempted)
		out.set("runtime.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
		out.set("loadgen.ops_attempted", float64(out.Attempted), 0)
		out.set("loadgen.ops_failed", float64(out.Failed), 0)
		out.set("trace.spans", float64(rc.tr.count()), 0)
		for _, d := range perLayer {
			if _, ok := out.get(d.Name); !ok {
				out.set(d.Name, 0, 0) // layer not exercised by this workload
			}
		}
		path := filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")
		if err := rc.tr.write(path, w.Name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// startCPUProfile starts a CPU profile of the timed region when
// --cpuprofile names a directory; the returned func stops it.
func startCPUProfile(cfg runConfig) (func(), error) {
	if cfg.CPUProfile == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(cfg.CPUProfile, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.CPUProfile, cfg.Workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes an allocation profile taken right after the
// timed region when --memprofile names a directory.
func writeMemProfile(cfg runConfig) error {
	if cfg.MemProfile == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.MemProfile, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.MemProfile, cfg.Workload+".mem.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("allocs").WriteTo(f, 0)
}
