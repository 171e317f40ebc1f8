// Command dcatd is the dCat daemon: every period it samples per-core
// performance counters, runs the controller's five steps, and applies
// the resulting cache partitioning through the resctrl filesystem.
//
// Hardware mode (Linux with resctrl mounted and the msr module loaded;
// requires root):
//
//	dcatd -group web=0-3@4 -group batch=4-7@2 -period 1s
//
// Demo mode builds a mock resctrl tree and a simulated socket (MLR +
// MLOAD + lookbusy tenants), then runs the very same control loop
// against it — watch the schemata files change under the tree root:
//
//	dcatd -demo -intervals 25
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/daemoncfg"
	"repro/internal/httpstatus"
	allocpolicy "repro/internal/policy"
	"repro/internal/resctrl"
	"repro/internal/telemetry"
)

// attach wires the decision-trace journal (plus the optional continuous
// JSONL trace file) and a fresh metrics registry into the controller,
// and returns the HTTP surfaces plus a cleanup that flushes the trace.
func attach(ob daemoncfg.Obs, ctl *dcat.Controller) (httpstatus.Options, func(), error) {
	reg := telemetry.NewRegistry()
	opts, sink, closeTrace, err := ob.Open(reg)
	if err != nil {
		return httpstatus.Options{}, nil, err
	}
	ctl.SetSink(sink)
	ctl.RegisterMetrics(reg)
	return opts, closeTrace, nil
}

func main() {
	var groups daemoncfg.Groups
	var (
		root      = flag.String("resctrl", resctrl.DefaultRoot, "resctrl filesystem root")
		msrRoot   = flag.String("msr", "/dev/cpu", "msr device root")
		period    = flag.Duration("period", time.Second, "controller period")
		policy    = flag.String("policy", "fair", "allocation policy: fair|perf")
		allocPol  = flag.String("alloc-policy", "", "pluggable allocation engine: reactive|predictive|lfoc (\"\" = reactive)")
		demo      = flag.Bool("demo", false, "run against a mock resctrl tree and a simulated socket")
		demoDir   = flag.String("demo-dir", "", "mock tree location (default: temp dir)")
		intervals = flag.Int("intervals", 30, "demo length in periods (0 = until interrupted)")
		httpAddr  = flag.String("http", "", "serve /status, /metrics, /healthz on this address (e.g. :9090)")
		confPath  = flag.String("config", "", "JSON configuration file (hardware mode; overrides the flags above)")
	)
	ob := daemoncfg.ObsFlags(flag.CommandLine)
	flag.Var(&groups, "group", "managed group as name=cpus@baseline (repeatable)")
	flag.Parse()

	cfg := dcat.DefaultConfig()
	switch *policy {
	case "fair":
		cfg.Policy = dcat.MaxFairness
	case "perf":
		cfg.Policy = dcat.MaxPerformance
	default:
		fmt.Fprintf(os.Stderr, "dcatd: unknown policy %q\n", *policy)
		os.Exit(1)
	}
	if *allocPol != "" {
		factory, err := allocpolicy.New(*allocPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcatd:", err)
			os.Exit(1)
		}
		cfg.NewPolicy = factory
	}

	// SIGINT/SIGTERM cancel the context; every run path winds down at
	// the next tick and shuts its HTTP server down gracefully instead
	// of dying mid-tick.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *confPath != "":
		err = runFromConfig(ctx, *confPath, *ob)
	case *demo:
		err = runDemo(ctx, cfg, *demoDir, *intervals, *httpAddr, *ob)
	default:
		err = runHardware(ctx, cfg, *root, *msrRoot, *period, groups, *httpAddr, *ob)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dcatd:", err)
		os.Exit(1)
	}
}

// runFromConfig runs hardware mode from a JSON configuration file.
func runFromConfig(ctx context.Context, path string, ob daemoncfg.Obs) error {
	f, err := daemoncfg.Load(path)
	if err != nil {
		return err
	}
	cfg, err := f.ControllerConfig()
	if err != nil {
		return err
	}
	return runHardware(ctx, cfg, f.ResctrlRoot, f.MSRRoot, f.PeriodDuration, f.Groups, f.HTTP, ob)
}

// runHardware is the production loop: resctrl backend + MSR counters.
func runHardware(ctx context.Context, cfg dcat.Config, root, msrRoot string, period time.Duration, groups daemoncfg.Groups, httpAddr string, ob daemoncfg.Obs) error {
	if len(groups) == 0 {
		return fmt.Errorf("no -group flags; nothing to manage")
	}
	ctl, err := daemoncfg.OpenHardware(cfg, root, msrRoot, groups)
	if err != nil {
		return err
	}
	opts, closeTrace, err := attach(ob, ctl)
	if err != nil {
		return err
	}
	defer closeTrace()
	var mu sync.Mutex
	stopHTTP := serveStatus(httpAddr, ctl, &mu, opts)
	defer stopHTTP()

	ticker := time.NewTicker(period)
	defer ticker.Stop()
	fmt.Printf("dcatd: managing %d groups on %s every %s\n", len(groups), root, period)
	for {
		select {
		case <-ctx.Done():
			fmt.Println("dcatd: shutting down")
			return nil
		case <-ticker.C:
			mu.Lock()
			err := ctl.Tick()
			snap := ctl.Snapshot()
			mu.Unlock()
			if err != nil {
				return err
			}
			logSnapshot(snap)
		}
	}
}

// runDemo exercises the identical control path against a mock tree fed
// by the simulator.
func runDemo(ctx context.Context, cfg dcat.Config, dir string, intervals int, httpAddr string, ob daemoncfg.Obs) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "dcatd-demo-*")
		if err != nil {
			return err
		}
	}
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		return err
	}
	rcBackend, err := dcat.NewResctrlBackend(dir)
	if err != nil {
		return err
	}
	sim, err := dcat.NewSimulation(dcat.SimConfig{})
	if err != nil {
		return err
	}
	simBackend, err := sim.SimBackend()
	if err != nil {
		return err
	}
	// Mirror: the mock tree gets real schemata writes while the
	// simulator's LLC actually enforces them.
	backend, err := dcat.MirrorBackend(rcBackend, simBackend)
	if err != nil {
		return err
	}
	mlr, err := sim.NewMLR(8<<20, 1)
	if err != nil {
		return err
	}
	mload, err := sim.NewMLOAD(60 << 20)
	if err != nil {
		return err
	}
	lb, err := sim.NewLookbusy()
	if err != nil {
		return err
	}
	for _, vm := range []struct {
		name string
		w    dcat.Workload
	}{{"mlr", mlr}, {"mload", mload}, {"lookbusy", lb}} {
		if err := sim.AddVM(vm.name, 2, vm.w); err != nil {
			return err
		}
	}
	var targets []dcat.Target
	for _, vm := range sim.Host().VMs() {
		targets = append(targets, dcat.Target{Name: vm.Name, Cores: vm.Cores, BaselineWays: 3})
	}
	ctl, err := dcat.NewController(cfg, backend, sim.Host().System().Counters(), targets)
	if err != nil {
		return err
	}
	opts, closeTrace, err := attach(ob, ctl)
	if err != nil {
		return err
	}
	defer closeTrace()
	var mu sync.Mutex
	stopHTTP := serveStatus(httpAddr, ctl, &mu, opts)
	defer stopHTTP()
	fmt.Printf("dcatd demo: mock resctrl tree at %s\n", dir)
	for i := 1; intervals == 0 || i <= intervals; i++ {
		if ctx.Err() != nil {
			fmt.Println("dcatd: shutting down")
			return nil
		}
		sim.Host().RunInterval()
		mu.Lock()
		err := ctl.Tick()
		snap := ctl.Snapshot()
		mu.Unlock()
		if err != nil {
			return err
		}
		logSnapshot(snap)
	}
	fmt.Println("schemata files after the run:")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "cos") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), "schemata"))
		if err != nil {
			return err
		}
		fmt.Printf("  %s/schemata: %s", e.Name(), data)
	}
	return nil
}

// serveStatus starts the HTTP status server when addr is set; the
// returned function shuts it down.
func serveStatus(addr string, ctl *dcat.Controller, mu *sync.Mutex, opts httpstatus.Options) func() {
	if addr == "" {
		return func() {}
	}
	src := httpstatus.Locked{Src: ctl, Do: func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	}}
	srv := httpstatus.ServeOpts(addr, src, opts)
	fmt.Printf("dcatd: status on http://%s/status\n", addr)
	return func() {
		// Graceful shutdown: let in-flight scrapes finish.
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}
}

func logSnapshot(snap []dcat.Status) {
	parts := make([]string, 0, len(snap))
	for _, st := range snap {
		parts = append(parts, fmt.Sprintf("%s=%d(%s)", st.Name, st.Ways, st.State))
	}
	fmt.Printf("%s  %s\n", time.Now().Format("15:04:05"), strings.Join(parts, " "))
}
