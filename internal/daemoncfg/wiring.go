package daemoncfg

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/httpstatus"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/resctrl"
	"repro/internal/telemetry"
)

// This file is the wiring dcatd and dcat-agent share: the repeated
// -group flag, the resctrl + MSR production loop, and the decision-trace
// plumbing behind -trace-file / -journal / -pprof.

// String implements flag.Value.
func (gs *Groups) String() string { return fmt.Sprintf("%d groups", len(*gs)) }

// Set implements flag.Value: one -group name=cpus@baseline occurrence.
func (gs *Groups) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=cpus@baseline, got %q", v)
	}
	cpus, baseStr, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("want name=cpus@baseline, got %q", v)
	}
	cores, err := resctrl.ParseCPUList(cpus)
	if err != nil {
		return err
	}
	if len(cores) == 0 {
		return fmt.Errorf("group %q has no cpus", name)
	}
	base, err := strconv.Atoi(baseStr)
	if err != nil || base < 1 {
		return fmt.Errorf("group %q: bad baseline %q", name, baseStr)
	}
	*gs = append(*gs, Group{Name: name, CPUs: cpus, BaselineWays: base, Cores: cores})
	return nil
}

// OpenHardware assembles the production control loop: the resctrl
// filesystem at root as the CAT backend, MSR counters programmed on
// every managed CPU, and a controller with the groups' baselines
// installed.
func OpenHardware(cfg core.Config, root, msrRoot string, groups Groups) (*core.Controller, error) {
	backend, err := resctrl.NewBackend(root)
	if err != nil {
		return nil, fmt.Errorf("opening resctrl (is it mounted?): %w", err)
	}
	counters, err := msr.Open(msr.DevFS{Root: msrRoot}, groups.AllCores())
	if err != nil {
		return nil, fmt.Errorf("programming MSR counters (is the msr module loaded?): %w", err)
	}
	mgr, err := cat.NewManager(backend)
	if err != nil {
		return nil, err
	}
	return core.New(cfg, mgr, counters, groups.Targets())
}

// Obs carries a daemon's decision-trace selections.
type Obs struct {
	TraceFile  string
	JournalLen int
	Pprof      bool
}

// ObsFlags registers -trace-file, -journal and -pprof on fs.
func ObsFlags(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.TraceFile, "trace-file", "", "append every controller decision event as JSON Lines to this file")
	fs.IntVar(&o.JournalLen, "journal", obs.DefaultJournalSize, "in-memory decision journal capacity in events (served at /debug/journal)")
	fs.BoolVar(&o.Pprof, "pprof", false, "expose /debug/pprof on the -http address")
	return o
}

// Open builds the in-memory journal and, with -trace-file, the
// continuous JSONL sink (its drop counter registered on reg). It returns
// the HTTP debug surfaces, the sink a controller should emit into, and
// a cleanup that flushes the trace file.
func (o Obs) Open(reg *telemetry.Registry) (httpstatus.Options, obs.Sink, func(), error) {
	journal := obs.NewJournal(o.JournalLen)
	opts := httpstatus.Options{Journal: journal, Metrics: reg, Pprof: o.Pprof}
	if o.TraceFile == "" {
		return opts, journal, func() {}, nil
	}
	fs, err := obs.NewFileSink(o.TraceFile)
	if err != nil {
		return httpstatus.Options{}, nil, nil, fmt.Errorf("opening trace file: %w", err)
	}
	drops := reg.Counter("dcat_trace_file_dropped_total",
		"Decision events the -trace-file sink discarded after a latched write error.")
	fs.SetOnDrop(drops.Inc)
	opts.Trace = fs
	return opts, obs.Multi(journal, fs), func() { _ = fs.Close() }, nil
}
