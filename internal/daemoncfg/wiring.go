package daemoncfg

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/httpstatus"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/resctrl"
	"repro/internal/telemetry"
)

// This file is the daemons' wiring: the flags that fill a File, the
// resctrl + MSR production loop a File opens, and the decision-trace
// plumbing behind -trace-file / -journal / -pprof that dcatd and
// dcat-coord share.

// FileFlags registers on fs the flags that express a File — -resctrl,
// -msr, -period, -policy, -alloc-policy, -http and the repeated -group —
// plus -config, which names a JSON file to load in their place. The
// returned function, called after fs.Parse, yields the validated File
// from whichever source was used; setting both -config and a flag the
// file owns is an error, so no flag is ever silently dropped.
func FileFlags(fs *flag.FlagSet) func() (*File, error) {
	var f File
	fs.StringVar(&f.ResctrlRoot, "resctrl", resctrl.DefaultRoot, "resctrl filesystem root")
	fs.StringVar(&f.MSRRoot, "msr", "/dev/cpu", "msr device root")
	fs.DurationVar(&f.PeriodDuration, "period", time.Second, "controller period")
	fs.StringVar(&f.Policy, "policy", "fair", "allocation policy: fair|perf")
	fs.StringVar(&f.AllocPolicy, "alloc-policy", "", "pluggable allocation engine: reactive|predictive|lfoc (\"\" = reactive)")
	fs.StringVar(&f.HTTP, "http", "", "serve /status, /metrics, /healthz on this address (e.g. :9090)")
	fs.Var(&f.Groups, "group", "managed group as name=cpus@baseline (repeatable)")
	conf := fs.String("config", "", "JSON configuration file, in place of -resctrl -msr -period -policy -alloc-policy -http -group")
	return func() (*File, error) {
		if *conf == "" {
			f.Period = f.PeriodDuration.String()
			return &f, f.validate()
		}
		var clash []string
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "resctrl", "msr", "period", "policy", "alloc-policy", "http", "group":
				clash = append(clash, "-"+fl.Name)
			}
		})
		if len(clash) > 0 {
			return nil, fmt.Errorf("daemoncfg: -config replaces %s; set it in %s or drop -config",
				strings.Join(clash, " "), *conf)
		}
		return Load(*conf)
	}
}

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
	base, err := strconv.Atoi(baseStr)
	if err != nil {
		return fmt.Errorf("group %q: bad baseline %q", name, baseStr)
	}
	// The whole set is re-checked, so a duplicate name or a CPU already
	// in an earlier -group fails here, at flag parsing, exactly as it
	// does in a configuration file.
	next := append(*gs, Group{Name: name, CPUs: cpus, BaselineWays: base})
	if err := next.validate(); err != nil {
		return err
	}
	*gs = next
	return nil
}

// OpenHardware assembles the production control loop: the resctrl
// filesystem as the CAT backend, MSR counters programmed on every
// managed CPU, and the groups' baselines installed. It is a controller
// of one loop — the type every simulated host runs under — because
// resctrl.Backend steers one CAT domain.
func (f *File) OpenHardware() (*core.Controller, error) {
	cfg, err := f.ControllerConfig()
	if err != nil {
		return nil, err
	}
	backend, err := resctrl.NewBackend(f.ResctrlRoot)
	if err != nil {
		return nil, fmt.Errorf("opening resctrl (is it mounted?): %w", err)
	}
	counters, err := msr.Open(msr.DevFS{Root: f.MSRRoot}, f.Groups.AllCores())
	if err != nil {
		return nil, fmt.Errorf("programming MSR counters (is the msr module loaded?): %w", err)
	}
	mgr, err := cat.NewManager(backend)
	if err != nil {
		return nil, err
	}
	return core.NewMulti(cfg, counters, []core.SocketSpec{{Mgr: mgr, Targets: f.Groups.Targets()}})
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
	fs.StringVar(&o.TraceFile, "trace-file", "", "append every decision event as JSON Lines to this file")
	fs.IntVar(&o.JournalLen, "journal", obs.DefaultJournalSize, "in-memory decision journal capacity in events (served at /debug/journal)")
	fs.BoolVar(&o.Pprof, "pprof", false, "expose /debug/pprof on the HTTP listen address")
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
