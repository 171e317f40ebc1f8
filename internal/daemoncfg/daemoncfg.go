// Package daemoncfg is dcatd's configuration: one File — the managed
// groups, the controller period, policy and thresholds, and the listen
// address — filled either from a JSON file or from the command-line
// flags that express the same fields, validated by one check, and
// turned into a controller configuration in one place. wiring.go holds
// the flags themselves, the resctrl + MSR loop a File opens, and the
// decision-trace flags dcatd and dcat-coord share.
//
// Example:
//
//	{
//	  "resctrl_root": "/sys/fs/resctrl",
//	  "msr_root": "/dev/cpu",
//	  "period": "1s",
//	  "policy": "max-performance",
//	  "http": ":9090",
//	  "thresholds": {
//	    "llc_miss_rate": 0.03,
//	    "ipc_improvement": 0.05,
//	    "phase_change": 0.10,
//	    "streaming_multiplier": 3
//	  },
//	  "groups": [
//	    {"name": "web", "cpus": "0-3", "baseline_ways": 4},
//	    {"name": "batch", "cpus": "4-7", "baseline_ways": 2}
//	  ]
//	}
package daemoncfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/resctrl"
)

// Group is one managed tenant.
type Group struct {
	Name         string `json:"name"`
	CPUs         string `json:"cpus"`
	BaselineWays int    `json:"baseline_ways"`

	// Cores is CPUs parsed; populated by validation.
	Cores []int `json:"-"`
}

// Groups is the managed tenant set, from the configuration file or from
// repeated -group flags (it implements flag.Value).
type Groups []Group

// Thresholds overrides the paper's controller constants; zero fields
// keep the defaults.
type Thresholds struct {
	LLCMissRate         float64 `json:"llc_miss_rate"`
	IPCImprovement      float64 `json:"ipc_improvement"`
	PhaseChange         float64 `json:"phase_change"`
	StreamingMultiplier int     `json:"streaming_multiplier"`
	GrowthStep          int     `json:"growth_step"`
}

// File is the parsed configuration.
type File struct {
	ResctrlRoot string `json:"resctrl_root"`
	MSRRoot     string `json:"msr_root"`
	Period      string `json:"period"`
	Policy      string `json:"policy"`
	// AllocPolicy selects the pluggable allocation engine (reactive,
	// predictive, lfoc); "" keeps the stock reactive allocator. Distinct
	// from Policy, which picks the §3.5 fairness/performance objective
	// the reactive stages optimize for.
	AllocPolicy string     `json:"alloc_policy"`
	HTTP        string     `json:"http"`
	Thresholds  Thresholds `json:"thresholds"`
	Groups      Groups     `json:"groups"`

	// PeriodDuration is Period parsed; populated by validation.
	PeriodDuration time.Duration `json:"-"`
}

// Load reads and validates a configuration file.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("daemoncfg: %w", err)
	}
	return Parse(raw)
}

// Parse validates configuration bytes.
func Parse(raw []byte) (*File, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("daemoncfg: parsing: %w", err)
	}
	if len(f.Groups) == 0 {
		return nil, fmt.Errorf("daemoncfg: no groups")
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// validate applies the defaults and checks every field, whichever
// source filled them; an empty group set passes (-demo manages none).
func (f *File) validate() error {
	if f.ResctrlRoot == "" {
		f.ResctrlRoot = resctrl.DefaultRoot
	}
	if f.MSRRoot == "" {
		f.MSRRoot = "/dev/cpu"
	}
	if f.Period == "" {
		f.Period = "1s"
	}
	d, err := time.ParseDuration(f.Period)
	if err != nil || d <= 0 {
		return fmt.Errorf("daemoncfg: bad period %q", f.Period)
	}
	f.Period, f.PeriodDuration = d.String(), d
	switch f.Policy {
	case "", "max-fairness", "fair":
		f.Policy = "max-fairness"
	case "max-performance", "perf":
		f.Policy = "max-performance"
	default:
		return fmt.Errorf("daemoncfg: unknown policy %q", f.Policy)
	}
	if !policy.Known(f.AllocPolicy) {
		return fmt.Errorf("daemoncfg: unknown alloc_policy %q (have: %s)",
			f.AllocPolicy, strings.Join(policy.Names(), ", "))
	}
	if err := f.Groups.validate(); err != nil {
		return fmt.Errorf("daemoncfg: %w", err)
	}
	_, err = f.ControllerConfig()
	return err
}

// validate parses every group's CPU list into Cores and rejects what
// no controller could manage: an unnamed or twice-named group, an empty
// or malformed CPU list, a CPU in two groups, a baseline below one way.
func (gs Groups) validate() error {
	seenName := map[string]bool{}
	seenCore := map[int]string{}
	for i := range gs {
		g := &gs[i]
		if g.Name == "" {
			return fmt.Errorf("group %d has no name", i)
		}
		if seenName[g.Name] {
			return fmt.Errorf("duplicate group %q", g.Name)
		}
		seenName[g.Name] = true
		cores, err := resctrl.ParseCPUList(g.CPUs)
		if err != nil {
			return fmt.Errorf("group %q: %w", g.Name, err)
		}
		if len(cores) == 0 {
			return fmt.Errorf("group %q has no cpus", g.Name)
		}
		for _, c := range cores {
			if owner, dup := seenCore[c]; dup {
				return fmt.Errorf("cpu %d in both %q and %q", c, owner, g.Name)
			}
			seenCore[c] = g.Name
		}
		g.Cores = cores
		if g.BaselineWays < 1 {
			return fmt.Errorf("group %q: baseline_ways %d below 1", g.Name, g.BaselineWays)
		}
	}
	return nil
}

// ControllerConfig converts the policy, allocation engine and
// thresholds into a validated controller configuration — the one place
// -policy / -alloc-policy and their JSON fields become a core.Config.
func (f *File) ControllerConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	if f.Policy == "max-performance" {
		cfg.Policy = core.MaxPerformance
	}
	if f.AllocPolicy != "" {
		factory, err := policy.New(f.AllocPolicy)
		if err != nil {
			return core.Config{}, fmt.Errorf("daemoncfg: %w", err)
		}
		cfg.NewPolicy = factory
	}
	t := f.Thresholds
	if t.LLCMissRate != 0 {
		cfg.LLCMissRateThr = t.LLCMissRate
	}
	if t.IPCImprovement != 0 {
		cfg.IPCImpThr = t.IPCImprovement
	}
	if t.PhaseChange != 0 {
		cfg.PhaseThr = t.PhaseChange
	}
	if t.StreamingMultiplier != 0 {
		cfg.StreamingMult = t.StreamingMultiplier
	}
	if t.GrowthStep != 0 {
		cfg.GrowthStep = t.GrowthStep
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("daemoncfg: %w", err)
	}
	return cfg, nil
}

// Targets converts the groups into controller targets.
func (gs Groups) Targets() []core.Target {
	out := make([]core.Target, len(gs))
	for i, g := range gs {
		out[i] = core.Target{Name: g.Name, Cores: g.Cores, BaselineWays: g.BaselineWays}
	}
	return out
}

// AllCores returns every managed CPU.
func (gs Groups) AllCores() []int {
	var out []int
	for _, g := range gs {
		out = append(out, g.Cores...)
	}
	return out
}
