// Package study is the scenario harness: a declarative format that
// sweeps fleet size × topology × workload mix × arrival pattern over a
// base configuration, expanding into many concrete scenarios that each
// run the full host/NUMA/controller/placement stack under
// production-shaped load — RPS curves driving phase changes and
// synthetic tenant churn driving the hot-plug, departure, and
// migration paths.
//
// A study file is JSON (parsed with the same strict discipline as the
// cluster protocol: unknown fields and trailing garbage rejected) and
// is fully validated before anything runs, so `dcat-bench -study
// studies.json -study-dry-run` can vet an operator's sweep without
// simulating a single interval. Each expanded scenario is
// seed-isolated — it builds its own host, memory system, controllers,
// and workloads — so scenarios fan out over the experiment engine's
// worker pool and still render a byte-identical cross-study table at
// any parallelism.
package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/memsys"
	"repro/internal/policy"
)

// File is one parsed study file: a base configuration plus the studies
// sweeping over it.
type File struct {
	// Name labels the suite; result directories live under it.
	Name string `json:"name"`
	Base Base   `json:"base"`
	// Studies are expanded in order; scenario seeds derive from the
	// base seed and the scenario's global index, so adding a study at
	// the end never perturbs the ones before it.
	Studies []Study `json:"studies"`
}

// Base is the configuration every scenario starts from. Zero fields
// take defaults (see Normalize).
type Base struct {
	// Cycles is each core's cycle budget per controller interval.
	Cycles uint64 `json:"cycles"`
	// Intervals is the default run length per scenario.
	Intervals int `json:"intervals"`
	// Seed drives frame placement, workload randomness, and the
	// arrival curves.
	Seed int64 `json:"seed"`
	// Machine picks the per-socket geometry: "xeon-e5" (18 cores,
	// 20-way 45 MB LLC, the default) or "xeon-d" (8 cores, 12-way
	// 12 MB).
	Machine string `json:"machine"`
	// MemMBPerSocket sizes each socket's DRAM range in megabytes.
	MemMBPerSocket int `json:"mem_mb_per_socket"`
	// RemotePenalty is the cross-socket DRAM penalty in cycles; 0
	// keeps the host's default on multi-socket scenarios.
	RemotePenalty uint64 `json:"remote_penalty"`
	// ArrivalGraceTicks overrides core.Config.ArrivalGraceTicks for
	// every scenario's controllers; nil keeps the default, 0 disables
	// the grace (for ablations).
	ArrivalGraceTicks *int `json:"arrival_grace_ticks"`
	// BaselineWays is each swept tenant's contracted allocation
	// (anchors always get 1). Default 2.
	BaselineWays int `json:"baseline_ways"`
}

// Study is one sweep: the cartesian product of its axes becomes the
// scenario list, every scenario sharing the study's churn and
// placement settings.
type Study struct {
	// Name labels the study; its result directory and table rows use
	// it, so it must be filesystem-safe ([a-zA-Z0-9._-]).
	Name string `json:"name"`
	// Fleet is the tenant-count axis (anchors excluded).
	Fleet []int `json:"fleet"`
	// Sockets is the topology axis.
	Sockets []int `json:"sockets"`
	// Mixes is the workload-mix axis; see Mixes for the registry.
	Mixes []string `json:"mixes"`
	// Arrivals is the arrival-pattern axis: "steady", "poisson",
	// "bursty", or "diurnal". The pattern shapes both every tenant's
	// RPS curve (driving phase changes through the counters) and the
	// churn arrival schedule.
	Arrivals []string `json:"arrivals"`
	// Policies is the allocation-policy axis: controller policy names
	// from the policy registry ("reactive", "predictive", "lfoc").
	// Empty keeps the stock reactive allocator and adds no axis — the
	// scenario IDs of existing studies never change.
	Policies []string `json:"policies"`
	// Churn generates synthetic tenant arrivals/departures mid-run;
	// the zero value disables it.
	Churn Churn `json:"churn"`
	// Placement runs the fleet placement engine over the scenario,
	// executing its move directives as live migrations.
	Placement bool `json:"placement"`
	// Intervals overrides the base run length for this study.
	Intervals int `json:"intervals"`
}

// Churn configures synthetic tenant churn. Arrivals follow the
// scenario's arrival curve: each interval accrues credit equal to the
// curve level, and every ArrivalsEvery credit one tenant arrives — so
// a bursty curve clusters arrivals the way a bursty queue would.
type Churn struct {
	// ArrivalsEvery is the credit one arrival costs; 0 disables churn.
	ArrivalsEvery int `json:"arrivals_every"`
	// Lifetime is how many intervals a churned tenant runs before
	// departing; 0 means churned tenants stay to the end.
	Lifetime int `json:"lifetime"`
	// MaxLive caps concurrently alive churned tenants (default 4);
	// arrivals beyond it are rejected and counted, not queued.
	MaxLive int `json:"max_live"`
	// MigrateEvery live-migrates the longest-lived tenant to the next
	// socket every N intervals (multi-socket scenarios only); 0
	// disables it.
	MigrateEvery int `json:"migrate_every"`
}

// Enabled reports whether the study generates churn at all.
func (c Churn) Enabled() bool { return c.ArrivalsEvery > 0 }

// Defaults, bounds, and the axis registries.
const (
	DefaultCycles    = 4_000_000
	DefaultIntervals = 20
	DefaultMemMB     = 1024
	DefaultBaseline  = 2
	DefaultMaxLive   = 4

	MinCycles    = 200_000
	MinIntervals = 4
	MinMemMB     = 64
	// MaxScenarios bounds a file's expansion so a fat-fingered sweep
	// is a validation error, not an accidental week of simulation.
	MaxScenarios = 512
)

// Arrivals returns the known arrival patterns, sorted.
func Arrivals() []string { return []string{"bursty", "diurnal", "poisson", "steady"} }

// Machines returns the known machine geometries, sorted.
func Machines() []string { return []string{"xeon-d", "xeon-e5"} }

// machineConfig resolves a machine name (post-validation).
func machineConfig(name string) memsys.Config {
	if name == "xeon-d" {
		return memsys.XeonD()
	}
	return memsys.XeonE5()
}

// Parse decodes study-file bytes strictly: unknown fields, trailing
// data, and malformed JSON are errors, never a partially-applied
// config. The result is normalized and validated.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("study: decoding file: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("study: trailing data after study file")
	}
	f.Normalize()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and parses a study file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("study: %s: %w", path, err)
	}
	return f, nil
}

// Normalize fills defaulted fields in place. It never overrides an
// explicit value.
func (f *File) Normalize() {
	if f.Base.Cycles == 0 {
		f.Base.Cycles = DefaultCycles
	}
	if f.Base.Intervals == 0 {
		f.Base.Intervals = DefaultIntervals
	}
	if f.Base.Seed == 0 {
		f.Base.Seed = 1
	}
	if f.Base.Machine == "" {
		f.Base.Machine = "xeon-e5"
	}
	if f.Base.MemMBPerSocket == 0 {
		f.Base.MemMBPerSocket = DefaultMemMB
	}
	if f.Base.BaselineWays == 0 {
		f.Base.BaselineWays = DefaultBaseline
	}
	for i := range f.Studies {
		st := &f.Studies[i]
		if st.Intervals == 0 {
			st.Intervals = f.Base.Intervals
		}
		if st.Churn.Enabled() && st.Churn.MaxLive == 0 {
			st.Churn.MaxLive = DefaultMaxLive
		}
	}
}

// nameOK vets a study/file name for use as a directory component.
func nameOK(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return s != "." && s != ".."
}

// Validate rejects studies that could not run, with messages naming
// the offending study and axis — the dry-run contract is that every
// malformed file fails here, before any simulation starts.
func (f *File) Validate() error {
	if !nameOK(f.Name) {
		return fmt.Errorf("study: file name %q must be 1-64 chars of [a-zA-Z0-9._-]", f.Name)
	}
	if len(f.Studies) == 0 {
		return fmt.Errorf("study: file %q has no studies", f.Name)
	}
	if err := f.Base.validate(); err != nil {
		return err
	}
	mem := machineConfig(f.Base.Machine)
	seen := make(map[string]bool, len(f.Studies))
	total := 0
	for i := range f.Studies {
		st := &f.Studies[i]
		where := fmt.Sprintf("study %d (%q)", i, st.Name)
		if !nameOK(st.Name) {
			return fmt.Errorf("study: study %d name %q must be 1-64 chars of [a-zA-Z0-9._-]", i, st.Name)
		}
		if seen[st.Name] {
			return fmt.Errorf("study: duplicate study name %q", st.Name)
		}
		seen[st.Name] = true
		if len(st.Fleet) == 0 || len(st.Sockets) == 0 || len(st.Mixes) == 0 || len(st.Arrivals) == 0 {
			return fmt.Errorf("study: %s: every axis needs at least one value (fleet/sockets/mixes/arrivals)", where)
		}
		if st.Intervals < MinIntervals {
			return fmt.Errorf("study: %s: intervals %d below minimum %d", where, st.Intervals, MinIntervals)
		}
		for _, n := range st.Fleet {
			if n < 1 {
				return fmt.Errorf("study: %s: fleet size %d must be >= 1", where, n)
			}
		}
		for _, s := range st.Sockets {
			if s < 1 || s > memsys.MaxSockets {
				return fmt.Errorf("study: %s: sockets %d out of range [1,%d]", where, s, memsys.MaxSockets)
			}
		}
		for _, m := range st.Mixes {
			if _, ok := mixes[m]; !ok {
				return fmt.Errorf("study: %s: unknown mix %q (have: %s)", where, m, knownList(Mixes()))
			}
		}
		for _, a := range st.Arrivals {
			if !known(Arrivals(), a) {
				return fmt.Errorf("study: %s: unknown arrival pattern %q (have: %s)", where, a, knownList(Arrivals()))
			}
		}
		for _, p := range st.Policies {
			if p == "" || !policy.Known(p) {
				return fmt.Errorf("study: %s: unknown allocation policy %q (have: %s)",
					where, p, knownList(policy.Names()))
			}
		}
		if err := st.Churn.validate(where); err != nil {
			return err
		}
		// Capacity: the worst-packed socket must fit its share of the
		// fleet plus the anchor plus every live churned tenant — in
		// cores (one per tenant) and in contracted baseline ways.
		for _, fleet := range st.Fleet {
			for _, sockets := range st.Sockets {
				perSocket := (fleet + sockets - 1) / sockets
				worst := perSocket + 1 + st.Churn.MaxLive // +1 anchor; churn lands anywhere
				if worst > mem.Cores {
					return fmt.Errorf("study: %s: fleet %d on %d socket(s) needs %d cores on the fullest socket, %s has %d",
						where, fleet, sockets, worst, f.Base.Machine, mem.Cores)
				}
				ways := perSocket*f.Base.BaselineWays + 1 + st.Churn.MaxLive*f.Base.BaselineWays
				if ways > mem.LLC.Ways {
					return fmt.Errorf("study: %s: fleet %d on %d socket(s) contracts %d baseline ways on the fullest socket, %s has %d",
						where, fleet, sockets, ways, f.Base.Machine, mem.LLC.Ways)
				}
				// Memory: every co-resident working set (4 KB frames come
				// from the bottom half of a socket's range) must fit.
				need := uint64(worst) * mixMaxWS(st.Mixes)
				have := uint64(f.Base.MemMBPerSocket) << 20 / 2
				if need > have {
					return fmt.Errorf("study: %s: fleet %d on %d socket(s) may map %d MB of working sets per socket, only %d MB of 4K frames available (raise mem_mb_per_socket)",
						where, fleet, sockets, need>>20, have>>20)
				}
			}
		}
		npol := len(st.Policies)
		if npol == 0 {
			npol = 1
		}
		total += len(st.Fleet) * len(st.Sockets) * len(st.Mixes) * len(st.Arrivals) * npol
	}
	if total > MaxScenarios {
		return fmt.Errorf("study: file expands to %d scenarios, maximum %d", total, MaxScenarios)
	}
	return nil
}

func (b Base) validate() error {
	if b.Cycles < MinCycles {
		return fmt.Errorf("study: base cycles %d below minimum %d", b.Cycles, MinCycles)
	}
	if b.Intervals < MinIntervals {
		return fmt.Errorf("study: base intervals %d below minimum %d", b.Intervals, MinIntervals)
	}
	if !known(Machines(), b.Machine) {
		return fmt.Errorf("study: unknown machine %q (have: %s)", b.Machine, knownList(Machines()))
	}
	if b.MemMBPerSocket < MinMemMB {
		return fmt.Errorf("study: mem_mb_per_socket %d below minimum %d", b.MemMBPerSocket, MinMemMB)
	}
	if b.ArrivalGraceTicks != nil && *b.ArrivalGraceTicks < 0 {
		return fmt.Errorf("study: arrival_grace_ticks %d must be >= 0", *b.ArrivalGraceTicks)
	}
	if b.BaselineWays < 1 {
		return fmt.Errorf("study: baseline_ways %d must be >= 1", b.BaselineWays)
	}
	return nil
}

func (c Churn) validate(where string) error {
	if c.ArrivalsEvery < 0 || c.Lifetime < 0 || c.MaxLive < 0 || c.MigrateEvery < 0 {
		return fmt.Errorf("study: %s: churn fields must be >= 0", where)
	}
	if !c.Enabled() && (c.Lifetime > 0 || c.MigrateEvery > 0 || c.MaxLive > 0) {
		return fmt.Errorf("study: %s: churn needs arrivals_every > 0", where)
	}
	return nil
}

func known(list []string, v string) bool {
	for _, k := range list {
		if k == v {
			return true
		}
	}
	return false
}

func knownList(list []string) string {
	sort.Strings(list)
	out := ""
	for i, k := range list {
		if i > 0 {
			out += ", "
		}
		out += k
	}
	return out
}

// Scenario is one fully-resolved point of a study's sweep; it carries
// everything Run needs, so scenarios execute independently of the File
// they came from.
type Scenario struct {
	Study string
	ID    string // e.g. "f4-s2-mlr-poisson"
	Index int    // global index across the file, the seed offset
	Seed  int64

	Fleet   int
	Sockets int
	Mix     string
	Arrival string
	// Policy is the allocation-policy axis value ("" = stock reactive).
	Policy   string
	Machine  string
	Cycles   uint64
	MemBytes uint64 // per socket
	Remote   uint64

	Intervals int
	Grace     *int
	Baseline  int
	Churn     Churn
	Placement bool
}

// Expand resolves the file into its concrete scenario list, in
// deterministic axis order (fleet, then sockets, then mix, then
// arrival, then policy) per study. The policy axis only appears in a
// scenario's ID when the study sets one, so pre-policy study files
// expand to the exact same IDs and seeds as before.
func (f *File) Expand() []Scenario {
	var out []Scenario
	for _, st := range f.Studies {
		policies := st.Policies
		if len(policies) == 0 {
			policies = []string{""}
		}
		for _, fleet := range st.Fleet {
			for _, sockets := range st.Sockets {
				for _, mix := range st.Mixes {
					for _, arrival := range st.Arrivals {
						for _, pol := range policies {
							idx := len(out)
							id := fmt.Sprintf("f%d-s%d-%s-%s", fleet, sockets, mix, arrival)
							if pol != "" {
								id += "-" + pol
							}
							out = append(out, Scenario{
								Study:     st.Name,
								ID:        id,
								Index:     idx,
								Seed:      f.Base.Seed + int64(idx)*1009,
								Fleet:     fleet,
								Sockets:   sockets,
								Mix:       mix,
								Arrival:   arrival,
								Policy:    pol,
								Machine:   f.Base.Machine,
								Cycles:    f.Base.Cycles,
								MemBytes:  uint64(f.Base.MemMBPerSocket) << 20,
								Remote:    f.Base.RemotePenalty,
								Intervals: st.Intervals,
								Grace:     f.Base.ArrivalGraceTicks,
								Baseline:  f.Base.BaselineWays,
								Churn:     st.Churn,
								Placement: st.Placement,
							})
						}
					}
				}
			}
		}
	}
	return out
}
