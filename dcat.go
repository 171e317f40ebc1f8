// Package dcat is the public API of this dCat reproduction: dynamic
// last-level-cache management on top of Intel CAT, after "dCat:
// Dynamic Cache Management for Efficient, Performance-sensitive
// Infrastructure-as-a-Service" (EuroSys 2018).
//
// Two ways to use it:
//
//   - Controller + a CAT backend. On hardware with resctrl mounted,
//     NewResctrlBackend drives the real kernel interface; you supply a
//     CounterReader for the five §3.2 perf events. Everywhere else,
//     the simulated backend below stands in.
//
//   - Simulation. NewSimulation builds the paper's evaluation machine
//     (a Xeon E5-2697 v4 socket) in software: set-associative inclusive
//     LLC with way masks, per-core L1s, perf counters, VMs pinned to
//     dedicated cores, and the controller on top. The examples/ and the
//     benchmark harness are built on this.
package dcat

import (
	"fmt"
	"os"

	"repro/internal/addr"
	"repro/internal/bits"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/perf"
	"repro/internal/resctrl"
	"repro/internal/workload"
)

// Re-exported controller types: the heart of the paper.
type (
	// Config holds the controller thresholds (§3.2, §5.1).
	Config = core.Config
	// Policy selects max-fairness or max-performance allocation (§3.5).
	Policy = core.Policy
	// State is a workload's cache-utilization category (§3.4).
	State = core.State
	// Target describes one managed workload and its contracted ways.
	Target = core.Target
	// Status is a workload's externally visible controller state.
	Status = core.Status
	// Controller is the dCat daemon loop.
	Controller = core.Controller
	// MultiController is a host's controller set: one dCat loop per
	// socket (CAT domains are per-LLC), a set of one on a one-socket host.
	MultiController = core.MultiController
	// PerfTable is a per-phase ways → normalized-IPC table (§3.5).
	PerfTable = core.PerfTable
)

// Policies (§3.5).
const (
	MaxFairness    = core.MaxFairness
	MaxPerformance = core.MaxPerformance
)

// Workload categories (§3.4).
const (
	StateKeeper    = core.StateKeeper
	StateDonor     = core.StateDonor
	StateReceiver  = core.StateReceiver
	StateStreaming = core.StateStreaming
	StateUnknown   = core.StateUnknown
	StateReclaim   = core.StateReclaim
)

// Backend applies classes of service to hardware (or a simulator).
type Backend = cat.Backend

// CounterReader supplies cumulative per-core values of the paper's
// Table 2 perf events.
type CounterReader = perf.Reader

// Workload generates the memory accesses of one tenant in simulation.
type Workload = workload.Generator

// Trace is a recorded access stream replayable as a Workload.
type Trace = workload.Trace

// TraceRecorder wraps a Workload and captures its access stream.
type TraceRecorder = workload.Recorder

// DefaultConfig returns the paper's thresholds: 3% llc_miss_rate_thr,
// 5% ipc_imp_thr, 10% phase threshold, 3x streaming multiplier,
// one-way growth, max-fairness policy.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewController wires a dCat controller to a backend and counter
// source and installs every target's baseline allocation.
func NewController(cfg Config, backend Backend, counters CounterReader, targets []Target) (*Controller, error) {
	mgr, err := cat.NewManager(backend)
	if err != nil {
		return nil, err
	}
	return core.New(cfg, mgr, counters, targets)
}

// NewResctrlBackend opens the Linux resctrl filesystem (or a
// compatible tree, see resctrl.CreateMockTree) as a CAT backend.
func NewResctrlBackend(root string) (Backend, error) {
	if root == "" {
		root = resctrl.DefaultRoot
	}
	return resctrl.NewBackend(root)
}

// mirrorBackend fans every CAT operation out to two backends.
type mirrorBackend struct {
	primary, secondary Backend
}

func (m *mirrorBackend) TotalWays() int { return m.primary.TotalWays() }

func (m *mirrorBackend) Apply(cos int, mask bits.CBM, cores []int) error {
	if err := m.primary.Apply(cos, mask, cores); err != nil {
		return err
	}
	return m.secondary.Apply(cos, mask, cores)
}

func (m *mirrorBackend) FlushWays(mask bits.CBM) error {
	for _, b := range []Backend{m.primary, m.secondary} {
		if f, ok := b.(cat.WayFlusher); ok {
			if err := f.FlushWays(mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// MirrorBackend returns a backend that applies every class-of-service
// change to both arguments (primary first; its errors abort). Useful
// for staging: mirror a simulator next to a real resctrl tree, or a
// mock tree next to a simulator, and compare. The two backends must
// agree on the way count.
func MirrorBackend(primary, secondary Backend) (Backend, error) {
	if primary == nil || secondary == nil {
		return nil, fmt.Errorf("dcat: nil backend")
	}
	if primary.TotalWays() != secondary.TotalWays() {
		return nil, fmt.Errorf("dcat: backends disagree on ways: %d vs %d",
			primary.TotalWays(), secondary.TotalWays())
	}
	return &mirrorBackend{primary: primary, secondary: secondary}, nil
}

// SimBackend returns the CAT backend controlling a simulation's
// socket-0 LLC, for wiring a Controller manually (NewSimulation + Start
// do this for you; this is for mirrored or custom setups).
func (s *Simulation) SimBackend() (Backend, error) {
	return s.h.CATBackend(0)
}

// SimConfig sizes a simulation.
type SimConfig struct {
	// Machine selects the socket model; the zero value (and
	// MachineXeonE5) is the paper's 18-core, 20-way 45 MB evaluation
	// machine; MachineXeonD is the 8-core, 12-way 12 MB one.
	Machine Machine
	// CyclesPerInterval is each core's budget per controller period
	// (default 20M — a ~100x time-scaled second).
	CyclesPerInterval uint64
	// MemBytes is simulated physical memory (default 4 GiB), split
	// evenly across sockets.
	MemBytes uint64
	// Seed drives all randomness (default 1).
	Seed int64
	// Sockets is how many sockets of the selected Machine the host has
	// (0 and 1 are the same one-socket host). Start wires one controller
	// per populated LLC; place VMs with AddVMOn and their memory with
	// the socket-aware workload constructors.
	Sockets int
	// RemotePenalty is the cross-socket DRAM penalty in cycles
	// (default memsys.DefaultRemotePenalty when Sockets > 1).
	RemotePenalty uint64
	// Topology, when non-empty, is a memsys.ParseNUMA spec (e.g.
	// "sockets=2,machine=xeon-d,penalty=150") that overrides Machine,
	// Sockets, MemBytes, and RemotePenalty wholesale.
	Topology string
}

// Machine selects a socket preset.
type Machine int

// Socket presets from the paper's evaluation (§5).
const (
	MachineXeonE5 Machine = iota
	MachineXeonD
)

// Simulation is a multi-tenant host under dCat: a simulated machine
// and (once Start is called) its controller set — one loop per
// populated socket.
type Simulation struct {
	h   *host.Host
	ctl *MultiController // nil before Start
}

// NewSimulation builds the host.
func NewSimulation(cfg SimConfig) (*Simulation, error) {
	hc := host.DefaultConfig()
	if cfg.Machine == MachineXeonD {
		hc.Mem = memsys.XeonD()
	}
	if cfg.CyclesPerInterval != 0 {
		hc.CyclesPerInterval = cfg.CyclesPerInterval
	}
	if cfg.MemBytes != 0 {
		hc.MemBytes = cfg.MemBytes
	}
	if cfg.Seed != 0 {
		hc.Seed = cfg.Seed
	}
	hc.Sockets = cfg.Sockets
	hc.RemotePenalty = cfg.RemotePenalty
	if cfg.Sockets > 1 && cfg.RemotePenalty == 0 {
		hc.RemotePenalty = memsys.DefaultRemotePenalty
	}
	if cfg.Topology != "" {
		nc, err := memsys.ParseNUMA(cfg.Topology)
		if err != nil {
			return nil, err
		}
		hc.Mem = nc.Socket
		hc.Sockets = nc.Sockets
		hc.RemotePenalty = nc.RemotePenalty
		hc.MemBytes = nc.MemBytesPerSocket * uint64(nc.Sockets)
	}
	h, err := host.New(hc)
	if err != nil {
		return nil, err
	}
	return &Simulation{h: h}, nil
}

// Host exposes the underlying simulated machine.
func (s *Simulation) Host() *host.Host { return s.h }

// AddVM places a tenant with dedicated cores on socket 0. It must be
// called before Start.
func (s *Simulation) AddVM(name string, cores int, w Workload) error {
	return s.AddVMOn(0, name, cores, w)
}

// AddVMOn places a tenant on the given socket. It must be called
// before Start.
func (s *Simulation) AddVMOn(socket int, name string, cores int, w Workload) error {
	if s.ctl != nil {
		return fmt.Errorf("dcat: cannot add VMs after Start")
	}
	_, err := s.h.AddVMOn(socket, name, cores, w)
	return err
}

// Start creates the controller set with the given per-VM baseline ways
// (every VM added so far must appear) and installs the baselines: one
// controller per populated LLC — CAT domains are socket-local.
func (s *Simulation) Start(cfg Config, baselines map[string]int) error {
	if s.ctl != nil {
		return fmt.Errorf("dcat: already started")
	}
	ctl, err := s.h.Controllers(cfg, baselines)
	if err != nil {
		return err
	}
	s.ctl = ctl
	return nil
}

// Step simulates one controller period (one simulated second): every
// VM executes, then the controller(s) re-partition the cache.
func (s *Simulation) Step() error {
	if s.ctl == nil {
		return fmt.Errorf("dcat: Start must be called before Step")
	}
	s.h.RunInterval()
	return s.ctl.Tick()
}

// Run calls Step n times.
func (s *Simulation) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot reports every workload's controller state (all sockets).
func (s *Simulation) Snapshot() []Status {
	if s.ctl == nil {
		return nil
	}
	return s.ctl.Snapshot()
}

// Controller exposes the running controller set (nil before Start).
func (s *Simulation) Controller() *MultiController { return s.ctl }

// MigrateVM live-migrates a running VM's execution to another socket:
// the host reassigns its cores there, and the destination socket's
// dCat loop adopts the workload with its learned controller state
// (phase baseline, performance tables) carried over, so it resumes at
// its preferred allocation instead of re-learning. The VM's memory
// stays homed on the original socket — subsequent DRAM misses pay the
// remote penalty, while LLC hits are socket-local.
func (s *Simulation) MigrateVM(name string, toSocket int) error {
	if s.ctl == nil {
		return fmt.Errorf("dcat: MigrateVM needs a started simulation")
	}
	return s.h.MigrateManaged(s.ctl, name, toSocket)
}

// Occupancy reports each VM's current LLC footprint in bytes — the
// simulation's equivalent of Intel CMT monitoring — within the VM's own
// socket's LLC.
func (s *Simulation) Occupancy() map[string]uint64 {
	out := make(map[string]uint64, len(s.h.VMs()))
	for _, vm := range s.h.VMs() {
		backend, err := s.h.CATBackend(vm.Socket)
		if err != nil {
			continue
		}
		// COS id is irrelevant to the simulated reader.
		v, err := backend.GroupOccupancy(1, vm.Cores)
		if err != nil {
			continue
		}
		out[vm.Name] = v
	}
	return out
}

// Workload constructors for simulations. All draw physical frames from
// the simulation's fragmented memory, so they must be built through
// the owning Simulation.

// NewMLR builds the paper's random-read microbenchmark with the given
// working-set size in bytes.
func (s *Simulation) NewMLR(workingSet uint64, seed int64) (Workload, error) {
	return s.NewMLROn(0, workingSet, seed)
}

// NewMLROn is NewMLR with the working set allocated from the given
// socket's memory — pair it with AddVMOn to choose local or remote
// placement.
func (s *Simulation) NewMLROn(socket int, workingSet uint64, seed int64) (Workload, error) {
	return workload.NewMLR(workingSet, addr.PageSize4K, s.h.AllocatorOn(socket), seed)
}

// NewMLOAD builds the paper's sequential streaming microbenchmark.
func (s *Simulation) NewMLOAD(workingSet uint64) (Workload, error) {
	return s.NewMLOADOn(0, workingSet)
}

// NewMLOADOn is NewMLOAD with memory from the given socket.
func (s *Simulation) NewMLOADOn(socket int, workingSet uint64) (Workload, error) {
	return workload.NewMLOAD(workingSet, addr.PageSize4K, s.h.AllocatorOn(socket))
}

// NewLookbusy builds a CPU-only polite neighbour.
func (s *Simulation) NewLookbusy() (Workload, error) {
	return workload.NewLookbusy(s.h.Allocator())
}

// NewLookbusyOn is NewLookbusy with memory from the given socket.
func (s *Simulation) NewLookbusyOn(socket int) (Workload, error) {
	return workload.NewLookbusy(s.h.AllocatorOn(socket))
}

// NewIdle returns a workload that models an empty VM.
func (s *Simulation) NewIdle() Workload { return workload.Idle{} }

// NewRedis builds the Table 4 key-value-store model.
func (s *Simulation) NewRedis(seed int64) (Workload, error) {
	return workload.NewRedis(s.h.Allocator(), seed)
}

// NewPostgres builds the Table 5 database model.
func (s *Simulation) NewPostgres(seed int64) (Workload, error) {
	return workload.NewPostgres(s.h.Allocator(), seed)
}

// NewElasticsearch builds the Table 6 search-engine model.
func (s *Simulation) NewElasticsearch(seed int64) (Workload, error) {
	return workload.NewElasticsearch(s.h.Allocator(), seed)
}

// NewSPEC builds one of the 20 synthetic SPEC CPU2006 profiles by
// benchmark name (e.g. "omnetpp").
func (s *Simulation) NewSPEC(benchmark string, seed int64) (Workload, error) {
	p, err := workload.ProfileByName(benchmark)
	if err != nil {
		return nil, err
	}
	return workload.NewSpec(p, s.h.Allocator(), seed)
}

// NewTraceRecorder wraps a workload so its access stream can be saved
// with (*Trace).WriteTo and replayed later.
func NewTraceRecorder(w Workload) (*TraceRecorder, error) {
	return workload.NewRecorder(w)
}

// ReadTraceFile loads a trace saved by (*Trace).WriteTo.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

// NewPhased chains workloads into stages measured in controller
// intervals; the last stage runs forever.
func NewPhased(name string, stages ...PhaseStage) (Workload, error) {
	ws := make([]workload.Stage, len(stages))
	for i, st := range stages {
		ws[i] = workload.Stage{Gen: st.Workload, Intervals: st.Intervals}
	}
	return workload.NewPhased(name, ws...)
}

// PhaseStage pairs a workload with a duration in intervals (0 = rest
// of the run; only valid for the final stage).
type PhaseStage struct {
	Workload  Workload
	Intervals int
}
