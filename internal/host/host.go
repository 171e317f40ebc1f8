// Package host models one multi-tenant server of one or more sockets:
// VMs pinned to dedicated cores (the paper's no-overprovisioning
// assumption, §4), each running a workload generator, all sharing
// their socket's simulated LLC.
//
// Time advances in controller intervals (the paper's period, e.g. 1 s).
// Within an interval every core gets the same cycle budget and the host
// interleaves execution block by block, so faster cores naturally issue
// more memory traffic — which is how noisy neighbours flood a shared
// cache in real machines.
package host

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/memsys"
	"repro/internal/perf"
	"repro/internal/workload"
)

// Config sizes the simulation.
type Config struct {
	Mem memsys.Config
	// CyclesPerInterval is each core's cycle budget per controller
	// interval. Real hardware at 2.3 GHz with a 1 s period would be
	// 2.3e9; the default scales that down ~100x so a simulated second
	// costs milliseconds while keeping thousands of blocks per
	// interval for statistical stability.
	CyclesPerInterval uint64
	// BlockInstr is the interleaving granularity in instructions.
	BlockInstr uint64
	// MemBytes is the physical memory backing workload data; frames
	// are randomly placed (a fragmented long-running host). Must hold
	// every workload's simulated working set. The range is split evenly
	// across sockets.
	MemBytes uint64
	// Seed makes frame placement reproducible.
	Seed int64
	// Sockets is how many sockets the host has, each with its own copy
	// of Mem; 0 means 1. Place VMs with AddVMOn and their memory with
	// AllocatorOn.
	Sockets int
	// RemotePenalty is the extra cycles a cross-socket DRAM access
	// costs; 0 selects memsys.DefaultRemotePenalty on a multi-socket
	// host. A one-socket host never pays it.
	RemotePenalty uint64
}

// DefaultConfig returns the paper's evaluation machine (Xeon E5-2697 v4)
// with scaled timing.
func DefaultConfig() Config {
	return Config{
		Mem:               memsys.XeonE5(),
		CyclesPerInterval: 20_000_000,
		BlockInstr:        2000,
		MemBytes:          4 << 30,
		Seed:              1,
	}
}

// IntervalMetrics aggregates one VM's execution during one interval.
type IntervalMetrics struct {
	Instructions uint64
	Cycles       uint64
	Accesses     uint64
	LatencySum   uint64 // total memory access latency in cycles
}

// IPC returns instructions per cycle for the interval.
func (m IntervalMetrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// AvgAccessLatency returns mean cycles per memory access — the
// application-side "data access latency" the paper plots for MLR.
func (m IntervalMetrics) AvgAccessLatency() float64 {
	if m.Accesses == 0 {
		return 0
	}
	return float64(m.LatencySum) / float64(m.Accesses)
}

func (m *IntervalMetrics) add(o IntervalMetrics) {
	m.Instructions += o.Instructions
	m.Cycles += o.Cycles
	m.Accesses += o.Accesses
	m.LatencySum += o.LatencySum
}

// AccessObserver taps a VM's physical line-address stream — e.g. a
// UCP shadow-tag monitor sampling the traffic.
type AccessObserver interface {
	Observe(line uint64)
}

// VM is one tenant: dedicated cores running one workload generator.
type VM struct {
	Name  string
	Cores []int // global core IDs
	// Socket is where the VM's cores live.
	Socket int
	Gen    workload.Generator

	observer AccessObserver
	last     IntervalMetrics
	total    IntervalMetrics
}

// SetObserver attaches (or, with nil, removes) an access tap.
func (v *VM) SetObserver(obs AccessObserver) { v.observer = obs }

// Last returns the metrics of the most recent interval.
func (v *VM) Last() IntervalMetrics { return v.last }

// Total returns cumulative metrics since the VM started.
func (v *VM) Total() IntervalMetrics { return v.total }

// Host is one server (one or more sockets) plus its tenants.
type Host struct {
	cfg  Config
	nsys *memsys.NUMASystem

	// One allocator per socket, each over that socket's DRAM range, so
	// placement decides which memory a workload's frames land in.
	allocs    []*addr.RandAllocator
	perSocket uint64 // DRAM bytes per socket
	// freeCores holds each socket's unpinned local core IDs, kept sorted
	// ascending. AddVMOn pops the lowest IDs; RemoveVM and MigrateVM
	// return cores here for reuse.
	freeCores [][]int
	vms       []*VM
	interval  int

	// Interval state, reused so that a steady-state interval allocates
	// nothing.
	states  []vmState
	active  []*vmState // VMs with budget left, in creation order
	cursor  int        // index in active of the VM whose block is next
	blocks  []memsys.Block
	owners  []*vmState // owners[i] drew blocks[i]
	lat     []uint64   // per-block latency sums from Replay
	lineBuf []uint64   // every line of the current batch
}

// New builds a host.
func New(cfg Config) (*Host, error) {
	if cfg.CyclesPerInterval == 0 || cfg.BlockInstr == 0 {
		return nil, fmt.Errorf("host: cycle budget and block size must be positive")
	}
	if cfg.BlockInstr*4 > cfg.CyclesPerInterval {
		return nil, fmt.Errorf("host: block size %d too coarse for budget %d",
			cfg.BlockInstr, cfg.CyclesPerInterval)
	}
	if cfg.Sockets < 1 {
		cfg.Sockets = 1
	}
	if cfg.Sockets > 1 && cfg.RemotePenalty == 0 {
		cfg.RemotePenalty = memsys.DefaultRemotePenalty
	}
	// Round each socket's share down to a 2 MB multiple so every socket
	// base stays hugepage-aligned; a lone socket keeps the full range.
	per := cfg.MemBytes
	if cfg.Sockets > 1 {
		per = (cfg.MemBytes / uint64(cfg.Sockets)) &^ (addr.PageSize2M - 1)
	}
	if per < 1<<20 {
		return nil, fmt.Errorf("host: %d bytes across %d sockets leaves too little per socket",
			cfg.MemBytes, cfg.Sockets)
	}
	nsys, err := memsys.NewNUMA(memsys.NUMAConfig{
		Sockets:           cfg.Sockets,
		Socket:            cfg.Mem,
		MemBytesPerSocket: per,
		RemotePenalty:     cfg.RemotePenalty,
	})
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	h := &Host{
		cfg:       cfg,
		nsys:      nsys,
		perSocket: per,
		allocs:    make([]*addr.RandAllocator, cfg.Sockets),
		freeCores: make([][]int, cfg.Sockets),
	}
	for s := range h.allocs {
		// Per-socket seeds decorrelate placement across sockets.
		h.allocs[s] = addr.NewRandAllocatorAt(uint64(s)*per, per, cfg.Seed+int64(s))
		free := make([]int, cfg.Mem.Cores)
		for i := range free {
			free[i] = i
		}
		h.freeCores[s] = free
	}
	return h, nil
}

// MustNew is New for configurations known valid.
func MustNew(cfg Config) *Host {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// System exposes socket 0's memory hierarchy (for CAT backends and
// counters); use NUMA for the full topology.
func (h *Host) System() *memsys.System { return h.nsys.Socket(0) }

// NUMA returns the host's memory hierarchy: one System per socket
// behind a socket-routing access path.
func (h *Host) NUMA() *memsys.NUMASystem { return h.nsys }

// Counters exposes a perf reader over the host's global core IDs.
func (h *Host) Counters() perf.Reader { return h.nsys.Counters() }

// Allocator returns the physical frame allocator workload constructors
// should draw from, so all tenants share one fragmented memory. This
// is socket 0's memory; use AllocatorOn for placement.
func (h *Host) Allocator() addr.FrameAllocator { return h.allocs[0] }

// AllocatorOn returns the frame allocator over the given socket's DRAM
// range — drawing a workload's frames from socket s makes its lines
// home there.
func (h *Host) AllocatorOn(socket int) addr.FrameAllocator { return h.allocs[socket] }

// MemBytesPerSocket returns each socket's DRAM range size.
func (h *Host) MemBytesPerSocket() uint64 { return h.perSocket }

// Interval returns how many intervals have been simulated.
func (h *Host) Interval() int { return h.interval }

// AddVM creates a tenant with numCores dedicated cores (assigned in
// order) running gen, placed on socket 0.
func (h *Host) AddVM(name string, numCores int, gen workload.Generator) (*VM, error) {
	return h.AddVMOn(0, name, numCores, gen)
}

// AddVMOn creates a tenant pinned to the given socket: its dedicated
// cores are that socket's next free cores (as global core IDs,
// socket*Cores+local). Placement controls only where the VM executes —
// which memory it touches is decided by the allocator its workload
// draws frames from (AllocatorOn).
func (h *Host) AddVMOn(socket int, name string, numCores int, gen workload.Generator) (*VM, error) {
	if name == "" || gen == nil {
		return nil, fmt.Errorf("host: VM needs a name and a workload")
	}
	if numCores < 1 {
		return nil, fmt.Errorf("host: VM %q needs at least one core", name)
	}
	if socket < 0 || socket >= len(h.freeCores) {
		return nil, fmt.Errorf("host: socket %d out of range [0,%d)", socket, len(h.freeCores))
	}
	for _, v := range h.vms {
		if v.Name == name {
			return nil, fmt.Errorf("host: VM %q already exists", name)
		}
	}
	cores, err := h.takeCores(socket, numCores)
	if err != nil {
		return nil, err
	}
	vm := &VM{Name: name, Cores: cores, Socket: socket, Gen: gen}
	h.vms = append(h.vms, vm)
	return vm, nil
}

// takeCores pops the lowest numCores free cores of a socket as global
// core IDs.
func (h *Host) takeCores(socket, numCores int) ([]int, error) {
	free := h.freeCores[socket]
	if numCores > len(free) {
		return nil, fmt.Errorf("host: out of cores on socket %d: %d requested, %d free",
			socket, numCores, len(free))
	}
	base := socket * h.cfg.Mem.Cores
	cores := make([]int, numCores)
	for i := range cores {
		cores[i] = base + free[i]
	}
	h.freeCores[socket] = free[numCores:]
	return cores, nil
}

// releaseCores returns a VM's global core IDs to their socket's free
// list, keeping it sorted so later placements stay deterministic.
func (h *Host) releaseCores(socket int, cores []int) {
	base := socket * h.cfg.Mem.Cores
	free := h.freeCores[socket]
	for _, c := range cores {
		free = append(free, c-base)
	}
	sort.Ints(free)
	h.freeCores[socket] = free
}

// FreeCores reports how many unpinned cores a socket has left.
func (h *Host) FreeCores(socket int) int {
	if socket < 0 || socket >= len(h.freeCores) {
		return 0
	}
	return len(h.freeCores[socket])
}

// RemoveVM tears a tenant down: its cores return to the socket's free
// list for reuse by later AddVMOn/MigrateVM calls, its workload's
// physical frames go back to the allocator they came from (when the
// generator supports Release — all in-tree generators do), and the VM
// drops out of the interval loop. Cached lines the workload left
// behind decay by natural eviction, as on real hardware; the tenant's
// CLOS group and ways are the controller's to reclaim
// (core.Controller.RemoveTarget).
func (h *Host) RemoveVM(name string) error {
	for i, v := range h.vms {
		if v.Name != name {
			continue
		}
		h.releaseCores(v.Socket, v.Cores)
		h.vms = append(h.vms[:i], h.vms[i+1:]...)
		if r, ok := v.Gen.(workload.Releaser); ok {
			r.Release()
		}
		return nil
	}
	return fmt.Errorf("host: no VM %q", name)
}

// AllocatedBytes reports how much of a socket's DRAM is currently
// handed out to workloads — the gauge churn tests watch to prove
// departures leak nothing.
func (h *Host) AllocatedBytes(socket int) uint64 {
	if socket < 0 || socket >= len(h.allocs) {
		return 0
	}
	return h.allocs[socket].InUseBytes()
}

// MigrateVM live-migrates a tenant's execution to another socket: the
// same number of cores is taken from the destination's free list, the
// old cores are released, and the VM keeps running its workload with no
// loss of state. Its memory does not move — frames stay homed where the
// workload allocated them, so after a migration DRAM misses to the old
// socket pay the remote penalty while the new socket's LLC warms up
// with the working set. The caller owns the controller side (CLOS
// groups, sampler state); MigrateManaged does both halves.
func (h *Host) MigrateVM(name string, toSocket int) (*VM, error) {
	if toSocket < 0 || toSocket >= len(h.freeCores) {
		return nil, fmt.Errorf("host: socket %d out of range [0,%d)", toSocket, len(h.freeCores))
	}
	vm, ok := h.VM(name)
	if !ok {
		return nil, fmt.Errorf("host: no VM %q", name)
	}
	if vm.Socket == toSocket {
		return nil, fmt.Errorf("host: VM %q is already on socket %d", name, toSocket)
	}
	cores, err := h.takeCores(toSocket, len(vm.Cores))
	if err != nil {
		return nil, err
	}
	h.releaseCores(vm.Socket, vm.Cores)
	vm.Cores = cores
	vm.Socket = toSocket
	return vm, nil
}

// VMs returns the tenants in creation order.
func (h *Host) VMs() []*VM { return h.vms }

// VM returns a tenant by name.
func (h *Host) VM(name string) (*VM, bool) {
	for _, v := range h.vms {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// vmState tracks one VM through one interval. Workload parameters are
// hoisted to interval start (every in-tree generator only changes them
// in Tick, which runs at interval end).
type vmState struct {
	vm     *VM
	budget uint64
	m      IntervalMetrics
	params workload.Params
	bulk   workload.BulkGenerator // non-nil when the generator draws in bulk
	idle   bool                   // no memory accesses: one block takes the whole interval
	// accesses is the line count of one block, and maxCycles the most
	// cycles one block can take.
	accesses, maxCycles uint64
	// horizon is how many more blocks are certain to run, counted from
	// the last accounted one, and taken how many are drawn and not yet
	// accounted.
	horizon, taken uint64
	done           bool
}

// batchLines caps the lines of one batch: enough that waking helpers
// costs little against the replay, few enough that the line buffer
// stays in the host's L2.
const batchLines = 1 << 15

// blockCycles is the CPI model: base cycles plus memory stall, the
// latency sum overlapped by the workload's memory-level parallelism.
// It is monotone in latSum, which is what makes maxCycles a bound.
func blockCycles(instr uint64, p workload.Params, latSum uint64) uint64 {
	c := uint64(float64(instr)*p.BaseCPI + float64(latSum)/p.MLP)
	return max(c, 1)
}

// RunInterval simulates one controller period: every VM's lead core
// consumes its cycle budget, interleaved block by block with all other
// VMs in round-robin order. Non-lead cores idle (the paper's benchmarks
// are single-threaded inside 2-vCPU guests).
//
// Blocks run in batches. A batch is the longest run of blocks, in
// round-robin order, that is certain to execute whatever the caches
// do: VM v runs its next n blocks for sure while its budget exceeds
// (n-1)·maxCycles_v, since a block only ends v's interval once it has
// spent the budget. The host draws a batch's lines on this goroutine,
// in block order, and memsys replays the whole batch at once, across
// set partitions in parallel. Per-block latencies then drive the
// budgets in block order, exactly as a block-at-a-time loop would; a
// VM can only finish on its last block of a batch, and its Tick runs
// then. Tick touches only the VM's own generator, which draws nothing
// more this interval, so every generator's stream is unchanged.
func (h *Host) RunInterval() {
	if cap(h.states) < len(h.vms) {
		h.states = make([]vmState, len(h.vms))
	}
	h.states = h.states[:len(h.vms)]
	h.active = h.active[:0]
	need := batchLines
	for i, vm := range h.vms {
		vm.last = IntervalMetrics{}
		st := &h.states[i]
		*st = vmState{vm: vm, budget: h.cfg.CyclesPerInterval, params: vm.Gen.Params()}
		st.idle = st.params.AccessesPerInstr == 0
		if st.idle {
			st.maxCycles = h.cfg.CyclesPerInterval
		} else {
			st.bulk, _ = vm.Gen.(workload.BulkGenerator)
			st.accesses = uint64(float64(h.cfg.BlockInstr) * st.params.AccessesPerInstr)
			worst := st.accesses * (h.cfg.Mem.Lat.DRAM + h.nsys.Config().RemotePenalty)
			st.maxCycles = blockCycles(h.cfg.BlockInstr, st.params, worst)
		}
		need = max(need, int(st.accesses))
		h.active = append(h.active, st)
	}
	if cap(h.lineBuf) < need {
		h.lineBuf = make([]uint64, need)
	}
	h.cursor = 0
	for len(h.active) > 0 {
		h.runBatch()
	}
	h.interval++
}

// runBatch draws, replays and accounts one batch.
func (h *Host) runBatch() {
	for _, st := range h.active {
		st.horizon = (st.budget-1)/st.maxCycles + 1
	}
	h.blocks, h.owners = h.blocks[:0], h.owners[:0]
	used := 0
	for {
		st := h.active[h.cursor]
		if st.taken == st.horizon || (used > 0 && used+int(st.accesses) > batchLines) {
			break
		}
		lines := h.lineBuf[used : used+int(st.accesses)]
		if !st.idle {
			st.draw(lines)
		}
		used += len(lines)
		h.blocks = append(h.blocks, memsys.Block{Core: st.vm.Cores[0], Lines: lines})
		h.owners = append(h.owners, st)
		st.taken++
		if h.cursor++; h.cursor == len(h.active) {
			h.cursor = 0
		}
	}
	if cap(h.lat) < len(h.blocks) {
		h.lat = make([]uint64, cap(h.blocks))
	}
	lat := h.lat[:len(h.blocks)]
	h.nsys.Replay(h.blocks, lat)

	finished := false
	instr := h.cfg.BlockInstr
	for i, st := range h.owners {
		m := IntervalMetrics{Instructions: instr}
		if st.idle {
			// Idle guest: the vCPU is halted almost the whole interval;
			// a token instruction stream models the guest kernel tick.
			m.Cycles = h.cfg.CyclesPerInterval
		} else {
			m.Accesses = st.accesses
			m.LatencySum = lat[i]
			m.Cycles = blockCycles(instr, st.params, lat[i])
		}
		h.nsys.Retire(st.vm.Cores[0], instr, m.Cycles)
		st.m.add(m)
		st.taken--
		if m.Cycles < st.budget {
			st.budget -= m.Cycles
			continue
		}
		if st.taken != 0 {
			panic(fmt.Sprintf("host: VM %q spent its budget with %d blocks of the batch left", st.vm.Name, st.taken))
		}
		st.budget = 0
		st.done = true
		st.vm.last = st.m
		st.vm.total.add(st.m)
		st.vm.Gen.Tick()
		finished = true
	}
	if !finished {
		return
	}
	next, cursor := h.active[:0], 0
	for i, st := range h.active {
		if st.done {
			continue
		}
		if i < h.cursor {
			cursor++
		}
		next = append(next, st)
	}
	h.active, h.cursor = next, cursor
	if h.cursor == len(h.active) {
		h.cursor = 0
	}
}

// draw fills lines from the VM's generator and shows them to its
// observer.
func (st *vmState) draw(lines []uint64) {
	if st.bulk != nil {
		st.bulk.NextLines(lines)
	} else {
		for i := range lines {
			lines[i] = st.vm.Gen.NextLine()
		}
	}
	if obs := st.vm.observer; obs != nil {
		for _, line := range lines {
			obs.Observe(line)
		}
	}
}

// RunIntervals simulates n periods, invoking after (if non-nil) at the
// end of each — the hook where the dCat controller ticks.
func (h *Host) RunIntervals(n int, after func(interval int)) {
	for i := 0; i < n; i++ {
		h.RunInterval()
		if after != nil {
			after(h.interval)
		}
	}
}
