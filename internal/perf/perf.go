// Package perf models the per-core hardware performance counters dCat
// reads through the msr interface (paper Table 2 and §3.2).
//
// The controller consumes five raw quantities per workload interval —
// L1 references, LLC references, LLC misses, retired instructions, and
// unhalted cycles — and derives IPC, LLC miss rate, and memory accesses
// per instruction from them. In this reproduction the simulated memory
// hierarchy increments the counters; on real hardware a different
// Reader would wrap perf_event or /dev/cpu/*/msr.
package perf

import "fmt"

// Event identifies one hardware performance event.
type Event uint8

// The events dCat programs (paper Table 2).
const (
	LLCMisses Event = iota
	LLCReferences
	L1Misses
	L1Hits
	RetiredInstructions
	UnhaltedCycles
	numEvents
)

// NumEvents is the number of modeled events.
const NumEvents = int(numEvents)

// Info describes how an event is programmed on Intel hardware.
type Info struct {
	Name     string
	EventNum uint16 // event select; fixed counters use their MSR index
	Umask    uint16
	Fixed    bool // fixed-function counter (no umask)
}

// Table mirrors paper Table 2.
var Table = [NumEvents]Info{
	LLCMisses:           {Name: "LLC Misses", EventNum: 0x2E, Umask: 0x41},
	LLCReferences:       {Name: "LLC References", EventNum: 0x2E, Umask: 0x4F},
	L1Misses:            {Name: "L1 Cache Misses", EventNum: 0xD1, Umask: 0x08},
	L1Hits:              {Name: "L1 Cache Hits", EventNum: 0xD1, Umask: 0x01},
	RetiredInstructions: {Name: "Retired Instructions", EventNum: 0x309, Fixed: true},
	UnhaltedCycles:      {Name: "Unhalted Cycles", EventNum: 0x30A, Fixed: true},
}

// String returns the event's human-readable name.
func (e Event) String() string {
	if int(e) < NumEvents {
		return Table[e].Name
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Counters is one core's counter bank.
type Counters [NumEvents]uint64

// Add increments an event counter.
func (c *Counters) Add(e Event, n uint64) { c[e] += n }

// Reader exposes counter state to samplers. Core numbering is
// caller-defined (physical core IDs in the host model).
type Reader interface {
	// ReadCounter returns the current cumulative value of event e on
	// the given core.
	ReadCounter(core int, e Event) uint64
}

// File is a simple in-memory Reader: a bank of counters per core, as
// the msr character devices would expose. The simulated memory system
// writes it; the controller's sampler reads it.
type File struct {
	banks []Counters
}

// NewFile creates counter banks for cores cores.
func NewFile(cores int) *File { return &File{banks: make([]Counters, cores)} }

// Cores returns the number of banks.
func (f *File) Cores() int { return len(f.banks) }

// Core returns the mutable bank for a core (panics if out of range, as
// a bad core ID is a programming error in the host model).
func (f *File) Core(i int) *Counters { return &f.banks[i] }

// ReadCounter implements Reader.
func (f *File) ReadCounter(core int, e Event) uint64 { return f.banks[core][e] }

// Sample is the per-interval, per-workload aggregate the controller
// consumes: deltas of the five §3.2 quantities summed over the
// workload's cores.
type Sample struct {
	L1Ref   uint64 // L1 hits + misses: estimates LOAD+STORE count
	LLCRef  uint64
	LLCMiss uint64
	RetIns  uint64
	Cycles  uint64
}

// Add accumulates another sample (used to sum multiple cores).
func (s *Sample) Add(o Sample) {
	s.L1Ref += o.L1Ref
	s.LLCRef += o.LLCRef
	s.LLCMiss += o.LLCMiss
	s.RetIns += o.RetIns
	s.Cycles += o.Cycles
}

// IPC returns retired instructions per unhalted cycle (0 when idle).
func (s Sample) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RetIns) / float64(s.Cycles)
}

// LLCMissRate returns llc_miss/llc_ref (0 when there were no references).
func (s Sample) LLCMissRate() float64 {
	if s.LLCRef == 0 {
		return 0
	}
	return float64(s.LLCMiss) / float64(s.LLCRef)
}

// MemAccessPerInstr estimates memory accesses per instruction as
// l1_ref/ret_ins — the quantity dCat's phase detector watches (§3.3).
func (s Sample) MemAccessPerInstr() float64 {
	if s.RetIns == 0 {
		return 0
	}
	return float64(s.L1Ref) / float64(s.RetIns)
}

// Sampler converts cumulative counters into per-interval deltas.
type Sampler struct {
	src Reader
	// prev is the last snapshot per core, indexed by core ID; cores never
	// sampled read as zero.
	prev []Counters
}

// NewSampler wraps a Reader.
func NewSampler(src Reader) *Sampler {
	return &Sampler{src: src}
}

// slot returns the previous-snapshot slot of a core, growing prev to
// cover it.
func (sm *Sampler) slot(core int) *Counters {
	if core >= len(sm.prev) {
		sm.prev = append(sm.prev, make([]Counters, core+1-len(sm.prev))...)
	}
	return &sm.prev[core]
}

// snapshot reads all events for a core.
func (sm *Sampler) snapshot(core int) Counters {
	var c Counters
	for e := Event(0); int(e) < NumEvents; e++ {
		c[e] = sm.src.ReadCounter(core, e)
	}
	return c
}

// SampleCores returns the delta since the previous call for the given
// cores, summed. The first call for a core returns its cumulative
// values (delta from zero). A core any of whose counters went
// backwards adds nothing: a zero read is the msr Reader's error
// convention, so its previous snapshot stays and the next delta spans
// the missed period; any other backward step is a counter reset or
// wrap, so the core re-baselines at the new values.
func (sm *Sampler) SampleCores(cores []int) Sample {
	var agg Sample
	for _, core := range cores {
		cur := sm.snapshot(core)
		p := sm.slot(core)
		if back, failed := regressed(p, &cur); back {
			if !failed {
				*p = cur
			}
			continue
		}
		prev := *p
		*p = cur
		agg.Add(Sample{
			L1Ref:   (cur[L1Hits] - prev[L1Hits]) + (cur[L1Misses] - prev[L1Misses]),
			LLCRef:  cur[LLCReferences] - prev[LLCReferences],
			LLCMiss: cur[LLCMisses] - prev[LLCMisses],
			RetIns:  cur[RetiredInstructions] - prev[RetiredInstructions],
			Cycles:  cur[UnhaltedCycles] - prev[UnhaltedCycles],
		})
	}
	return agg
}

// regressed reports whether any counter in cur is below prev, and
// whether one that is reads zero (a failed read).
func regressed(prev, cur *Counters) (back, failed bool) {
	for e := range cur {
		if cur[e] < prev[e] {
			back = true
			failed = failed || cur[e] == 0
		}
	}
	return back, failed
}

// Prime snapshots the given cores without producing a sample, so the
// next SampleCores delta starts from now. A controller adopting cores
// it has never sampled — or cores whose history belongs to a previous
// tenant — primes them first; otherwise the first sample would span
// the cores' whole cumulative past. SampleCores' failed-read rule
// holds here too: a core whose counters went back to zero keeps its
// previous snapshot rather than priming at zero.
func (sm *Sampler) Prime(cores []int) {
	for _, core := range cores {
		cur := sm.snapshot(core)
		p := sm.slot(core)
		if back, failed := regressed(p, &cur); back && failed {
			continue
		}
		*p = cur
	}
}

// Reset forgets previous snapshots, so the next sample is cumulative.
func (sm *Sampler) Reset() { clear(sm.prev) }
