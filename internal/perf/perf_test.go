package perf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableMatchesPaper(t *testing.T) {
	// Paper Table 2.
	tests := []struct {
		e     Event
		num   uint16
		umask uint16
		fixed bool
	}{
		{LLCMisses, 0x2E, 0x41, false},
		{LLCReferences, 0x2E, 0x4F, false},
		{L1Misses, 0xD1, 0x08, false},
		{L1Hits, 0xD1, 0x01, false},
		{RetiredInstructions, 0x309, 0, true},
		{UnhaltedCycles, 0x30A, 0, true},
	}
	for _, tt := range tests {
		info := Table[tt.e]
		if info.EventNum != tt.num || info.Umask != tt.umask || info.Fixed != tt.fixed {
			t.Errorf("%s: got %+v want num=%#x umask=%#x fixed=%v",
				tt.e, info, tt.num, tt.umask, tt.fixed)
		}
	}
}

func TestEventString(t *testing.T) {
	if LLCMisses.String() != "LLC Misses" {
		t.Errorf("String()=%q", LLCMisses.String())
	}
	if Event(200).String() != "Event(200)" {
		t.Errorf("out-of-range String()=%q", Event(200).String())
	}
}

func TestFileReadWrite(t *testing.T) {
	f := NewFile(4)
	if f.Cores() != 4 {
		t.Fatalf("Cores()=%d", f.Cores())
	}
	f.Core(2).Add(LLCMisses, 10)
	f.Core(2).Add(LLCMisses, 5)
	if got := f.ReadCounter(2, LLCMisses); got != 15 {
		t.Errorf("ReadCounter=%d want 15", got)
	}
	if got := f.ReadCounter(1, LLCMisses); got != 0 {
		t.Errorf("other core counter=%d want 0", got)
	}
}

func TestSampleDerived(t *testing.T) {
	s := Sample{L1Ref: 300, LLCRef: 100, LLCMiss: 25, RetIns: 1000, Cycles: 2000}
	if got := s.IPC(); got != 0.5 {
		t.Errorf("IPC=%f want 0.5", got)
	}
	if got := s.LLCMissRate(); got != 0.25 {
		t.Errorf("LLCMissRate=%f want 0.25", got)
	}
	if got := s.MemAccessPerInstr(); got != 0.3 {
		t.Errorf("MemAccessPerInstr=%f want 0.3", got)
	}
}

func TestSampleDerivedZeroSafe(t *testing.T) {
	var s Sample
	if s.IPC() != 0 || s.LLCMissRate() != 0 || s.MemAccessPerInstr() != 0 {
		t.Error("zero sample should derive zeros, not NaN")
	}
	if math.IsNaN(s.IPC()) {
		t.Error("IPC is NaN")
	}
}

func TestSampleAdd(t *testing.T) {
	a := Sample{L1Ref: 1, LLCRef: 2, LLCMiss: 3, RetIns: 4, Cycles: 5}
	b := Sample{L1Ref: 10, LLCRef: 20, LLCMiss: 30, RetIns: 40, Cycles: 50}
	a.Add(b)
	want := Sample{11, 22, 33, 44, 55}
	if a != want {
		t.Errorf("Add: got %+v want %+v", a, want)
	}
}

func TestSamplerDeltas(t *testing.T) {
	f := NewFile(2)
	sm := NewSampler(f)

	f.Core(0).Add(RetiredInstructions, 100)
	f.Core(0).Add(UnhaltedCycles, 200)
	s := sm.SampleCores([]int{0})
	if s.RetIns != 100 || s.Cycles != 200 {
		t.Fatalf("first sample %+v", s)
	}

	f.Core(0).Add(RetiredInstructions, 50)
	f.Core(0).Add(UnhaltedCycles, 60)
	s = sm.SampleCores([]int{0})
	if s.RetIns != 50 || s.Cycles != 60 {
		t.Fatalf("delta sample %+v want 50/60", s)
	}
}

func TestSamplerAggregatesCores(t *testing.T) {
	f := NewFile(3)
	sm := NewSampler(f)
	f.Core(0).Add(LLCMisses, 5)
	f.Core(1).Add(LLCMisses, 7)
	f.Core(2).Add(LLCMisses, 100) // not in workload
	s := sm.SampleCores([]int{0, 1})
	if s.LLCMiss != 12 {
		t.Errorf("aggregate LLCMiss=%d want 12", s.LLCMiss)
	}
}

func TestSamplerL1RefCombinesHitsAndMisses(t *testing.T) {
	f := NewFile(1)
	sm := NewSampler(f)
	f.Core(0).Add(L1Hits, 70)
	f.Core(0).Add(L1Misses, 30)
	s := sm.SampleCores([]int{0})
	if s.L1Ref != 100 {
		t.Errorf("L1Ref=%d want 100 (hits+misses)", s.L1Ref)
	}
}

func TestSamplerReset(t *testing.T) {
	f := NewFile(1)
	sm := NewSampler(f)
	f.Core(0).Add(RetiredInstructions, 10)
	sm.SampleCores([]int{0})
	sm.Reset()
	s := sm.SampleCores([]int{0})
	if s.RetIns != 10 {
		t.Errorf("after Reset, sample should be cumulative again: %+v", s)
	}
}

// Property: sampling twice with no counter activity yields a zero delta,
// and deltas over consecutive increments sum to the cumulative value.
func TestSamplerDeltaProperties(t *testing.T) {
	f := func(incs []uint16) bool {
		file := NewFile(1)
		sm := NewSampler(file)
		var total, sum uint64
		for _, inc := range incs {
			file.Core(0).Add(LLCReferences, uint64(inc))
			total += uint64(inc)
			sum += sm.SampleCores([]int{0}).LLCRef
		}
		quiet := sm.SampleCores([]int{0})
		return sum == total && quiet.LLCRef == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// scripted is a one-core Reader that returns whatever bank the test
// sets.
type scripted struct{ now Counters }

func (r *scripted) ReadCounter(_ int, e Event) uint64 { return r.now[e] }

// TestSamplerSurvivesHostileCounters: counters that step backwards —
// a failed read (msr reports 0), a reset, a 48-bit wrap — never turn
// into a huge uint64 delta. The failed read's core adds nothing and
// the next delta spans the missed period; a reset or wrap re-baselines.
// Every counter truly advances 1000 per interval, so each sample must
// be exactly the activity since the last counted snapshot.
func TestSamplerSurvivesHostileCounters(t *testing.T) {
	const wrap = 1 << 48
	at := func(v uint64) Counters {
		var c Counters
		for e := range c {
			c[e] = v
		}
		return c
	}
	failed := func(v uint64, e Event) Counters {
		c := at(v)
		c[e] = 0
		return c
	}
	for _, tc := range []struct {
		name  string
		start uint64 // primed snapshot
		reads []Counters
		want  []uint64 // each sample's per-event delta
	}{
		{"one read fails then recovers", 1000,
			[]Counters{at(2000), failed(3000, LLCMisses), at(4000), at(5000)},
			[]uint64{1000, 0, 2000, 1000}},
		{"every read fails then recovers", 1000,
			[]Counters{at(2000), at(0), at(0), at(5000), at(6000)},
			[]uint64{1000, 0, 0, 3000, 1000}},
		{"reset", 1000,
			[]Counters{at(2000), at(300), at(1300)},
			[]uint64{1000, 0, 1000}},
		{"48-bit wrap", wrap - 1500,
			[]Counters{at(wrap - 500), at(500), at(1500)},
			[]uint64{1000, 0, 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &scripted{now: at(tc.start)}
			sm := NewSampler(r)
			sm.Prime([]int{0})
			for i, c := range tc.reads {
				r.now = c
				got := sm.SampleCores([]int{0})
				d := tc.want[i]
				if want := (Sample{L1Ref: 2 * d, LLCRef: d, LLCMiss: d, RetIns: d, Cycles: d}); got != want {
					t.Fatalf("sample %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestPrimeOverFailedReads: a core that has counted to 2^40 is primed
// while its reads fail (msr reports 0). The failed prime keeps the last
// good snapshot, so 1,000 more instructions sample as 1,000, not as the
// counters' whole lifetime.
func TestPrimeOverFailedReads(t *testing.T) {
	const lifetime = 1 << 40
	r := &scripted{}
	sm := NewSampler(r)
	r.now[RetiredInstructions] = lifetime
	sm.SampleCores([]int{0})
	r.now = Counters{}
	sm.Prime([]int{0})
	r.now[RetiredInstructions] = lifetime + 1000
	if got := sm.SampleCores([]int{0}).RetIns; got != 1000 {
		t.Fatalf("sample after a failed prime retired %d instructions, want 1000", got)
	}
	// A counter that legitimately reads zero (a fixed counter msr.Open
	// zeroed) does not fail the prime of a core never sampled before.
	r.now = Counters{RetiredInstructions: 5000}
	sm = NewSampler(r)
	sm.Prime([]int{0})
	r.now[RetiredInstructions] += 1000
	if got := sm.SampleCores([]int{0}).RetIns; got != 1000 {
		t.Fatalf("sample after priming beside a zero counter retired %d instructions, want 1000", got)
	}
}
