package core

import (
	"math"
	"testing"
)

// This file transcribes paper §3.4 / Fig. 6, and the four extensions
// DESIGN §6b lists, as a table, and checks next against it: exhaustively
// over a discretised input space (TestCategorizeMatchesFig6) and on
// continuous inputs (FuzzCategorize).

// side is where a value falls relative to its threshold.
type side int8

const (
	below side = iota
	at
	above
)

func (s side) String() string { return [...]string{"below", "at", "above"}[s] }

func sideOf[T int | uint64 | float64](v, thr T) side {
	switch {
	case v < thr:
		return below
	case v > thr:
		return above
	}
	return at
}

// The comparisons the state machine makes, each a value against its
// threshold.
const (
	cL1      = iota // l1_ref vs l1_ref_thr
	cLLC            // llc_ref vs llc_ref_thr
	cMiss           // llc_miss_rate vs llc_miss_rate_thr
	cImp            // IPC gain over the last interval vs ipc_imp_thr (0 with no last IPC)
	cPerf           // IPC vs baseline IPC × (1 − ipc_imp_thr)
	cBase           // ways vs baseline
	cMinimal        // ways vs 1
	cStream         // ways vs streaming_mult × baseline
	cGrew           // ways vs the previous interval's ways
	cJump           // reuse target vs ways
	cFlat           // |miss − last miss| vs 10 % of last miss (grace end)
	nCmp
)

// fig6Ties decides, for every comparison, the side a value equal to its
// threshold takes: low means the "below" branch. The paper states each
// test as "below" or "above" and leaves equality open.
var fig6Ties = [nCmp]struct {
	name string
	low  bool
	why  string
}{
	cL1:      {"l1_ref == l1_ref_thr is idle", true, "the threshold is the activity a VM must exceed to count as running"},
	cLLC:     {"llc_ref == llc_ref_thr is not using the LLC", true, "likewise the LLC use a VM must exceed to count as a user"},
	cMiss:    {"llc_miss_rate == llc_miss_rate_thr is a non-trivial miss rate", false, "Keeper/Donor need the rate strictly below the threshold; reaching it is missing"},
	cImp:     {"a gain of exactly ipc_imp_thr is an improvement", false, "ipc_imp_thr is the minimum gain that justifies keeping a way (Config.IPCImpThr)"},
	cPerf:    {"IPC exactly ipc_imp_thr below baseline keeps the donation", false, "the guarantee fires on a loss beyond the tolerance the improvement test uses"},
	cBase:    {"ways == baseline is not a donation", false, "the guarantee Keeper takes donated ways back; at the baseline none were donated"},
	cMinimal: {"ways == 1 is the minimal Donor", true, "one way is the CAT floor: a Donor there has nothing left to give"},
	cStream:  {"ways == streaming_mult × baseline has reached the streaming threshold", false, "§3.4 demotes an Unknown once it has grown to that size without gain"},
	cGrew:    {"ways == previous ways did not grow", true, "only an added way is evidence for the improvement tests"},
	cJump:    {"a reuse target equal to the ways is reached", true, "the jump is spent once the allocation stands at the target"},
	cFlat:    {"a miss-rate change of exactly 10 % is flat", true, "the grace ends once consecutive rates are within 10 % of each other, boundary included"},
}

// cell is one input, discretised: the state, the flags, and the side of
// every comparison.
type cell struct {
	state                              State
	settled, graced, denied, poolEmpty bool
	measured, hadMiss                  bool // baseline IPC measured; last interval's miss rate > 0
	s                                  [nCmp]side
}

func (c *cell) low(k int) bool  { return c.s[k] == below || c.s[k] == at && fig6Ties[k].low }
func (c *cell) high(k int) bool { return !c.low(k) }

// classify discretises an input against cfg's thresholds.
func classify(cfg *Config, in catIn) cell {
	c := cell{
		state:     in.state,
		settled:   in.settled,
		graced:    in.graceLeft > 0,
		denied:    in.denied,
		poolEmpty: in.poolEmpty,
		measured:  in.baselineIPC > 0,
		hadMiss:   in.lastMiss > 0,
	}
	imp := 0.0
	if in.lastIPC > 0 {
		imp = (in.ipc - in.lastIPC) / in.lastIPC
	}
	c.s[cL1] = sideOf(in.l1Ref, cfg.L1RefThr)
	c.s[cLLC] = sideOf(in.llcRef, cfg.LLCRefThr)
	c.s[cMiss] = sideOf(in.miss, cfg.LLCMissRateThr)
	c.s[cImp] = sideOf(imp, cfg.IPCImpThr)
	c.s[cPerf] = sideOf(in.ipc, in.baselineIPC*(1-cfg.IPCImpThr))
	c.s[cBase] = sideOf(in.ways, in.baseline)
	c.s[cMinimal] = sideOf(in.ways, 1)
	c.s[cStream] = sideOf(in.ways, cfg.StreamingMult*in.baseline)
	c.s[cGrew] = sideOf(in.ways, in.prevWays)
	c.s[cJump] = sideOf(in.jumpTo, in.ways)
	c.s[cFlat] = sideOf(math.Abs(in.miss-in.lastMiss), 0.1*in.lastMiss)
	return c
}

// desireRule is how a row sets the desired way count.
type desireRule int8

const (
	dOne      desireRule = iota // the 1-way minimum
	dWays                       // the current ways
	dShrink                     // one way fewer
	dGrow                       // GrowthStep more
	dBaseline                   // the contracted baseline
	dJump                       // the reuse target
)

// hold as a row's verdict keeps the category (no transition, no reason).
const hold State = -1

// fig6Row is one rule: the first row whose when holds decides. settle
// marks the workload settled for the phase, spend clears its reuse
// target, and pause freezes the arrival grace countdown.
type fig6Row struct {
	name   string
	when   func(c *cell) bool
	to     State
	reason string
	desire desireRule
	settle bool
	spend  bool
	pause  bool
}

func from(c *cell, states ...State) bool {
	for _, s := range states {
		if c.state == s {
			return true
		}
	}
	return false
}

// fig6 is paper Fig. 6 and §3.4 in priority order. A row's name cites
// its source: the paper, or the DESIGN section of a repo extension.
var fig6 = []fig6Row{
	{name: "§3.4 Reclaim outranks everything and holds the baseline; DESIGN §11 arrival grace: the countdown pauses in Reclaim",
		when: func(c *cell) bool { return from(c, StateReclaim) }, to: hold, desire: dBaseline, pause: true},
	{name: "§3.4 idle: l1_ref at or below l1_ref_thr → Donor at the minimum",
		when: func(c *cell) bool { return c.low(cL1) }, to: StateDonor, reason: reasonIdle, desire: dOne, settle: true},
	{name: "§3.4 no LLC use: llc_ref at or below llc_ref_thr → Donor at the minimum",
		when: func(c *cell) bool { return c.low(cLLC) }, to: StateDonor, reason: reasonIdle, desire: dOne, settle: true},
	{name: "§3.4 Streaming is a terminal Donor for the phase",
		when: func(c *cell) bool { return from(c, StateStreaming) }, to: hold, desire: dOne},
	{name: "DESIGN §2 guarantee Keeper: a donation that costs measured baseline IPC is taken back",
		when: func(c *cell) bool { return c.measured && c.low(cBase) && c.low(cPerf) },
		to:   StateKeeper, reason: reasonGuarantee, desire: dBaseline, settle: true},

	// Trivial miss rate.
	{name: "DESIGN §1 table-reuse jump: a settled workload below its reuse target climbs to it",
		when: func(c *cell) bool { return c.low(cMiss) && c.settled && c.high(cJump) },
		to:   StateKeeper, reason: reasonSettledHold, desire: dJump},
	{name: "§3.4 a settled workload that does not miss holds as Keeper",
		when: func(c *cell) bool { return c.low(cMiss) && c.settled },
		to:   StateKeeper, reason: reasonSettledHold, desire: dWays, spend: true},
	{name: "§3.4 Receiver or Unknown whose misses fell below threshold → Keeper",
		when: func(c *cell) bool { return c.low(cMiss) && from(c, StateReceiver, StateUnknown) },
		to:   StateKeeper, reason: reasonFits, desire: dWays, settle: true},
	{name: "§3.4 Donor at the 1-way minimum",
		when: func(c *cell) bool { return c.low(cMiss) && c.low(cMinimal) },
		to:   StateDonor, reason: reasonMinimalDonor, desire: dOne, settle: true},
	{name: "§3.4 Donor gives back one way per round",
		when: func(c *cell) bool { return c.low(cMiss) },
		to:   StateDonor, reason: reasonShrinking, desire: dShrink},

	// Non-trivial miss rate.
	{name: "§3.4 shrinking Donor uncovered its working set → Keeper",
		when: func(c *cell) bool { return from(c, StateDonor) },
		to:   StateKeeper, reason: reasonUncovered, desire: dWays, settle: true},
	{name: "DESIGN §1 table-reuse jump: a settled Keeper below its reuse target climbs to it",
		when: func(c *cell) bool { return from(c, StateKeeper) && c.settled && c.high(cJump) },
		to:   hold, desire: dJump},
	{name: "§3.4 settled Keeper holds",
		when: func(c *cell) bool { return from(c, StateKeeper) && c.settled },
		to:   hold, desire: dWays, spend: true},
	{name: "§3.4 Keeper with misses probes with more cache → Unknown",
		when: func(c *cell) bool { return from(c, StateKeeper) },
		to:   StateUnknown, reason: reasonProbe, desire: dGrow},
	{name: "§3.4 Unknown whose granted way improved IPC → Receiver",
		when: func(c *cell) bool { return from(c, StateUnknown) && c.high(cGrew) && c.high(cImp) },
		to:   StateReceiver, reason: reasonImproved, desire: dGrow},
	{name: "DESIGN §11 arrival grace: an arrival keeps probing, both Streaming verdicts suspended",
		when: func(c *cell) bool { return from(c, StateUnknown) && c.graced },
		to:   hold, desire: dGrow},
	{name: "§3.4 Unknown grown to streaming_mult × baseline (or the pool drained) without gain → Streaming",
		when: func(c *cell) bool { return from(c, StateUnknown) && c.high(cGrew) && (c.high(cStream) || c.poolEmpty) },
		to:   StateStreaming, reason: reasonStreamingProbe, desire: dOne, settle: true},
	{name: "DESIGN §6b Streaming on denial: growth denied at the streaming threshold → Streaming",
		when: func(c *cell) bool { return from(c, StateUnknown) && c.low(cGrew) && c.denied && c.high(cStream) },
		to:   StateStreaming, reason: reasonStreamingDenied, desire: dOne, settle: true},
	{name: "§3.4 Unknown keeps probing",
		when: func(c *cell) bool { return from(c, StateUnknown) },
		to:   hold, desire: dGrow},
	{name: "§3.4 Receiver whose last way added nothing → Keeper",
		when: func(c *cell) bool { return from(c, StateReceiver) && c.high(cGrew) && c.low(cImp) },
		to:   StateKeeper, reason: reasonNoGain, desire: dWays, settle: true},
	{name: "§3.4 Receiver keeps growing",
		when: func(c *cell) bool { return from(c, StateReceiver) },
		to:   hold, desire: dGrow},
}

// fig6Verdict is the table's decision for in, classified as c: the
// index of the deciding row and the output it prescribes (-1 when no
// row applies).
func fig6Verdict(cfg *Config, in catIn, c *cell) (int, catOut) {
	for i := range fig6 {
		r := &fig6[i]
		if !r.when(c) {
			continue
		}
		out := catOut{state: in.state, settled: in.settled || r.settle, graceLeft: in.graceLeft, jumpTo: in.jumpTo}
		if r.to != hold {
			out.state, out.reason = r.to, r.reason
		}
		switch r.desire {
		case dOne:
			out.desire = 1
		case dWays:
			out.desire = in.ways
		case dShrink:
			out.desire = in.ways - 1
		case dGrow:
			out.desire = in.ways + cfg.GrowthStep
		case dBaseline:
			out.desire = in.baseline
		case dJump:
			out.desire = in.jumpTo
		}
		if r.spend {
			out.jumpTo = 0
		}
		if c.graced && !r.pause {
			out.graceLeft--
			if c.hadMiss && c.low(cFlat) {
				out.graceLeft = 0
			}
		}
		return i, out
	}
	return -1, catOut{}
}

// fig6Config has thresholds whose products with the grid's values are
// exact in binary floating point, so every comparison can be taken
// exactly at its threshold.
func fig6Config() Config {
	cfg := DefaultConfig()
	cfg.LLCMissRateThr = 8.0 / 256
	cfg.IPCImpThr = 1.0 / 16
	cfg.StreamingMult = 2
	return cfg
}

// TestCategorizeMatchesFig6 is a bounded model check of next: it
// enumerates every state, every settled / graced / denied / pool-empty /
// grew combination, ways 1..6 against baselines 1..3, and values below,
// at and above every threshold, and diffs next against the table on
// each. It also checks that the grid reaches every side of every
// comparison and every row of the table.
func TestCategorizeMatchesFig6(t *testing.T) {
	cfg := fig6Config()
	const thrL1, thrLLC = 1000, 2000
	if cfg.L1RefThr != thrL1 || cfg.LLCRefThr != thrLLC {
		t.Fatalf("reference thresholds moved: l1 %d, llc %d", cfg.L1RefThr, cfg.LLCRefThr)
	}
	refs := [][2]uint64{{1001, 2001}, {1000, 2001}, {999, 2001}, {1001, 2000}, {1001, 1999}}
	imp := cfg.IPCImpThr
	// IPCs against a last and a baseline IPC of 1: the gain and the
	// guarantee's floor (1 − imp) each below, at and above.
	ipcs := []float64{1 - 2*imp, 1 - imp, 1 + imp, 1 + 2*imp}
	// Miss-rate pairs (last, now) in 256ths: each last rate's 10 %
	// tolerance is exact, and the pairs put the rate below, at and above
	// llc_miss_rate_thr (8) and the change below, at and above the
	// tolerance. A last rate of 0 has no tolerance to end the grace with,
	// not even when the rate stays 0.
	misses := [][2]float64{{0, 0}, {0, 7}, {0, 9}, {5, 4.5}, {5, 5}, {5, 7}, {10, 8}, {10, 9}, {10, 10}, {10, 12}}

	var in catIn
	axes := []struct {
		n   int
		set func(i int)
	}{
		{NumStates, func(i int) { in.state = State(i) }},
		{2, func(i int) { in.settled = i == 1 }},
		{3, func(i int) { in.baseline = 1 + i }},
		{6, func(i int) { in.ways = 1 + i }},
		{3, func(i int) { in.prevWays = in.ways - 1 + i }},             // grew, flat, shrank
		{3, func(i int) { in.jumpTo = min(i, 1) * (in.ways + i - 1) }}, // none, at, above
		{2, func(i int) { in.denied = i == 1 }},
		{2, func(i int) { in.poolEmpty = i == 1 }},
		{3, func(i int) { in.graceLeft = i }},
		{2, func(i int) { in.lastIPC = float64(i) }},
		{2, func(i int) { in.baselineIPC = float64(i) }},
		{len(ipcs), func(i int) { in.ipc = ipcs[i] }},
		{len(misses), func(i int) { in.lastMiss, in.miss = misses[i][0]/256, misses[i][1]/256 }},
		{len(refs), func(i int) { in.l1Ref, in.llcRef = refs[i][0], refs[i][1] }},
	}
	var seen [nCmp][3]bool
	rowHits := make([]int, len(fig6))
	cases := 0
	for idx := make([]int, len(axes)); ; {
		for k, a := range axes {
			a.set(idx[k])
		}
		cases++
		c := classify(&cfg, in)
		row, want := fig6Verdict(&cfg, in, &c)
		if row < 0 {
			t.Fatalf("no table row for %+v", in)
		}
		rowHits[row]++
		for k, sd := range c.s {
			seen[k][sd] = true
		}
		if got := next(&cfg, &in); got != want {
			t.Fatalf("next(%+v)\n got %+v\nwant %+v (row %q)", in, got, want, fig6[row].name)
		}
		k := len(axes) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < axes[k].n {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			break
		}
	}
	t.Logf("%d cases", cases)
	for k, sides := range seen {
		for sd, ok := range sides {
			// Ways below 1 lie outside the domain: every workload holds
			// at least one way.
			if !ok && !(k == cMinimal && side(sd) == below) {
				t.Errorf("comparison %q never taken %v its threshold", fig6Ties[k].name, side(sd))
			}
		}
	}
	for i, n := range rowHits {
		if n == 0 {
			t.Errorf("table row %q never decides", fig6[i].name)
		}
	}
}

// FuzzCategorize runs next on continuous inputs — rates, IPCs and counts
// off the grid — against the table and the transition's invariants.
func FuzzCategorize(f *testing.F) {
	f.Add(uint8(StateUnknown), false, uint8(6), uint8(5), uint8(2), uint8(0), uint8(0), false, false,
		1.0, 1.0, 0.2, 1.05, 0.2, uint64(500_000), uint64(400_000))
	f.Add(uint8(StateUnknown), false, uint8(6), uint8(6), uint8(2), uint8(2), uint8(0), true, true,
		1.0, 1.0, 0.5, 1.0, 0.9, uint64(1000), uint64(2001))
	f.Add(uint8(StateKeeper), true, uint8(3), uint8(3), uint8(3), uint8(1), uint8(7), false, false,
		1.0, 0.9, 0.01, 0.8, 0.01, uint64(500_000), uint64(400_000))
	f.Add(uint8(StateReclaim), false, uint8(9), uint8(9), uint8(2), uint8(3), uint8(0), false, true,
		0.0, 0.0, 0.0, 0.0, 0.0, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, state uint8, settled bool, ways, prevWays, baseline, graceLeft, jumpTo uint8,
		denied, poolEmpty bool, baselineIPC, lastIPC, lastMiss, ipc, miss float64, l1Ref, llcRef uint64) {
		for _, v := range []float64{baselineIPC, lastIPC, lastMiss, ipc, miss} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // counter-derived rates are finite
			}
		}
		in := catIn{
			catState: catState{
				state:       State(int(state) % NumStates),
				settled:     settled,
				ways:        1 + int(ways)%24,
				prevWays:    int(prevWays) % 25,
				baseline:    1 + int(baseline)%8,
				graceLeft:   int(graceLeft) % 6,
				jumpTo:      int(jumpTo) % 25,
				denied:      denied,
				baselineIPC: math.Abs(baselineIPC),
				lastIPC:     math.Abs(lastIPC),
				lastMiss:    math.Abs(lastMiss),
			},
			ipc:       math.Abs(ipc),
			miss:      math.Abs(miss),
			l1Ref:     l1Ref,
			llcRef:    llcRef,
			poolEmpty: poolEmpty,
		}
		cfg := DefaultConfig()
		got := next(&cfg, &in)
		if got.desire < 1 {
			t.Errorf("desire %d below the 1-way minimum for %+v", got.desire, in)
		}
		if in.graceLeft > 0 && in.state != StateStreaming && got.state == StateStreaming {
			t.Errorf("Streaming verdict while graced for %+v", in)
		}
		if in.state == StateReclaim && (got.state != StateReclaim || got.desire != in.baseline) {
			t.Errorf("Reclaim left or off its baseline (%v, desire %d) for %+v", got.state, got.desire, in)
		}
		if in.settled && !got.settled {
			t.Errorf("settled cleared outside a phase change for %+v", in)
		}
		c := classify(&cfg, in)
		row, want := fig6Verdict(&cfg, in, &c)
		if row < 0 || got != want {
			t.Errorf("next(%+v)\n got %+v\nwant %+v (row %d)", in, got, want, row)
		}
	})
}
