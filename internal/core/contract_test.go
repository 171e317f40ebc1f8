package core

import (
	"testing"

	"repro/internal/cat"
	"repro/internal/heracles"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/ucp"
)

// The §3.5 allocator contract (DESIGN §6) checked for every engine:
// FuzzAllocate drives loop.allocate on rounds whose categories and
// desires are ones next can emit and asserts each row of the table on
// the guarded grants. A row an engine is exempt from is skipped for it;
// a named exception row is asserted in its own shape.

// contractEngines names the engines FuzzAllocate draws from; heracles
// treats w0 as its latency-critical workload.
var contractEngines = []string{"reactive", "predictive", "lfoc", "heracles", "ucp"}

// byteStream hands out fuzz bytes, zeros once they run out.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// in draws a value in [lo, hi] (lo when hi < lo).
func (b *byteStream) in(lo, hi int) int {
	if hi <= lo {
		b.next()
		return lo
	}
	return lo + b.next()%(hi-lo+1)
}

func FuzzAllocate(f *testing.F) {
	f.Add(uint8(0), false, []byte{8, 3, 2, 2, 7, 1, 3, 5, 0, 9, 4, 2, 6})
	f.Add(uint8(1), true, []byte{12, 4, 3, 2, 1, 3, 8, 8, 2, 1, 4, 7, 5, 3, 9, 1, 1, 6, 2, 8})
	f.Add(uint8(2), true, []byte{10, 2, 1, 4, 1, 2, 0, 0, 7, 200, 3, 4, 90, 80, 70, 60, 50})
	f.Add(uint8(2), false, []byte{9, 3, 2, 2, 2, 5, 0, 1, 1, 0, 30, 30, 30, 30, 30, 7, 8, 9})
	f.Add(uint8(3), false, []byte{6, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(4), true, []byte{11, 3, 1, 1, 1, 8, 7, 6, 5, 4, 3, 2, 1})
	// The exception rows, as the fuzzer first found them: lfoc squashes
	// a settled flat-curve Keeper to 1 way under its baseline of 2; lfoc
	// and max-performance reactive deny a workload with ways free.
	f.Add(uint8(2), false, []byte("0000102018001"))
	f.Add(uint8(2), false, []byte("00000010170001"))
	f.Add(uint8(0), true, []byte("Y00000000070001000000000000000170001"))
	// predictive: w0 alternates phases 0 and 1 as a settled Keeper whose
	// curve prefers 6 ways, learns 0 → 1 twice, is pre-granted in round
	// 5 and, a Reclaim landing in phase 1 in round 6, sustained.
	keeper := func(phase byte) []byte { return []byte{1, 0, 1, phase, 1, 0, 2, 0, 20, 40, 60, 80, 100, 0} }
	idle := []byte{1, 4, 1, 0, 0, 0}
	seq := []byte{4, 0, 5, 0, 1, 1, 3, 1}
	for _, phase := range []byte{0, 1, 0, 1, 0} {
		seq = append(append(seq, keeper(phase)...), idle...)
	}
	f.Add(uint8(1), false, append(append(seq, 1, 8, 1, 0, 0), idle...))
	f.Fuzz(func(t *testing.T, engine uint8, maxPerf bool, data []byte) {
		in := byteStream(data)
		name := contractEngines[int(engine)%len(contractEngines)]
		total := in.in(4, 12)
		n := in.in(2, 4)
		rounds := in.in(1, 8)

		cfg := DefaultConfig()
		cfg.GrowthStep = in.in(1, 2)
		if maxPerf {
			cfg.Policy = MaxPerformance
		}
		mons := make(map[string]*ucp.Monitor)
		cfg.NewPolicy = func() policy.AllocationPolicy {
			switch name {
			case "heracles":
				p, err := heracles.NewPolicy(heracles.DefaultConfig(1), "w0")
				if err != nil {
					t.Fatal(err)
				}
				return p
			case "ucp":
				return ucp.NewPolicy(func(w string) *ucp.Monitor { return mons[w] }, 1)
			}
			mk, err := policy.New(name)
			if err != nil {
				t.Fatal(err)
			}
			return mk()
		}

		// Baselines fit the socket; the held ways start at a valid
		// layout and are the previous round's grants from then on.
		mgr, err := cat.NewManager(&fakeBackend{ways: total})
		if err != nil {
			t.Fatal(err)
		}
		targets := make([]Target, n)
		left := total
		for i := range targets {
			b := in.in(1, min(3, left-(n-1-i)))
			left -= b
			targets[i] = Target{Name: "w" + string(rune('0'+i)), Cores: []int{i}, BaselineWays: b}
			if name == "ucp" {
				m, err := ucp.NewMonitor(16, total, 1)
				if err != nil {
					t.Fatal(err)
				}
				span := uint64(1 + in.next())
				for a := uint64(0); a < 256; a++ {
					m.Observe(a * 7 % (16 * span))
				}
				mons[targets[i].Name] = m
			}
		}
		ctl, err := New(cfg, mgr, perf.NewFile(n), targets)
		if err != nil {
			t.Fatal(err)
		}
		l := ctl.loops[0]
		held := make([]int, n)
		free := total
		for i := range held {
			held[i] = in.in(1, free-(n-1-i))
			free -= held[i]
		}
		if err := mgr.SetAllocation(held); err != nil {
			t.Fatal(err)
		}
		for i, w := range l.order {
			w.ways = held[i]
		}

		samples := make([]observation, n)
		for r := 0; r < rounds; r++ {
			for i, w := range l.order {
				drawRound(&in, &cfg, total, w)
				samples[i].ipc = 0.2 + float64(in.next())/128
			}
			ways := l.allocate(samples)
			checkContract(t, name, &cfg, l, held, ways)
			if err := mgr.SetAllocation(ways); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			for i, w := range l.order {
				w.ways = ways[i]
				held[i] = ways[i]
			}
			checkInvariants(t, ctl, "round")
			ctl.ticks++
		}
	})
}

// drawRound sets w's category, desire and the rest of the round state
// next reads into a decision, as next can leave them after an
// interval at w.ways: a performance curve over a contiguous run of way
// counts covering the baseline and any jump target.
func drawRound(in *byteStream, cfg *Config, total int, w *wstate) {
	h, b, s := w.ways, w.baseline, cfg.GrowthStep
	w.settled, w.jumpTo, w.graceLeft = false, 0, 0
	w.capWays = 0
	if in.next()%4 == 0 {
		w.capWays = in.in(1, total)
	}
	switch in.next() % 9 {
	case 0: // settled Keeper holding
		w.state, w.settled, w.desire = StateKeeper, true, h
	case 1: // settled Keeper with a table-reuse jump pending
		w.state, w.settled, w.desire = StateKeeper, true, h
		if h < total {
			w.jumpTo = in.in(h+1, total)
			w.desire = w.jumpTo
		}
	case 2: // guarantee Keeper taking its donation back
		w.state, w.settled, w.desire = StateKeeper, true, max(b, h)
	case 3: // Donor shrinking, or minimal
		w.state, w.desire = StateDonor, max(h-1, 1)
		w.settled = h == 1
	case 4: // idle Donor
		w.state, w.settled, w.desire = StateDonor, true, 1
	case 5:
		w.state, w.settled, w.desire = StateStreaming, true, 1
	case 6:
		w.state, w.desire = StateUnknown, h+s
	case 7:
		w.state, w.desire = StateReceiver, h+s
	default:
		w.state, w.desire = StateReclaim, b
	}
	if w.state != StateReclaim && in.next()%5 == 0 {
		w.graceLeft = 1
	}
	w.phase = phaseKey(in.next() % 3)
	w.table = policy.Curve{}
	w.baselineIPC = 0
	if in.next()%4 != 0 {
		w.baselineIPC = 1
		lo := in.in(1, min(b, h))
		hi := in.in(max(b, h, w.jumpTo), total)
		for k := lo; k <= hi; k++ {
			w.table.Set(k, 0.5+float64(in.next())/128)
		}
	}
}

// checkContract asserts DESIGN §6's allocator table on one round: held
// is the allocation before it, ways the guarded grants.
func checkContract(t *testing.T, engine string, cfg *Config, l *loop, held, ways []int) {
	t.Helper()
	total := l.mgr.TotalWays()
	_, independent := l.policy.(policy.Independent)
	redistributes := engine == "lfoc" || cfg.Policy == MaxPerformance
	reclaimInRound := false
	sum, denied := 0, false
	for i, w := range l.order {
		sum += ways[i]
		reclaimInRound = reclaimInRound || w.state == StateReclaim
		denied = denied || (w.state != StateReclaim && ways[i] < w.desire)
	}

	// ≥ 1 way each, and the sum fits.
	if sum > total {
		t.Fatalf("%s: grants %v sum to %d of %d ways", engine, ways, sum, total)
	}
	// The two derived flags, by definition.
	if l.poolEmpty != (sum == total) {
		t.Errorf("%s: poolEmpty=%v with %d of %d ways granted", engine, l.poolEmpty, sum, total)
	}
	// Work conservation, for the dCat engines (the independent ones
	// ignore desires). Exception: a redistribution (max-performance
	// optimize, LFOC's squash and split) can free ways that no denied
	// workload is offered.
	if denied && sum < total && !independent && !redistributes {
		t.Errorf("%s: a workload is denied with %d ways free: grants %v", engine, total-sum, ways)
	}

	for i, w := range l.order {
		g, h, b, d := ways[i], held[i], w.baseline, w.desire
		if g < 1 {
			t.Fatalf("%s: %s granted %d ways", engine, w.name, g)
		}
		if want := w.state != StateReclaim && g < d; w.denied != want {
			t.Errorf("%s: %s (%v) at %d ways desiring %d: denied=%v", engine, w.name, w.state, g, d, w.denied)
		}
		if independent {
			continue // the rows below bind the dCat engines only
		}
		if w.state == StateReclaim {
			// Reclaim is pinned to its baseline; a sustained one holds
			// between its baseline and the ways it had.
			if !l.grants.Sustain[i] && g != b {
				t.Errorf("%s: unsustained Reclaim %s at %d ways, baseline %d", engine, w.name, g, b)
			}
			if l.grants.Sustain[i] && (g < b || g > h) {
				t.Errorf("%s: sustained Reclaim %s at %d ways outside [baseline %d, held %d]", engine, w.name, g, b, h)
			}
			continue
		}
		// Growth of at most GrowthStep, except up to a jump target, up
		// to the baseline, inside a table redistribution (the
		// max-performance split of Keepers and Receivers, or LFOC's
		// sensitive cluster, which may hold a Donor; within the split's
		// bounds) or a predictive pre-grant.
		if g > h+cfg.GrowthStep {
			split := w.baselineIPC > 0 && w.table.Len() >= 3 && g <= max(w.table.Max()+cfg.GrowthStep, b) &&
				(cfg.Policy == MaxPerformance && (w.state == StateKeeper || w.state == StateReceiver) ||
					engine == "lfoc" && w.graceLeft == 0 && (w.state == StateKeeper || w.state == StateReceiver || w.state == StateDonor))
			if !(w.jumpTo > 0 && g <= w.jumpTo) && g > b && !split && !preGranted(l, i, g) {
				t.Errorf("%s: %s (%v) grew %d → %d (step %d, desire %d, jump %d, baseline %d)",
					engine, w.name, w.state, h, g, cfg.GrowthStep, d, w.jumpTo, b)
			}
		}
		// The baseline floor: no cut below min(held, desire, baseline)
		// but to fund a peer's Reclaim. Exception: LFOC squashes a
		// settled flat-curve tenant to its preferred point, which can
		// sit under the baseline.
		if floor := min(h, d, b); g < floor && !reclaimInRound {
			pref, ok := w.table.Preferred(cfg.IPCImpThr / 2)
			squash := engine == "lfoc" && w.settled && ok && g == max(pref, 1)
			if !squash {
				t.Errorf("%s: %s (%v) cut to %d ways, below min(held %d, desire %d, baseline %d)",
					engine, w.name, w.state, g, h, d, b)
			}
		}
	}
}

// preGranted reports whether the round's policy notes pre-grant
// workload i exactly g ways (the predictive engine's phase pre-grant).
func preGranted(l *loop, i, g int) bool {
	for _, n := range l.grants.Notes {
		if n.Kind == policy.NotePreGrant && n.Workload == i && n.Ways == g {
			return true
		}
	}
	return false
}
