package policy

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// optimizeSplitRef is OptimizeSplit as it stood before the DP resolved
// each candidate's row once per call: Curve.At per
// (budget, ways) pair and fresh buffers per call. It is the oracle the
// row-based DP must match decision for decision.
func optimizeSplitRef(cands []SplitCand, budget int) ([]int, bool) {
	n := len(cands)
	if n == 0 {
		return nil, true
	}
	minSum := 0
	for _, c := range cands {
		minSum += c.Min
	}
	if minSum > budget {
		return nil, false
	}
	const neg = -1e18
	dp := make([]float64, budget+1)
	choice := make([][]int16, n)
	for i, c := range cands {
		ndp := make([]float64, budget+1)
		choice[i] = make([]int16, budget+1)
		for b := range ndp {
			ndp[b] = neg
		}
		for b := 0; b <= budget; b++ {
			for w := c.Min; w <= c.Max && w <= b; w++ {
				v, ok := c.Table.At(w)
				if !ok {
					v = 1
				}
				if dp[b-w] == neg {
					continue
				}
				if nv := dp[b-w] + v; nv > ndp[b] {
					ndp[b] = nv
					choice[i][b] = int16(w)
				}
			}
		}
		dp = ndp
	}
	bestB, bestV := -1, neg
	for b := 0; b <= budget; b++ {
		if dp[b] > bestV {
			bestV = dp[b]
			bestB = b
		}
	}
	if bestB < 0 {
		return nil, false
	}
	out := make([]int, n)
	b := bestB
	for i := n - 1; i >= 0; i-- {
		w := int(choice[i][b])
		out[i] = w
		b -= w
	}
	return out, true
}

// splitCase decodes fuzz bytes into 1–8 candidates and a budget in
// 0–20. Curves are empty, single-entry or sparse over ways 1–13, with
// entries beyond small budgets and values on a coarse grid so ties
// between splits are common; bounds include Min == Max, Max < Min and
// minimums that overrun the budget.
func splitCase(data []byte, budget uint8) ([]SplitCand, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cands := make([]SplitCand, 1+next()%8)
	for i := range cands {
		min := next() % 8
		c := SplitCand{Min: min, Max: min + next()%7 - 1, Table: new(Curve)}
		for k := next() % 8; k > 0; k-- {
			c.Table.Set(1+next()%13, float64(next()%5)/4)
		}
		cands[i] = c
	}
	return cands, int(budget % 21)
}

// checkSplit compares OptimizeSplit, and a scratch dirtied by an
// unrelated solve, against the oracle.
func checkSplit(t *testing.T, cands []SplitCand, budget int) {
	t.Helper()
	want, wantOK := optimizeSplitRef(cands, budget)
	got, ok := OptimizeSplit(cands, budget)
	if ok != wantOK || !slices.Equal(got, want) {
		t.Fatalf("OptimizeSplit(%v, %d) = %v %v, reference %v %v", cands, budget, got, ok, want, wantOK)
	}
	var s splitScratch
	dirty := slices.Clone(cands)
	slices.Reverse(dirty)
	s.optimize(dirty, budget+7)
	got, ok = s.optimize(cands, budget)
	if ok != wantOK || !slices.Equal(got, want) {
		t.Fatalf("reused scratch on (%v, %d) = %v %v, reference %v %v", cands, budget, got, ok, want, wantOK)
	}
}

func FuzzOptimizeSplit(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 3, 1, 4, 3, 9, 5, 8, 2, 2, 6, 2, 7}, uint8(10))
	f.Add([]byte{7, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0}, uint8(20))
	f.Add([]byte{2, 3, 1, 1, 23, 8, 5, 3, 2, 4, 4, 6, 6, 9, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, budget uint8) {
		cands, b := splitCase(data, budget)
		checkSplit(t, cands, b)
	})
}

// TestOptimizeSplitMatchesReference runs the fuzz property over a fixed
// pseudo-random sample on every test run.
func TestOptimizeSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		cands, b := splitCase(data, uint8(rng.Intn(256)))
		checkSplit(t, cands, b)
	}
}

// predictRef is predict as it stood before the sort-free scan: keys
// sorted ascending, first strictly larger count wins.
func predictRef(p *Predictive, st *ModelState, from int64) (int64, float64, bool) {
	tos := st.Transitions[from]
	if len(tos) == 0 {
		return 0, 0, false
	}
	keys := make([]int64, 0, len(tos))
	total := 0
	for k, n := range tos {
		keys = append(keys, k)
		total += n
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	best, bestN := int64(0), 0
	for _, k := range keys {
		if tos[k] > bestN {
			best, bestN = k, tos[k]
		}
	}
	conf := float64(bestN) / float64(total)
	if bestN < p.cfg.MinSamples || conf < p.cfg.MinConfidence {
		return 0, 0, false
	}
	return best, conf, true
}

// TestPredictTieBreaksToSmallestKey: equal transition counts resolve to
// the smallest phase key, negative keys included, whatever order the map
// yields them in.
func TestPredictTieBreaksToSmallestKey(t *testing.T) {
	p := NewPredictive(PredictiveConfig{MinConfidence: 0.2, MinSamples: 2, MaxPhases: 32})
	for _, tc := range []struct {
		tos  map[int64]int
		want int64
	}{
		{map[int64]int{5: 3, 2: 3, 9: 3}, 2},
		{map[int64]int{-4: 2, 7: 2, -9: 2}, -9},
		{map[int64]int{-2147483648: 4, 0: 4, 3: 1}, -2147483648},
		{map[int64]int{-1: 2, 1: 5, 0: 5}, 0},
		{map[int64]int{12: 3}, 12},
	} {
		st := &ModelState{Transitions: map[int64]map[int64]int{0: tc.tos}}
		for rep := 0; rep < 20; rep++ { // map order varies between ranges
			got, _, ok := p.predict(st, 0)
			if !ok || got != tc.want {
				t.Fatalf("predict over %v = %d (ok %v), want %d", tc.tos, got, ok, tc.want)
			}
		}
	}

	// And the scan agrees with the sorted reference on random models,
	// including zero counts from an imported state.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		cfg := PredictiveConfig{MinConfidence: rng.Float64() * 0.8, MinSamples: rng.Intn(3), MaxPhases: 32}
		p := NewPredictive(cfg)
		tos := map[int64]int{}
		for k := rng.Intn(6); k > 0; k-- {
			tos[int64(rng.Intn(9)-4)] = rng.Intn(4)
		}
		st := &ModelState{Transitions: map[int64]map[int64]int{0: tos}}
		wTo, wConf, wOK := predictRef(p, st, 0)
		gTo, gConf, gOK := p.predict(st, 0)
		same := gConf == wConf || (gConf != gConf && wConf != wConf) // NaN when all counts are 0
		if gTo != wTo || !same || gOK != wOK {
			t.Fatalf("predict(%v, cfg %+v) = %d %v %v, reference %d %v %v",
				tos, cfg, gTo, gConf, gOK, wTo, wConf, wOK)
		}
	}
}
