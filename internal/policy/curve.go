package policy

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// Curve is the paper's per-phase performance table (§3.5, Table 1): the
// normalized IPC (relative to the phase's baseline) measured at each way
// count 1..bits.MaxWays. Curves are sparse — only reached allocations
// are measured — but dense in layout: one value slot per way count and
// a mask of the measured ones. A copy is a plain assignment, and every
// query is a bit operation or one walk in ascending way order.
type Curve struct {
	vals [bits.MaxWays]float64 // vals[w-1] is the value at w ways
	mask uint64                // bit w-1 marks w ways as measured
}

// Set records a measurement at ways, which must lie in 1..bits.MaxWays.
func (t *Curve) Set(ways int, normIPC float64) {
	t.vals[ways-1] = normIPC
	t.mask |= 1 << (ways - 1)
}

// Len returns the number of measured way counts.
func (t *Curve) Len() int { return mbits.OnesCount64(t.mask) }

// Max returns the largest measured way count (0 for an empty curve).
func (t *Curve) Max() int { return bits.MaxWays - mbits.LeadingZeros64(t.mask) }

// At returns the normalized IPC expected at the given way count, using
// the nearest measured allocation at or below it (cache benefit is
// monotone enough for planning purposes). ok is false when no entry at
// or below ways exists.
func (t *Curve) At(ways int) (float64, bool) {
	m := t.mask
	switch {
	case ways <= 0:
		return 0, false
	case ways < bits.MaxWays:
		m &= 1<<ways - 1
	}
	if m == 0 {
		return 0, false
	}
	return t.vals[bits.MaxWays-1-mbits.LeadingZeros64(m)], true
}

// peak returns the largest measured normalized IPC, or 0 when no
// measurement is positive.
func (t *Curve) peak() float64 {
	peak := 0.0
	for m := t.mask; m != 0; m &= m - 1 {
		if v := t.vals[mbits.TrailingZeros64(m)]; v > peak {
			peak = v
		}
	}
	return peak
}

// Preferred returns the smallest way count achieving within tol of the
// curve's peak — the paper's "preferred" allocation (Table 1 marks 6
// ways preferred because 7 and 8 add nothing).
func (t *Curve) Preferred(tol float64) (ways int, ok bool) {
	floor := t.peak() - tol
	for m := t.mask; m != 0; m &= m - 1 {
		if i := mbits.TrailingZeros64(m); t.vals[i] >= floor {
			return i + 1, true
		}
	}
	return 0, false
}

// Ways returns the measured way counts in ascending order.
func (t *Curve) Ways() []int {
	ways := make([]int, 0, t.Len())
	for m := t.mask; m != 0; m &= m - 1 {
		ways = append(ways, mbits.TrailingZeros64(m)+1)
	}
	return ways
}

// SplitCand is one workload's entry in OptimizeSplit: its curve and
// its way bounds (Min ≥ 0).
type SplitCand struct {
	Table    *Curve
	Min, Max int
}

// splitCand bounds workload i, granted ways this round, for the split:
// at most one growth step past its curve's measured edge (within the
// socket and the advisory cap, never below baseline), at least its
// baseline. A still-exploring workload keeps what it was just granted:
// its curve has no data beyond that, so the optimizer would otherwise
// strip every probe before it can be measured.
func (v *View) splitCand(i, granted int) SplitCand {
	w := &v.Workloads[i]
	hi := min(w.Curve.Max()+v.GrowthStep, v.TotalWays)
	if w.CapWays > 0 {
		hi = min(hi, max(w.CapWays, w.Baseline))
	}
	lo := w.Baseline
	if !w.Settled {
		lo = granted
	}
	return SplitCand{Table: w.Curve, Min: lo, Max: max(hi, w.Baseline, lo)}
}

// OptimizeSplit maximizes the summed normalized IPC across workloads by
// dynamic programming — the §3.5 max-performance policy:
//
//	Max Σ norm_IPC_i  subject to  Σ ways_i ≤ budget,  min_i ≤ ways_i ≤ max_i.
//
// A candidate's value at a way count falls back to the nearest lower
// curve entry. Returns the chosen ways per candidate (len(cands)), or
// ok=false when the bounds cannot fit the budget.
func OptimizeSplit(cands []SplitCand, budget int) ([]int, bool) {
	var s splitScratch
	return s.optimize(cands, budget)
}

// splitScratch is OptimizeSplit's working memory. The policies that run
// the DP every tick keep one beside their candidate slice, so a steady
// tick allocates nothing for it.
type splitScratch struct {
	// vals holds every candidate's value at each way count it may take,
	// row i starting at rows[i].
	vals    []float64
	rows    []int
	dp, ndp []float64
	choice  []int16 // n rows of budget+1
	out     []int
}

// optimize is OptimizeSplit over s's buffers. The returned slice is
// s's own and valid until the next call.
func (s *splitScratch) optimize(cands []SplitCand, budget int) ([]int, bool) {
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
	s.fillRows(cands, budget)
	const neg = -1e18
	// dp[b] = best value using budget b over candidates seen so far;
	// choice[i*stride+b] = ways picked for candidate i at budget b.
	stride := budget + 1
	dp, ndp := grow(s.dp, stride), grow(s.ndp, stride)
	for b := range dp {
		dp[b] = 0 // zero candidates, any budget: value 0
	}
	s.choice = grow(s.choice, n*stride)
	for i, c := range cands {
		row := s.vals[s.rows[i]:s.rows[i+1]]
		choice := s.choice[i*stride : (i+1)*stride]
		for b := range ndp {
			ndp[b] = neg
		}
		for b := 0; b <= budget; b++ {
			for w := c.Min; w <= c.Max && w <= b; w++ {
				if dp[b-w] == neg {
					continue
				}
				if nv := dp[b-w] + row[w-c.Min]; nv > ndp[b] {
					ndp[b] = nv
					choice[b] = int16(w)
				}
			}
		}
		dp, ndp = ndp, dp
	}
	s.dp, s.ndp = dp, ndp
	// Pick the best feasible budget.
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
	s.out = grow(s.out, n)
	b := bestB
	for i := n - 1; i >= 0; i-- {
		w := int(s.choice[i*stride+b])
		s.out[i] = w
		b -= w
	}
	return s.out, true
}

// fillRows resolves each candidate's value at every way count the DP
// can try, Min through min(Max, budget), once per call rather than per
// (budget, ways) pair. A way with no entry at or below it is worth 1
// (baseline-equivalent).
func (s *splitScratch) fillRows(cands []SplitCand, budget int) {
	s.rows = grow(s.rows, len(cands)+1)
	total := 0
	for i, c := range cands {
		s.rows[i] = total
		total += max(min(c.Max, budget)-c.Min+1, 0)
	}
	s.rows[len(cands)] = total
	s.vals = grow(s.vals, total)
	for i, c := range cands {
		row := s.vals[s.rows[i]:s.rows[i+1]]
		for k := range row {
			v, ok := c.Table.At(c.Min + k)
			if !ok {
				v = 1
			}
			row[k] = v
		}
	}
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
