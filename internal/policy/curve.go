package policy

// Curve maps a way count to the normalized IPC (relative to the phase's
// baseline) measured at that allocation — the paper's per-phase
// performance table (§3.5, Table 1). Curves are sparse: only reached
// allocations have entries. core.PerfTable aliases this type, so the
// controller's live tables flow into WorkloadView without copying.
type Curve map[int]float64

// Set records a measurement.
func (t Curve) Set(ways int, normIPC float64) { t[ways] = normIPC }

// At returns the normalized IPC expected at the given way count, using
// the nearest measured allocation at or below it (cache benefit is
// monotone enough for planning purposes). ok is false when no entry at
// or below ways exists.
func (t Curve) At(ways int) (float64, bool) {
	best := -1
	for w := range t {
		if w <= ways && w > best {
			best = w
		}
	}
	if best < 0 {
		return 0, false
	}
	return t[best], true
}

// Preferred returns the smallest way count achieving within tol of the
// curve's maximum normalized IPC — the paper's "preferred" allocation
// (Table 1 marks 6 ways preferred because 7 and 8 add nothing).
func (t Curve) Preferred(tol float64) (ways int, ok bool) {
	if len(t) == 0 {
		return 0, false
	}
	max := 0.0
	for _, v := range t {
		if v > max {
			max = v
		}
	}
	best := -1
	for w, v := range t {
		if v >= max-tol && (best == -1 || w < best) {
			best = w
		}
	}
	return best, best >= 0
}

// Max returns the largest measured way count.
func (t Curve) Max() int {
	max := 0
	for w := range t {
		if w > max {
			max = w
		}
	}
	return max
}

// Clone copies the curve (history snapshots must not alias live state).
func (t Curve) Clone() Curve {
	c := make(Curve, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// SplitCand is one workload's entry in OptimizeSplit: its curve and
// its way bounds (Min ≥ 0).
type SplitCand struct {
	Table    Curve
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
	// row i starting at rows[i]; has marks the ways its curve measured.
	vals    []float64
	has     []bool
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
// can try, Min through min(Max, budget), in one pass over its curve:
// Curve.At per way, without a map scan per way. A way with no entry at
// or below it is worth 1 (baseline-equivalent).
func (s *splitScratch) fillRows(cands []SplitCand, budget int) {
	s.rows = grow(s.rows, len(cands)+1)
	total := 0
	for i, c := range cands {
		s.rows[i] = total
		total += max(min(c.Max, budget)-c.Min+1, 0)
	}
	s.rows[len(cands)] = total
	s.vals, s.has = grow(s.vals, total), grow(s.has, total)
	for i, c := range cands {
		row, has := s.vals[s.rows[i]:s.rows[i+1]], s.has[s.rows[i]:s.rows[i+1]]
		clear(has)
		// below is the curve's value at its largest way under Min.
		below, belowW := 1.0, -1
		for w, v := range c.Table {
			switch {
			case w < c.Min:
				if w > belowW {
					below, belowW = v, w
				}
			case w-c.Min < len(row):
				row[w-c.Min], has[w-c.Min] = v, true
			}
		}
		for k := range row {
			if has[k] {
				below = row[k]
			} else {
				row[k] = below
			}
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
