// Package ucp implements Utility-based Cache Partitioning (Qureshi &
// Patt, MICRO 2006) — the classic dynamic partitioner the dCat paper
// discusses among its alternatives ([36] in its related work). It
// serves as the comparison baseline for dCat: UCP maximizes aggregate
// hit count, but offers no per-tenant performance floor, which is
// exactly the gap dCat's baseline guarantee fills (§2.2: prior works
// "focus on improving overall system miss-rate/performance, not
// performance isolation").
//
// Each workload gets a UMON-like shadow-tag monitor: a sampled set of
// LRU stacks, one per sampled cache set, with a hit counter per stack
// position. The counter at position i estimates how many extra hits an
// i-th way would have provided, so the prefix sums form the workload's
// utility (miss) curve. The lookahead algorithm then assigns ways to
// the workload with the highest marginal utility until the cache is
// exhausted.
package ucp

import "fmt"

// Monitor is a UMON: a sampled shadow tag directory with per-LRU-
// position hit counters.
type Monitor struct {
	realSets    int
	ways        int
	sampleEvery int

	// stacks[s] is the LRU stack of sampled set s: stacks[s][0] is
	// MRU. Zero entries are invalid (line addresses are stored +1).
	stacks [][]uint64
	// posHits[i] counts hits at LRU stack depth i (0-based).
	posHits  []uint64
	misses   uint64
	accesses uint64
}

// NewMonitor creates a shadow directory for a cache with realSets sets
// and the given associativity, sampling one in sampleEvery sets (the
// UCP paper uses 1-in-32).
func NewMonitor(realSets, ways, sampleEvery int) (*Monitor, error) {
	if realSets <= 0 || ways <= 0 || sampleEvery <= 0 {
		return nil, fmt.Errorf("ucp: invalid monitor geometry sets=%d ways=%d sample=%d",
			realSets, ways, sampleEvery)
	}
	if sampleEvery > realSets {
		return nil, fmt.Errorf("ucp: sampling interval %d exceeds %d sets", sampleEvery, realSets)
	}
	n := realSets / sampleEvery
	stacks := make([][]uint64, n)
	backing := make([]uint64, n*ways)
	for i := range stacks {
		stacks[i], backing = backing[:ways], backing[ways:]
	}
	return &Monitor{
		realSets:    realSets,
		ways:        ways,
		sampleEvery: sampleEvery,
		stacks:      stacks,
		posHits:     make([]uint64, ways),
	}, nil
}

// Observe feeds one physical line address through the shadow tags.
func (m *Monitor) Observe(line uint64) {
	set := int(line % uint64(m.realSets))
	if set%m.sampleEvery != 0 {
		return
	}
	m.accesses++
	stack := m.stacks[set/m.sampleEvery]
	tag := line + 1
	for i, t := range stack {
		if t == tag {
			m.posHits[i]++
			// Move to MRU.
			copy(stack[1:i+1], stack[:i])
			stack[0] = tag
			return
		}
	}
	// Miss: insert at MRU, dropping the LRU entry.
	m.misses++
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = tag
}

// Accesses returns how many sampled accesses were observed.
func (m *Monitor) Accesses() uint64 { return m.accesses }

// MissCurve returns estimated misses (in sampled accesses) when the
// workload holds k ways, for k = 0..ways: curve[k] = accesses - hits
// within the top k stack positions. It is non-increasing in k.
func (m *Monitor) MissCurve() []uint64 {
	curve := make([]uint64, m.ways+1)
	curve[0] = m.accesses
	hits := uint64(0)
	for i, h := range m.posHits {
		hits += h
		curve[i+1] = m.accesses - hits
	}
	return curve
}

// Reset starts a new measurement epoch. UCP halves history rather than
// clearing it, so allocation reacts to change without thrashing; tags
// stay resident.
func (m *Monitor) Reset() {
	for i := range m.posHits {
		m.posHits[i] /= 2
	}
	m.misses /= 2
	m.accesses /= 2
}

// Lookahead implements the UCP lookahead allocation: distribute
// totalWays among the curves, each getting at least minWays, greedily
// by maximum marginal utility (hits gained per way). curves[i][k] is
// workload i's misses at k ways.
func Lookahead(curves [][]uint64, totalWays, minWays int) ([]int, error) {
	n := len(curves)
	if n == 0 {
		return nil, nil
	}
	if minWays < 1 {
		minWays = 1
	}
	if n*minWays > totalWays {
		return nil, fmt.Errorf("ucp: %d workloads need %d ways minimum, have %d",
			n, n*minWays, totalWays)
	}
	alloc := make([]int, n)
	spent := 0
	for i := range alloc {
		alloc[i] = minWays
		spent += minWays
	}
	for spent < totalWays {
		best, bestStep := -1, 0
		bestUtil := -1.0
		for i, curve := range curves {
			maxK := len(curve) - 1
			if alloc[i] >= maxK {
				continue
			}
			// Max marginal utility over any feasible step size
			// (the lookahead part: a big step can beat a flat
			// single-way gain).
			for step := 1; alloc[i]+step <= maxK && spent+step <= totalWays; step++ {
				gained := float64(curve[alloc[i]] - curve[alloc[i]+step])
				util := gained / float64(step)
				if util > bestUtil {
					bestUtil = util
					best = i
					bestStep = step
				}
			}
		}
		if best < 0 || bestUtil <= 0 {
			break // nobody benefits from more cache
		}
		alloc[best] += bestStep
		spent += bestStep
	}
	return alloc, nil
}
