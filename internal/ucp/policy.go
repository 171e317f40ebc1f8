package ucp

import "repro/internal/policy"

// Policy is UCP behind the policy.AllocationPolicy interface: every
// round is one UCP epoch — read each workload's shadow-tag utility
// curve, run the lookahead allocation, decay the monitors — so UCP runs
// inside the dCat controller harness and lands in the same comparison
// tables as the other allocation engines.
//
// UCP needs an access stream per workload (the UMON shadow tags), which
// the policy view does not carry; the harness supplies monitorOf to
// resolve a workload name to its attached Monitor. Workload sets
// without full monitor coverage fall back to an even split for the
// round.
//
// It is an Independent allocator: UCP maximizes aggregate hits and has
// no per-tenant floor (exactly the contrast with dCat's baseline
// guarantee), so the controller only enforces the ≥1-way and
// sum-within-associativity invariants.
type Policy struct {
	monitorOf func(name string) *Monitor
	minWays   int

	curves [][]uint64
	mons   []*Monitor
}

// NewPolicy builds the adapter. monitorOf resolves a workload name to
// its shadow-tag monitor (return nil for unmonitored workloads);
// minWays floors every allocation (≥1 enforced).
func NewPolicy(monitorOf func(name string) *Monitor, minWays int) *Policy {
	if minWays < 1 {
		minWays = 1
	}
	return &Policy{monitorOf: monitorOf, minWays: minWays}
}

// Name implements policy.AllocationPolicy.
func (p *Policy) Name() string { return "ucp" }

// IndependentAllocator implements policy.Independent.
func (p *Policy) IndependentAllocator() bool { return true }

// Propose implements policy.AllocationPolicy.
func (p *Policy) Propose(v *policy.View, g *policy.Grants) {
	g.Reset(len(v.Workloads))
	total := v.TotalWays
	p.curves = p.curves[:0]
	p.mons = p.mons[:0]
	covered := true
	for i := range v.Workloads {
		mon := p.monitorOf(v.Workloads[i].Name)
		if mon == nil {
			covered = false
			break
		}
		p.mons = append(p.mons, mon)
		p.curves = append(p.curves, mon.MissCurve())
	}
	if covered {
		if alloc, err := Lookahead(p.curves, total, p.minWays); err == nil {
			for i, w := range alloc {
				g.Ways[i] = w
			}
			for _, mon := range p.mons {
				mon.Reset()
			}
			return
		}
	}
	policy.EvenSplit(g.Ways, total)
}
