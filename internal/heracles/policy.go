package heracles

import "repro/internal/policy"

// Policy is the Heracles two-class feedback loop behind the
// policy.AllocationPolicy interface, so it runs inside the dCat
// controller harness — the controller's guards, events and CAT
// programming included — and lands in the same comparison tables as the
// other policies.
//
// Each round the named latency-critical workload is regulated against
// TargetIPC: below the margin it confiscates GrowStep ways from the
// best-effort class, above the margin it yields YieldStep back, inside
// it holds. Every other workload is best-effort. Heracles' single
// undifferentiated BE partition is one controller target spanning every
// BE tenant's cores (how comparison-heracles runs it); given several
// non-LC targets instead, the policy spreads the BE ways evenly over
// them, each group keeping at least one way.
//
// It is an Independent allocator: Heracles has no Reclaim/baseline
// contract, so the controller only enforces the ≥1-way and
// sum-within-associativity invariants on its grants, and a target's
// BaselineWays is just the split the run starts from.
type Policy struct {
	cfg    Config
	lcName string
	lcWays int
	inited bool
}

// NewPolicy builds the policy after validating cfg. lcName selects the
// latency-critical workload by controller target name; if no workload
// with that name is present in a round, every workload shares the cache
// evenly.
func NewPolicy(cfg Config, lcName string) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{cfg: cfg, lcName: lcName}, nil
}

// Name implements policy.AllocationPolicy.
func (p *Policy) Name() string { return "heracles" }

// IndependentAllocator implements policy.Independent.
func (p *Policy) IndependentAllocator() bool { return true }

// LCWays reports the latency-critical partition size.
func (p *Policy) LCWays() int { return p.lcWays }

// Propose implements policy.AllocationPolicy.
func (p *Policy) Propose(v *policy.View, g *policy.Grants) {
	g.Reset(len(v.Workloads))
	total := v.TotalWays
	lc := -1
	for i := range v.Workloads {
		if v.Workloads[i].Name == p.lcName {
			lc = i
			break
		}
	}
	if lc < 0 || len(v.Workloads) == 1 {
		policy.EvenSplit(g.Ways, total)
		return
	}
	beFloor := len(v.Workloads) - 1 // one way per best-effort group
	if p.cfg.MinBE > beFloor {
		beFloor = p.cfg.MinBE
	}
	if !p.inited {
		p.inited = true
		p.lcWays = total / 2
	}
	// The feedback round: confiscate under SLO pressure, yield under
	// slack, hold inside the margin.
	ipc := v.Workloads[lc].IPC
	switch {
	case ipc < p.cfg.TargetIPC*(1-p.cfg.Margin):
		p.lcWays += p.cfg.GrowStep
	case ipc > p.cfg.TargetIPC*(1+p.cfg.Margin):
		p.lcWays -= p.cfg.YieldStep
	}
	if max := total - beFloor; p.lcWays > max {
		p.lcWays = max
	}
	if p.lcWays < p.cfg.MinLC {
		p.lcWays = p.cfg.MinLC
	}
	// Spread the best-effort partition evenly, earlier targets first:
	// split it over the first n grants, then shift the tail past the
	// latency-critical slot.
	n := len(v.Workloads) - 1
	policy.EvenSplit(g.Ways[:n], total-p.lcWays)
	copy(g.Ways[lc+1:], g.Ways[lc:n])
	g.Ways[lc] = p.lcWays
}
