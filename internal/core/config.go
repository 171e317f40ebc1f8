// Package core implements the dCat controller — the paper's primary
// contribution (§3): a daemon loop that, every period, collects per-
// workload performance counters, detects phase changes, categorizes
// workloads (Reclaim / Receiver / Donor / Keeper / Streaming /
// Unknown), and re-partitions the LLC through CAT so that every
// workload keeps at least its contracted baseline performance while
// spare capacity flows to workloads that actually benefit.
package core

import (
	"fmt"

	"repro/internal/policy"
)

// Policy selects how spare cache is distributed when several workloads
// want more (§3.5).
type Policy int

const (
	// MaxFairness distributes available ways evenly regardless of the
	// magnitude of each workload's improvement.
	MaxFairness Policy = iota
	// MaxPerformance consults the per-phase performance tables and
	// picks the way split maximizing the sum of normalized IPC.
	MaxPerformance
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MaxFairness:
		return "max-fairness"
	case MaxPerformance:
		return "max-performance"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config holds the controller thresholds (§3.2, §5.1). The zero value
// is not usable; start from DefaultConfig.
type Config struct {
	// LLCRefThr is the per-interval LLC reference count at or below
	// which a workload is considered unable to benefit from the LLC at
	// all (llc_ref_thr): it becomes a Donor at the minimum allocation.
	LLCRefThr uint64
	// L1RefThr is the per-interval L1 reference count at or below which
	// a workload is considered idle (l1_ref_thr).
	L1RefThr uint64
	// LLCMissRateThr (llc_miss_rate_thr) separates "working set fits"
	// from "suffering misses". The paper chooses 3% (§5.1, Fig 8).
	LLCMissRateThr float64
	// IPCImpThr (ipc_imp_thr) is the minimum relative IPC improvement
	// that justifies keeping a newly granted way. The paper chooses 5%
	// (§5.1, Fig 9).
	IPCImpThr float64
	// PhaseThr is the relative change in memory accesses per
	// instruction that signals a phase change. The paper uses 10%.
	PhaseThr float64
	// StreamingMult: an Unknown workload that reaches
	// StreamingMult x baseline ways with no improvement is classified
	// Streaming. The paper uses 3.
	StreamingMult int
	// GrowthStep is how many ways a growing workload gains per round.
	// The paper grows one way at a time.
	GrowthStep int
	// ArrivalGraceTicks exempts a freshly arrived workload (AddTarget —
	// a live migration or hot-plug) from the two Streaming verdicts for
	// this many controller ticks outside Reclaim, or until its miss-rate
	// curve stabilizes (consecutive intervals within 10% of each other),
	// whichever comes first. The countdown pauses while the workload is
	// in Reclaim, which holds its baseline and makes no verdict. A
	// migrated tenant refills its working set from a cold LLC, and the
	// refill storm is indistinguishable from a streaming access pattern
	// (high miss rate, little IPC gain from added ways) — without the
	// grace the destination loop can durably misclassify it, since
	// Streaming is terminal for the phase. 0 disables the grace.
	// Controllers built with New are unaffected: only AddTarget arms it.
	ArrivalGraceTicks int
	// Policy selects the §3.5 allocation policy.
	Policy Policy
	// NewPhaseDetector, when set, supplies a custom phase-change
	// detector per workload (§3.3 notes detection methods are
	// pluggable). Nil uses the paper's fixed relative threshold
	// (ThresholdDetector with PhaseThr).
	NewPhaseDetector func() PhaseDetector
	// NewPolicy, when set, supplies the step-5 allocation policy
	// (resolve a name with policy.New). Nil uses the paper's reactive
	// §3.5 allocator. Each controller gets its own instance, so
	// learned policy state is per socket.
	NewPolicy func() policy.AllocationPolicy
}

// detector instantiates the configured phase detector.
func (c Config) detector() PhaseDetector {
	if c.NewPhaseDetector != nil {
		return c.NewPhaseDetector()
	}
	return NewThresholdDetector(c.PhaseThr)
}

// policy instantiates the configured allocation policy.
func (c Config) policy() policy.AllocationPolicy {
	if c.NewPolicy != nil {
		return c.NewPolicy()
	}
	return policy.NewReactive()
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		LLCRefThr:         2000,
		L1RefThr:          1000,
		LLCMissRateThr:    0.03,
		IPCImpThr:         0.05,
		PhaseThr:          0.10,
		StreamingMult:     3,
		GrowthStep:        1,
		ArrivalGraceTicks: 4,
		Policy:            MaxFairness,
	}
}

// Validate checks threshold sanity.
func (c Config) Validate() error {
	if c.LLCMissRateThr <= 0 || c.LLCMissRateThr >= 1 {
		return fmt.Errorf("core: llc_miss_rate_thr %f out of (0,1)", c.LLCMissRateThr)
	}
	if c.IPCImpThr <= 0 || c.IPCImpThr >= 1 {
		return fmt.Errorf("core: ipc_imp_thr %f out of (0,1)", c.IPCImpThr)
	}
	if c.PhaseThr <= 0 || c.PhaseThr >= 1 {
		return fmt.Errorf("core: phase threshold %f out of (0,1)", c.PhaseThr)
	}
	if c.StreamingMult < 2 {
		return fmt.Errorf("core: streaming multiplier %d must be >= 2", c.StreamingMult)
	}
	if c.GrowthStep < 1 {
		return fmt.Errorf("core: growth step %d must be >= 1", c.GrowthStep)
	}
	if c.ArrivalGraceTicks < 0 {
		return fmt.Errorf("core: arrival grace %d must be >= 0", c.ArrivalGraceTicks)
	}
	if c.Policy != MaxFairness && c.Policy != MaxPerformance {
		return fmt.Errorf("core: unknown policy %d", c.Policy)
	}
	return nil
}
