// Package heracles implements the cache subcontroller of Heracles (Lo
// et al., ISCA 2015) in simplified form, as a second comparison
// baseline for dCat (the paper's §7 discusses it at length).
//
// Heracles divides a machine into exactly two classes: one
// latency-critical (LC) workload with a performance target, and a pool
// of best-effort (BE) tasks that may use whatever the LC workload does
// not need. Its cache subcontroller is a feedback loop: when the LC
// workload runs below its target, best-effort cache is confiscated;
// when it has slack, best-effort cache grows back one way at a time.
//
// The structural contrasts with dCat (paper §7):
//
//   - two classes only — every non-LC tenant shares one best-effort
//     partition with no isolation between them;
//   - the LC workload must supply a performance signal (here an IPC
//     target the operator calibrates); dCat needs no target because it
//     derives its floor from the contracted baseline allocation.
package heracles

import "fmt"

// Config tunes the feedback loop.
type Config struct {
	// TargetIPC is the LC workload's required performance.
	TargetIPC float64
	// Margin is the dead zone around the target (e.g. 0.05 = ±5%).
	Margin float64
	// GrowStep is how many ways the LC partition gains per violation.
	GrowStep int
	// YieldStep is how many ways the LC partition returns per interval
	// of sufficient slack.
	YieldStep int
	// MinLC and MinBE floor the two partitions.
	MinLC, MinBE int
}

// DefaultConfig mirrors the published controller's temperament:
// confiscate fast, yield slowly.
func DefaultConfig(targetIPC float64) Config {
	return Config{
		TargetIPC: targetIPC,
		Margin:    0.05,
		GrowStep:  2,
		YieldStep: 1,
		MinLC:     2,
		MinBE:     1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TargetIPC <= 0 {
		return fmt.Errorf("heracles: target IPC %f must be positive", c.TargetIPC)
	}
	if c.Margin <= 0 || c.Margin >= 1 {
		return fmt.Errorf("heracles: margin %f out of (0,1)", c.Margin)
	}
	if c.GrowStep < 1 || c.YieldStep < 1 {
		return fmt.Errorf("heracles: steps must be >= 1")
	}
	if c.MinLC < 1 || c.MinBE < 1 {
		return fmt.Errorf("heracles: partition minimums must be >= 1 way")
	}
	return nil
}
