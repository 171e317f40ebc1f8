package core

import (
	"fmt"
	"math"
)

// State is a workload's cache-utilization category (§3.4, Fig 6).
type State int

const (
	// StateKeeper would suffer with less cache but does not benefit
	// from more. It is also the start state of every workload.
	StateKeeper State = iota
	// StateDonor neither suffers from less cache nor benefits from
	// more; its ways are gradually (or immediately) returned to the
	// pool.
	StateDonor
	// StateReceiver benefits from more cache and suffers from less.
	StateReceiver
	// StateStreaming misses a lot but never reuses data: a special
	// Donor held at the minimum allocation.
	StateStreaming
	// StateUnknown cannot be determined yet; dCat probes it with more
	// cache, with priority over Receivers, to resolve it quickly.
	StateUnknown
	// StateReclaim is entered on a phase change: the workload must
	// return to its baseline allocation, with priority over everything
	// else, so its guaranteed performance is restored.
	StateReclaim
)

// NumStates is the size of the closed state set: the valid States are
// 0 .. NumStates-1.
const NumStates = int(StateReclaim) + 1

// ParseState maps a name String returns back to its State.
func ParseState(name string) (State, bool) {
	for s := State(0); int(s) < NumStates; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// String names the state as the paper does.
func (s State) String() string {
	switch s {
	case StateKeeper:
		return "Keeper"
	case StateDonor:
		return "Donor"
	case StateReceiver:
		return "Receiver"
	case StateStreaming:
		return "Streaming"
	case StateUnknown:
		return "Unknown"
	case StateReclaim:
		return "Reclaim"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// phaseKey buckets a memory-accesses-per-instruction value so that a
// recurring phase maps to the same key despite measurement noise. The
// bucket width (~15% per step) sits above the 10% detection threshold,
// so values within one undetected drift usually share a bucket.
type phaseKey int

const idlePhase phaseKey = math.MinInt32

func phaseKeyOf(mapi float64) phaseKey {
	if mapi < 1e-9 {
		return idlePhase
	}
	return phaseKey(math.Round(math.Log(mapi) / math.Log(1.15)))
}

// relDiff returns |a-b| / b (b>0); a large value when b is ~0 but a is not.
func relDiff(a, b float64) float64 {
	if b < 1e-12 {
		if a < 1e-12 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}

// Status is one workload's externally visible controller state, used
// by telemetry and the experiment harness.
type Status struct {
	Name     string
	State    State
	Ways     int
	Baseline int
	IPC      float64
	// NormIPC is IPC normalized to the phase's baseline IPC (0 when
	// the baseline has not been measured yet).
	NormIPC  float64
	MissRate float64
	MAPI     float64
	LLCRef   uint64
	// Graced reports an active post-arrival classification grace
	// (Config.ArrivalGraceTicks): the workload arrived recently enough
	// that Streaming verdicts are still suspended. The invariant
	// State==StateStreaming && Graced can never hold; the study harness
	// audits it on every churn arrival.
	Graced bool
	// Socket is the LLC domain the workload runs on: the socket of the
	// loop that manages it.
	Socket int
	// Policy is the allocation policy making the way decisions on this
	// workload's controller ("reactive", "predictive", "lfoc", ...).
	Policy string
}
