package core

import "math"

// This file is step 4 of the loop, Categorize Workloads: the §3.4 state
// machine of paper Fig. 6 as one pure transition, next, plus the four
// extensions this repo adds to it (DESIGN §6b). The loop gathers what a
// decision reads into a catIn, and applies the catOut through setState;
// categorize_test.go checks next against Fig. 6 transcribed as a table.

// catState is the part of a workload's record the transition reads;
// wstate embeds it.
type catState struct {
	baseline int
	state    State
	settled  bool // terminal for this phase; only a phase change resets it
	ways     int  // allocation active during the just-measured interval
	prevWays int  // allocation during the interval before that

	baselineIPC float64
	lastIPC     float64
	lastMiss    float64
	denied      bool // last round's grant fell short of its desire (allocate)
	jumpTo      int  // >0: performance-table reuse target (Fig 12)
	// graceLeft counts down the post-arrival classification grace
	// (Config.ArrivalGraceTicks): while positive, the Streaming verdicts
	// are suspended because the cold-cache refill of a freshly migrated
	// tenant mimics a streaming pattern. Armed only by AddTarget; it
	// counts down only on ticks outside Reclaim.
	graceLeft int
}

// catIn is everything one decision reads: the workload's record, this
// interval's observation, and whether the previous allocation round
// left no free ways.
type catIn struct {
	catState
	ipc, miss     float64
	l1Ref, llcRef uint64
	poolEmpty     bool
}

// catOut is one decision: the category (reason names a transition and
// is empty when the row holds the category) and the workload fields the
// decision rewrites.
type catOut struct {
	state     State
	reason    string
	settled   bool
	desire    int
	graceLeft int
	jumpTo    int
}

// categorize decides one workload's category and desire for this round
// and applies the decision.
func (l *loop) categorize(w *wstate, o observation) {
	out := next(&l.c.cfg, &catIn{
		catState:  w.catState,
		ipc:       o.ipc,
		miss:      o.miss,
		l1Ref:     o.sample.L1Ref,
		llcRef:    o.sample.LLCRef,
		poolEmpty: l.poolEmpty,
	})
	l.setState(w, out.state, out.reason)
	w.settled = out.settled
	w.desire = out.desire
	w.graceLeft = out.graceLeft
	w.jumpTo = out.jumpTo
}

// next is the §3.4 state machine: one workload's category, settledness,
// desired way count, arrival grace and reuse target after an interval.
// It only reads in; the pointer spares the tick a copy per workload.
func next(cfg *Config, in *catIn) catOut {
	// The outputs are plain locals, not a catOut being filled in: the
	// compiler keeps them in registers.
	state, reason, settled, desire := in.state, "", in.settled, 0
	graceLeft, jumpTo := in.graceLeft, in.jumpTo
	grew := in.ways > in.prevWays
	imp := 0.0
	if in.lastIPC > 0 {
		imp = (in.ipc - in.lastIPC) / in.lastIPC
	}
	// Post-arrival grace: burn one tick, and end it early once the
	// miss-rate curve flattens — the refill is over, so verdicts made
	// from here on observe the tenant's real access pattern. Reclaim
	// makes no verdict, so the countdown pauses there.
	graced := in.graceLeft > 0
	if graced && state != StateReclaim {
		graceLeft--
		if in.lastMiss > 0 && math.Abs(in.miss-in.lastMiss) <= 0.1*in.lastMiss {
			graceLeft = 0
		}
	}

	switch {
	case state == StateReclaim:
		// Reclaim outranks every verdict: hold the contracted baseline
		// until observePhase measures it.
		desire = in.baseline

	case in.l1Ref <= cfg.L1RefThr || in.llcRef <= cfg.LLCRefThr:
		// Idle (l1_ref_thr: the VM is barely executing) or not using
		// the LLC (llc_ref_thr): Donor at the minimum allocation.
		state, reason = StateDonor, reasonIdle
		settled = true
		desire = 1

	case state == StateStreaming:
		// Streaming is a terminal Donor for this phase.
		desire = 1

	case in.baselineIPC > 0 && in.ways < in.baseline &&
		in.ipc < in.baselineIPC*(1-cfg.IPCImpThr):
		// The baseline guarantee itself: donating ways looked safe by
		// miss rate, but the workload now runs measurably below the
		// performance it had at its contracted allocation (reduced
		// associativity raises conflict misses before the miss-rate
		// threshold notices — the §2.1 pathology). Take the donation
		// back and hold.
		state, reason = StateKeeper, reasonGuarantee
		settled = true
		desire = in.baseline

	case in.miss < cfg.LLCMissRateThr:
		switch {
		case in.settled:
			// A Keeper that already proved it suffers with less (or a
			// reused-table jump target): hold.
			state, reason = StateKeeper, reasonSettledHold
			desire, jumpTo = holdOrJump(in)
		case state == StateReceiver || state == StateUnknown:
			// Growth drove the miss rate below threshold: the working
			// set fits — the preferred state (§3.4: Receiver → Keeper
			// when llc_miss_rate < llc_miss_rate_thr).
			state, reason = StateKeeper, reasonFits
			settled = true
			desire = in.ways
		case in.ways <= 1:
			state, reason = StateDonor, reasonMinimalDonor
			settled = true
			desire = 1
		default:
			// Phase-start Keeper or shrinking Donor that is not
			// missing: give back one way per round until misses
			// become non-trivial.
			state, reason = StateDonor, reasonShrinking
			desire = in.ways - 1
		}

	default: // significant LLC references and a non-trivial miss rate
		switch state {
		case StateDonor:
			// Shrinking uncovered the working set: settle here.
			state, reason = StateKeeper, reasonUncovered
			settled = true
			desire = in.ways
		case StateKeeper:
			if in.settled {
				desire, jumpTo = holdOrJump(in)
				break
			}
			// Might benefit from more cache: probe.
			state, reason = StateUnknown, reasonProbe
			desire = in.ways + cfg.GrowthStep
		case StateUnknown:
			switch {
			case grew && imp >= cfg.IPCImpThr:
				state, reason = StateReceiver, reasonImproved
				desire = in.ways + cfg.GrowthStep
			case grew && !graced && (in.ways >= cfg.StreamingMult*in.baseline || in.poolEmpty):
				// Probed to the streaming threshold (or drained the
				// pool) with nothing to show: cyclic access pattern.
				// (A freshly arrived tenant inside its grace keeps
				// probing instead — the refill storm is not evidence.)
				state, reason = StateStreaming, reasonStreamingProbe
				settled = true
				desire = 1
			case !grew && !graced && in.denied && in.ways >= cfg.StreamingMult*in.baseline:
				state, reason = StateStreaming, reasonStreamingDenied
				settled = true
				desire = 1
			default:
				desire = in.ways + cfg.GrowthStep
			}
		case StateReceiver:
			if grew && imp < cfg.IPCImpThr {
				// The last way added nothing: preferred state reached.
				state, reason = StateKeeper, reasonNoGain
				settled = true
				desire = in.ways
				break
			}
			desire = in.ways + cfg.GrowthStep
		default:
			desire = in.ways
		}
	}
	return catOut{state, reason, settled, desire, graceLeft, jumpTo}
}

// holdOrJump is a settled workload's desire and reuse target: the
// target while it lies above the current ways, else the current ways
// with the target spent.
func holdOrJump(in *catIn) (desire, jumpTo int) {
	if in.jumpTo > in.ways {
		return in.jumpTo, in.jumpTo
	}
	return in.ways, 0
}
